package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

func paperConfig() topology.Config {
	cfg := topology.DefaultConfig()
	cfg.Scale = 1
	cfg.Seed = worldSeed
	return cfg
}

// buildWorlds builds the Scale-1 world worldSetups times, each timed on
// its own with the previous world released, and returns the last one.
func buildWorlds() (*pipeline.World, []float64, error) {
	var w *pipeline.World
	var setups []float64
	for i := 0; i < worldSetups; i++ {
		if w != nil {
			w.Close()
			w = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if w, err = pipeline.BuildWorld(paperConfig()); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return w, setups, nil
}

// queryTimer wraps an http.RoundTripper and times each exchange from
// sending the request to closing the response body.
// When traced, each exchange is also recorded as a span.
type queryTimer struct {
	base   http.RoundTripper
	mu     sync.Mutex
	lat    Dist
	tr     *Tracer
	parent int64
}

func (q *queryTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t := time.Now()
	resp, err := q.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		q.mu.Lock()
		defer q.mu.Unlock()
		q.lat.AddDur(end.Sub(t))
		if q.tr != nil {
			q.tr.Record(q.tr.NewID(), q.parent, "lg.query", 0, t, end)
		}
	}}
	return resp, nil
}

// trace records later exchanges as spans under parent; a nil tracer
// stops recording.
func (q *queryTimer) trace(tr *Tracer, parent int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tr, q.parent = tr, parent
}

func (q *queryTimer) take() Dist {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := q.lat
	q.lat = nil
	return d
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// installQueryTimer routes the looking-glass clients, which use
// http.DefaultClient, through a timer.
func installQueryTimer() *queryTimer {
	q := &queryTimer{base: http.DefaultTransport}
	http.DefaultClient.Transport = q
	return q
}

// precisionRecall scores an inferred mesh against the world's ground
// truth route-server peering links.
func precisionRecall(res *core.Result, truth map[topology.LinkKey]bool) (float64, float64) {
	tp := 0
	for k := range res.Links {
		if truth[k] {
			tp++
		}
	}
	if len(res.Links) == 0 || len(truth) == 0 {
		return 0, 0
	}
	return float64(tp) / float64(len(res.Links)), float64(tp) / float64(len(truth))
}

func batchPaper(ctx context.Context, o Options, measure time.Duration, rep *Report) error {
	w, setups, err := buildWorlds()
	if err != nil {
		return err
	}
	defer w.Close()
	rep.Set("setup_s", medianFloat(setups), "s")
	fmt.Printf("setup BuildWorld %v s\n", setups)
	truth := w.Topo.AllGroundTruthMLPLinks()
	qt := installQueryTimer()
	rss := SampleRSS(os.Getpid(), rssEvery)

	var jobs, survey, qP50 Dist
	var queries int
	var fp0 uint64
	var prec0, rec0 float64
	deadline := time.Now().Add(measure)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t := time.Now()
		run, err := w.RunInference(ctx, core.DefaultActiveConfig())
		if err != nil {
			return fmt.Errorf("job %d: %w", n, err)
		}
		jobs.AddDur(time.Since(t))
		q := qt.take()
		sum := 0.0
		for _, v := range q {
			sum += v
		}
		survey, qP50, queries = append(survey, sum), append(qP50, q.Median()), queries+len(q)
		fp := run.Result.Fingerprint()
		prec, rec := precisionRecall(run.Result, truth)
		rep.Attempted++
		if n == 0 {
			fp0, prec0, rec0 = fp, prec, rec
			fmt.Printf("digest batch fingerprint %016x links %d precision %.6f recall %.6f lg-queries %d\n",
				fp, run.Result.TotalLinks(), prec, rec, run.Active.TotalQueries())
		} else if fp != fp0 || prec != prec0 || rec != rec0 {
			logDetail("job %d: fingerprint %016x precision %v recall %v differ from job 0", n, fp, prec, rec)
			rep.Fail("check:batch-fingerprint")
		}
	}
	rssMB, rssN, err := rss.Stop()
	if err != nil {
		return err
	}
	peak, err := statusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return err
	}

	jTail, jPct := jobs.Tail()
	sTail, _ := survey.Tail()
	total := 0.0
	for _, v := range jobs {
		total += v
	}
	rep.Set("rss_mb", rssMB, "MB")
	rep.Set("primary_p50_ms", jobs.Median(), "ms")
	rep.Set("primary_tail_ms", jTail, "ms")
	rep.Set("secondary_p50_ms", survey.Median(), "ms")
	rep.Set("secondary_tail_ms", sTail, "ms")
	rep.Set("rate_per_s", float64(len(jobs))/(total/1000), "1/s")
	rep.Info("batch_job_s", jobs.Median()/1000, "s", fmt.Sprintf("median of %d jobs, slowest p%.0f %.3f s", len(jobs), jPct, jTail/1000))
	rep.Info("lg_survey_ms", survey.Median(), "ms", fmt.Sprintf("LG query time summed per job, median of %d jobs, slowest %.3f ms", len(jobs), sTail))
	rep.Info("lg_query_p50_ms", medianFloat(qP50), "ms", fmt.Sprintf("per job, median over jobs; %d queries", queries))
	rep.Info("batch_precision", prec0, "ratio", "vs ground-truth RS peering links")
	rep.Info("batch_recall", rec0, "ratio", "")
	rep.Info("setup_s", medianFloat(setups), "s", fmt.Sprintf("median of %d BuildWorld calls", worldSetups))
	rep.Info("rss_mb", rssMB, "MB", fmt.Sprintf("benchmark process VmRSS, median of %d samples over the jobs", rssN))
	rep.Info("peak_rss_mb", peak, "MB", "benchmark process VmHWM")
	return nil
}
