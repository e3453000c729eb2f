package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/mrt"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

// The traced run builds, in process, what lgserve and the batch job
// run, and times each layer from outside around the calls into its
// public functions. It reports every per-layer metric whatever the
// workload; the workload picks the in-process gateway's pacing and
// traffic mix.

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// paperChurn is the churn configuration lgserve builds for
// -seed worldSeed -churn-epochs 6 (its -churn-interval default is 1m).
func paperChurn() churn.Config {
	c := churn.DefaultConfig(worldSeed)
	c.Epochs = 6
	c.Interval = time.Minute
	return c
}

func runTraced(ctx context.Context, o Options, rep *Report) error {
	tr := NewTracer()
	root := tr.NewID()
	start := time.Now()

	ct, err := tracedChurnTrace(tr, root, rep)
	if err != nil {
		return err
	}
	replayFP, err := tracedWindows(ctx, tr, root, ct, rep)
	if err != nil {
		return err
	}
	ct = nil
	runtime.GC()
	if err := tracedGateway(ctx, tr, root, o, replayFP, rep); err != nil {
		return err
	}
	runtime.GC()
	if err := tracedBatch(ctx, tr, root, rep); err != nil {
		return err
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Set("runtime.gc_cpu_fraction", ms.GCCPUFraction, "ratio")
	tr.Record(root, 0, "perfbench.traced", 0, start, time.Now())
	rep.Set("trace.spans", float64(tr.Len()), "count")
	for _, r := range tr.SelfTimes() {
		fmt.Printf("span %-40s count %6d total %10.3f ms self %10.3f ms\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	path := filepath.Join(o.OutDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.Workload, o.Seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// tracedChurnTrace builds the churn trace the way
// experiments.BuildChurnTrace does, one layer call at a time.
func tracedChurnTrace(tr *Tracer, parent int64, rep *Report) (*experiments.ChurnTrace, error) {
	var ct *experiments.ChurnTrace
	var err error
	tr.Time(parent, "experiments.BuildChurnTrace", func(id int64) {
		ct, err = buildChurnTrace(tr, id, rep)
	})
	return ct, err
}

func buildChurnTrace(tr *Tracer, parent int64, rep *Report) (*experiments.ChurnTrace, error) {
	var w *pipeline.World
	var err error
	d := tr.Time(parent, "pipeline.BuildWorld", func(int64) { w, err = pipeline.BuildWorld(paperConfig()) })
	if err != nil {
		return nil, err
	}
	defer w.Close()
	rep.Set("pipeline.build_world_ms", msOf(d), "ms")

	var dict *core.Dictionary
	d = tr.Time(parent, "core.BuildDictionary", func(int64) { dict, err = w.Dictionary() })
	if err != nil {
		return nil, err
	}
	rep.Set("core.dictionary_ms", msOf(d), "ms")

	col := collector.New("rrc-churn", w.Engine, nil, 4)
	runner := churn.NewRunner(w.Engine, paperChurn())
	ccfg := runner.Config()
	start := pipeline.Timestamp.Add(2 * time.Hour)
	var buf bytes.Buffer
	var trace *churn.Trace
	d = tr.Time(parent, "churn.Runner.Run", func(int64) { trace, err = runner.Run(&buf, col, start) })
	if err != nil {
		return nil, err
	}
	ops, dirty := 0, 0
	for _, e := range trace.Epochs {
		ops += e.Ops
		dirty += e.DirtyDests
	}
	rep.Set("churn.trace_ms", msOf(d), "ms")
	rep.Set("churn.ms_per_epoch", msOf(d)/float64(len(trace.Epochs)), "ms")
	rep.Set("churn.ops", float64(ops), "count")
	rep.Set("churn.dirty_dests", float64(dirty), "count")
	rep.Set("mrt.update_bytes", float64(buf.Len()), "bytes")

	var updates []*mrt.BGP4MPMessage
	d = tr.Time(parent, "mrt.ReadUpdates", func(int64) { updates, err = mrt.ReadUpdates(&buf) })
	if err != nil {
		return nil, err
	}
	rep.Set("mrt.read_updates_ms", msOf(d), "ms")
	rep.Set("churn.update_msgs", float64(len(updates)), "count")
	rep.Set("churn.update_msgs_per_dirty_dest", float64(len(updates))/float64(max(dirty, 1)), "ratio")

	return &experiments.ChurnTrace{
		Scenario: w.Scenario(),
		Start:    start,
		Interval: ccfg.Interval,
		Epochs:   ccfg.Epochs,
		Dumps:    w.Dumps,
		Updates:  updates,
		Dict:     dict,
		Trace:    trace,
	}, nil
}

func windowKey(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// tracedWindows replays the trace twice through ReplayWindows, as the
// gateway's reconciler does: once publishing snapshots only (the
// untraced cycle), once timing every window from the stream callback.
// It returns each window's fingerprint by window start.
func tracedWindows(ctx context.Context, tr *Tracer, parent int64, ct *experiments.ChurnTrace, rep *Report) (map[string]string, error) {
	untracedFP := map[string]string{}
	var epoch uint64
	t := time.Now()
	err := ct.ReplayWindows(ctx, 0, 0, func(pw *core.PassiveWindow) {
		epoch++
		s := serve.NewSnapshot(epoch, ct.Scenario, pw, time.Now())
		untracedFP[windowKey(pw.Start)] = serve.FingerprintHex(s.Fingerprint)
	})
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t)

	var (
		closes, applies, snaps, allocs, allocMB Dist
		events, live, meshLinks, relLinks       []float64
		changes, eventsTotal                    int
		prevLinks                               map[topology.LinkKey][]string
		baseLoad, closeFirst                    time.Duration
		fpMS, renderMS                          Dist
		snapBytes                               []float64
		extra                                   time.Duration
		ms                                      runtime.MemStats
		k                                       int
	)
	tracedFP := map[string]string{}
	cycle := tr.NewID()
	cycleStart := time.Now()
	runtime.ReadMemStats(&ms)
	prevMallocs, prevBytes := ms.Mallocs, ms.TotalAlloc
	prevEnd := cycleStart
	err = ct.ReplayWindows(ctx, 0, 0, func(pw *core.PassiveWindow) {
		now := time.Now()
		runtime.ReadMemStats(&ms)
		win := tr.NewID()
		tr.Record(win, cycle, "core.window", 0, prevEnd, now)
		tr.Record(tr.NewID(), win, "core.window.close", 0, now.Add(-pw.CloseTime), now)
		gap := now.Sub(prevEnd)
		if k == 0 {
			baseLoad, closeFirst = gap-pw.CloseTime, pw.CloseTime
		} else {
			applies.AddDur(gap - pw.CloseTime)
			closes.AddDur(pw.CloseTime)
			allocs = append(allocs, float64(ms.Mallocs-prevMallocs))
			allocMB = append(allocMB, float64(ms.TotalAlloc-prevBytes)/(1<<20))
			for l := range pw.Result.Links {
				if _, ok := prevLinks[l]; !ok {
					changes++
				}
			}
			for l := range prevLinks {
				if _, ok := pw.Result.Links[l]; !ok {
					changes++
				}
			}
			eventsTotal += pw.Announced + pw.Withdrawn
		}
		prevLinks = pw.Result.Links
		events = append(events, float64(pw.Announced+pw.Withdrawn))
		live = append(live, float64(pw.LiveRoutes))
		meshLinks = append(meshLinks, float64(pw.MeshLinks))
		relLinks = append(relLinks, float64(pw.RelLinks))

		cb := tr.NewID()
		var s *serve.Snapshot
		snap := tr.Time(cb, "serve.NewSnapshot", func(int64) { s = serve.NewSnapshot(uint64(k+1), ct.Scenario, pw, now) })
		snaps.AddDur(snap)
		var fp uint64
		fpMS.AddDur(tr.Time(cb, "core.Result.Fingerprint", func(int64) { fp = pw.Result.Fingerprint() }))
		var mesh []byte
		renderMS.AddDur(tr.Time(cb, "serve.RenderMesh", func(int64) { mesh = serve.RenderMesh(uint64(k+1), fp, pw.Result) }))
		snapBytes = append(snapBytes, float64(len(mesh)+len(serve.RenderIXPList(uint64(k+1), pw.Result))))
		// The split calls above are measurements, not the program's
		// work; the overhead figure leaves them out.
		extra += time.Since(now) - snap
		if fp != s.Fingerprint {
			rep.Fail("check:snapshot-fingerprint")
		}
		tracedFP[windowKey(pw.Start)] = serve.FingerprintHex(fp)
		tr.Record(cb, win, "perfbench.window_callback", 0, now, time.Now())
		k++
		runtime.ReadMemStats(&ms)
		prevMallocs, prevBytes = ms.Mallocs, ms.TotalAlloc
		prevEnd = time.Now()
	})
	if err != nil {
		return nil, err
	}
	traced := time.Since(cycleStart) - extra
	tr.Record(cycle, parent, "experiments.ChurnTrace.ReplayWindows", 0, cycleStart, time.Now())

	for w, fp := range tracedFP {
		if untracedFP[w] != fp {
			logDetail("window %s: fingerprint %s in one replay cycle, %s in the next", w, untracedFP[w], fp)
			rep.Fail("check:window-fingerprint")
		}
	}
	for _, w := range sortedKeys(tracedFP) {
		fmt.Printf("digest replay window %s fingerprint %s\n", w, tracedFP[w])
	}
	rep.Set("core.base_load_ms", msOf(baseLoad), "ms")
	rep.Set("core.close_first_ms", msOf(closeFirst), "ms")
	rep.Set("core.window_apply_ms", applies.Median(), "ms")
	rep.Set("core.close_ms.p50", closes.Median(), "ms")
	rep.Set("core.close_ms.p90", closes.Quantile(0.9), "ms")
	rep.Set("core.events_per_window", medianFloat(events), "count")
	rep.Set("core.live_routes", medianFloat(live), "count")
	rep.Set("core.mesh_links", medianFloat(meshLinks), "count")
	rep.Set("core.rel_links", medianFloat(relLinks), "count")
	rep.Set("core.allocs_per_window", medianFloat(allocs), "count")
	rep.Set("core.alloc_mb_per_window", medianFloat(allocMB), "MB")
	rep.Set("core.link_changes_per_event", float64(changes)/float64(max(eventsTotal, 1)), "ratio")
	rep.Set("serve.snapshot_ms.p50", snaps.Median(), "ms")
	rep.Set("serve.snapshot_ms.p90", snaps.Quantile(0.9), "ms")
	rep.Set("serve.snapshot_bytes", medianFloat(snapBytes), "bytes")
	rep.Set("serve.fingerprint_ms", fpMS.Median(), "ms")
	rep.Set("serve.render_mesh_ms", renderMS.Median(), "ms")
	rep.Set("trace.overhead.windows", (traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "ratio")
	fmt.Printf("replay cycle untraced %.3f s traced %.3f s (%d windows)\n", untraced.Seconds(), traced.Seconds(), k)
	return tracedFP, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// classOf maps a gateway path to its request class.
func classOf(path string) Class {
	switch {
	case path == "/v1/mesh":
		return ClassMesh
	case strings.HasPrefix(path, "/v1/as/"):
		return ClassAS
	case strings.HasPrefix(path, "/v1/ixp/"):
		return ClassIXP
	case path == "/v1/link":
		return ClassLink
	}
	return ClassStatic
}

// handlerTimer wraps Gateway.Handler() and, once switched on, times
// every traced request by class, counts bytes written, conditional
// requests answered 304 and requests in flight.
type handlerTimer struct {
	next     http.Handler
	tr       *Tracer
	on       atomic.Bool
	inflight atomic.Int64
	peak     atomic.Int64

	mu      sync.Mutex
	dur     [numClasses]Dist
	bytes   [numClasses]int64
	cond    int
	notMod  int
	byReqID map[int64]time.Duration
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Only the generator's traced requests carry an id; key discovery
	// and mesh fetches for the checks pass through untimed.
	req, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	if !h.on.Load() || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	n := h.inflight.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	end := time.Now()
	h.inflight.Add(-1)

	c := classOf(r.URL.Path)
	parent, _ := strconv.ParseInt(r.Header.Get(spanIDHeader), 10, 64)
	h.tr.Record(h.tr.NewID(), parent, "serve.Handler."+c.String(), req, start, end)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dur[c].AddDur(end.Sub(start))
	h.bytes[c] += cw.n
	if r.Header.Get("If-None-Match") != "" {
		h.cond++
		if cw.status == http.StatusNotModified {
			h.notMod++
		}
	}
	h.byReqID[req] = end.Sub(start)
}

// tracedGateway runs the gateway lgserve runs, in process, behind a
// timing wrapper, and drives it with the workload's traffic: the first
// half of the measured time untraced, the second half traced.
func tracedGateway(ctx context.Context, tr *Tracer, parent int64, o Options, replayFP map[string]string, rep *Report) error {
	interval, mix, rate, nconns := time.Second, ReadMix, Ladder[0].Rate, conns
	if o.Workload == "churn-publish" {
		interval, mix, rate, nconns = 0, PollMix, PollRate, 1
	}
	g := serve.New(serve.Config{
		Topology:      paperConfig(),
		Churn:         paperChurn(),
		MaxInFlight:   256,
		EpochInterval: interval,
	})
	gctx, cancel := context.WithCancel(ctx)
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run(gctx) }()
	defer func() {
		cancel()
		<-runErr
	}()
	phase := tr.NewID()
	phaseStart := time.Now()
	defer func() { tr.Record(phase, parent, "perfbench.gateway", 0, phaseStart, time.Now()) }()

	var readyErr error
	tr.Time(phase, "serve.Gateway.Run.first_snapshot", func(int64) {
		select {
		case <-g.Ready():
		case err := <-runErr:
			readyErr = fmt.Errorf("gateway stopped before its first snapshot: %v", err)
			runErr <- err
		case <-ctx.Done():
			readyErr = ctx.Err()
		}
	})
	if readyErr != nil {
		return readyErr
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ht := &handlerTimer{next: g.Handler(), tr: tr, byReqID: map[int64]time.Duration{}}
	srv := &http.Server{Handler: ht}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()

	chk := NewGatewayChecker()
	keys, err := discoverKeys(base, o.Seed, chk)
	if err != nil {
		return err
	}
	stopMesh := make(chan struct{})
	meshDone := make(chan struct{})
	var learnFailed int
	go func() {
		defer close(meshDone)
		if mix == PollMix {
			learnFailed = learnMeshes(base, chk, stopMesh)
		}
	}()
	gen := NewGenerator(o.Seed, keys, mix)
	load := &Load{Base: base, Conns: NewConns(nconns, 10*time.Second), Check: chk, Drain: drainTimeout}
	defer CloseIdle(load.Conns)
	half := time.Duration(o.Seconds) * time.Second / 2
	stA := load.Run(ctx, gen.Schedule(rate, half))
	ht.on.Store(true)
	load.Trace, load.TraceParent = tr, phase
	stB := load.Run(ctx, gen.Schedule(rate, half))
	ht.on.Store(false)
	close(stopMesh)
	<-meshDone
	if ctx.Err() != nil {
		return ctx.Err()
	}
	printRung("untraced", rate, stA, "")
	printRung("traced", rate, stB, "")
	rep.Ops(stA.Attempted, stA.Reasons)
	rep.Ops(stB.Attempted, stB.Reasons)
	for i := 0; i < learnFailed; i++ {
		rep.Fail("check:mesh")
	}
	checkFinish(chk, rep)
	for w, fp := range chk.WindowFingerprints() {
		if want, ok := replayFP[w]; ok && want != fp {
			logDetail("window %s: gateway served %s, replay computed %s", w, fp, want)
			rep.Fail("check:gateway-vs-replay")
		}
	}

	ht.mu.Lock()
	for c := Class(0); c < numClasses; c++ {
		rep.Set("serve.handler_ms."+c.String()+".p50", ht.dur[c].Median(), "ms")
		rep.Set("serve.handler_ms."+c.String()+".p99", ht.dur[c].Quantile(0.99), "ms")
		rep.Set("serve.bytes_out."+c.String(), float64(ht.bytes[c]), "bytes")
	}
	rep.Set("serve.not_modified_ratio", float64(ht.notMod)/float64(max(ht.cond, 1)), "ratio")
	byReq := ht.byReqID
	ht.mu.Unlock()
	rep.Set("serve.inflight_max", float64(ht.peak.Load()), "count")

	// Client time minus handler time, per traced request.
	var transport Dist
	for _, s := range tr.spansNamedPrefix("http.request.") {
		if h, ok := byReq[s.Req]; ok {
			transport = append(transport, (s.EndUS-s.StartUS)/1e3-msOf(h))
		}
	}
	rep.Set("http.transport_ms", transport.Median(), "ms")

	late := append(append(Dist{}, stA.Late...), stB.Late...)
	rep.Set("loadgen.late_p99_ms", late.Quantile(0.99), "ms")
	rep.Set("loadgen.backlog_max", float64(max(stA.MaxBacklog(), stB.MaxBacklog())), "count")
	a := stA.Lat.Median()
	rep.Set("trace.overhead.serve", (stB.Lat.Median()-a)/max(a, 1e-9), "ratio")

	// Direct render calls on the current snapshot with the workload's keys.
	cur := g.Current()
	var as, ixp, link Dist
	for i := 0; i < 20 && i < len(keys.ASes); i++ {
		asn := bgp.ASN(keys.ASes[i])
		as.AddDur(tr.Time(phase, "serve.RenderAS", func(int64) { serve.RenderAS(cur.Epoch, cur.Result, asn) }))
	}
	for _, name := range keys.IXPs {
		ixp.AddDur(tr.Time(phase, "serve.RenderIXP", func(int64) { serve.RenderIXP(cur.Epoch, cur.Result, name) }))
	}
	for i := 0; i < 10; i++ {
		for _, p := range [][2]uint32{keys.Present[i], keys.Absent[i]} {
			link.AddDur(tr.Time(phase, "serve.RenderLink", func(int64) {
				serve.RenderLink(cur.Epoch, cur.Result, bgp.ASN(p[0]), bgp.ASN(p[1]))
			}))
		}
	}
	rep.Set("serve.render_as_ms", as.Median(), "ms")
	rep.Set("serve.render_ixp_ms", ixp.Median(), "ms")
	rep.Set("serve.render_link_ms", link.Median(), "ms")
	return nil
}

// tracedBatch runs World.RunInference untraced, then the same job one
// public call at a time, then untraced again; the traced job must give
// the same mesh, and its time against the second untraced job is the
// tracing overhead.
func tracedBatch(ctx context.Context, tr *Tracer, parent int64, rep *Report) error {
	phase := tr.NewID()
	phaseStart := time.Now()
	defer func() { tr.Record(phase, parent, "perfbench.batch", 0, phaseStart, time.Now()) }()
	var w *pipeline.World
	var err error
	tr.Time(phase, "pipeline.BuildWorld", func(int64) { w, err = pipeline.BuildWorld(paperConfig()) })
	if err != nil {
		return err
	}
	defer w.Close()
	qt := installQueryTimer()
	cfg := core.DefaultActiveConfig()

	if _, err := w.RunInference(ctx, cfg); err != nil { // warms the LG trees
		return err
	}
	var (
		passive *core.PassiveResult
		active  *core.ActiveResult
		res     *core.Result
	)
	qt.take()
	job := tr.Time(phase, "pipeline.World.RunInference", func(id int64) {
		var dict *core.Dictionary
		if dict, err = w.Dictionary(); err != nil {
			return
		}
		d := tr.Time(id, "core.RunPassive", func(int64) { passive, err = core.RunPassive(w.Dumps, w.Updates, dict) })
		if err != nil {
			return
		}
		rep.Set("core.run_passive_ms", msOf(d), "ms")
		hints := make(map[bgp.ASN][]bgp.Prefix)
		for p, origin := range passive.PrefixOrigins {
			hints[origin] = append(hints[origin], p)
		}
		d = tr.Time(id, "core.RunActive", func(aid int64) {
			qt.trace(tr, aid)
			active, err = core.RunActive(ctx, dict, w.LGEndpoints(0), passive.Obs, hints, cfg)
			qt.trace(nil, 0)
		})
		if err != nil {
			return
		}
		rep.Set("core.run_active_ms", msOf(d), "ms")
		merged := core.NewObservations()
		d = tr.Time(id, "core.Observations.Merge", func(int64) {
			merged.Merge(passive.Obs)
			merged.Merge(active.Obs)
		})
		rep.Set("core.merge_ms", msOf(d), "ms")
		d = tr.Time(id, "core.InferLinks", func(int64) { res = core.InferLinks(dict, merged) })
		rep.Set("core.infer_links_ms", msOf(d), "ms")
	})
	if err != nil {
		return err
	}
	queries := qt.take()
	rep.Attempted++
	t := time.Now()
	run, err := w.RunInference(ctx, cfg)
	if err != nil {
		return err
	}
	untraced := time.Since(t)
	if res.Fingerprint() != run.Result.Fingerprint() {
		logDetail("traced batch job fingerprint %016x, RunInference %016x", res.Fingerprint(), run.Result.Fingerprint())
		rep.Fail("check:batch-decomposition")
	}
	fmt.Printf("digest batch fingerprint %016x links %d\n", run.Result.Fingerprint(), run.Result.TotalLinks())
	rep.Set("core.paths_kept", float64(passive.Paths.Len()), "count")
	rep.Set("lg.queries", float64(active.TotalQueries()), "count")
	rep.Set("lg.query_ms.p50", queries.Median(), "ms")
	rep.Set("trace.overhead.batch", (job.Seconds()-untraced.Seconds())/untraced.Seconds(), "ratio")
	fmt.Printf("batch job untraced %.3f s traced %.3f s; %d LG queries counted, %d HTTP exchanges timed\n",
		untraced.Seconds(), job.Seconds(), active.TotalQueries(), len(queries))
	return nil
}
