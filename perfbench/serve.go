package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// Ladder is serve-read's open-loop ladder in requests per second, with
// the share of the measured time each rung gets: lo and hi, both well
// below the knee on the calibration box (see README.md).
var Ladder = []struct {
	Name  string
	Rate  float64
	Share float64
}{
	{"lo", 50, 0.4},
	{"hi", 100, 0.4},
}

// satShare is the share of the measured time of serve-read's last
// rung, a closed loop on every connection that finds
// max_qps_within_slo. Its rate is the median over satSlices equal
// slices: a replay-cycle restart (every ~6 s) or an epoch commit (every
// second) takes a core from the gateway for part of the rung.
const (
	satShare  = 0.2
	satSlices = 4
)

// SLO is the read tail-latency limit, in milliseconds.
const SLO = 250.0

// lateLimitMS is how late (p99) the generator may dispatch before a
// rung is invalid because the generator, not the server, fell behind.
const lateLimitMS = 20.0

// conns is the generator's connection count: the box's two CPUs.
const conns = 2

// tailParts is how many consecutive pieces a request-latency tail is
// taken over; the reported tail is the median of the pieces' tails.
const tailParts = 3

// drainTimeout bounds how long queued requests may drain after a rung.
const drainTimeout = 3 * time.Second

// rssEvery is the interval of the memory samples behind rss_mb.
const rssEvery = 100 * time.Millisecond

func lgserveArgs(epochInterval string) []string {
	return []string{
		"-scale", "1",
		"-seed", strconv.Itoa(worldSeed),
		"-churn-epochs", "6",
		"-epoch-interval", epochInterval,
		"-addr", "127.0.0.1:0",
		"-drain", "1s",
	}
}

// startMeasured starts lgserve serveSetups times, each timed from exec
// to its first 200 on /v1/epoch, and keeps the last instance running.
func startMeasured(ctx context.Context, o Options, epochInterval string, rep *Report) (*Server, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, err := StartServer(o.LGServe, lgserveArgs(epochInterval)...)
		if err != nil {
			return nil, err
		}
		d, err := s.WaitReady(ctx, 120*time.Second)
		if err != nil {
			s.Stop()
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == serveSetups-1 {
			rep.Set("setup_s", medianFloat(setups), "s")
			fmt.Printf("setup lgserve %v s\n", setups)
			return s, nil
		}
		s.Stop()
	}
}

// finishServer fails the run if the server died before the end, and
// stops it. rss_mb is the median of the server's VmRSS samples.
func finishServer(s *Server, rss *RSSSampler, rep *Report) error {
	defer s.Stop()
	if s.Exited() {
		return fmt.Errorf("lgserve exited during the run: %v\n%s", s.waitErr, s.Log())
	}
	mb, n, err := rss.Stop()
	if err != nil {
		return err
	}
	peak, err := s.PeakRSSMB()
	if err != nil {
		return err
	}
	rep.Set("rss_mb", mb, "MB")
	rep.Info("rss_mb", mb, "MB", fmt.Sprintf("lgserve VmRSS, median of %d samples over the run", n))
	rep.Info("peak_rss_mb", peak, "MB", "lgserve VmHWM")
	return nil
}

// get fetches one URL and returns its body and ETag.
func get(client *http.Client, url string) ([]byte, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, resp.Header.Get("ETag"), nil
}

// discoverKeys draws serve-read's request keys from the first snapshot
// served: AS numbers in a seeded Zipf rank order, every IXP, and
// linked and unlinked AS pairs. It also teaches chk that mesh.
func discoverKeys(base string, seed int64, chk *GatewayChecker) (*Keys, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	body, tag, err := get(client, base+"/v1/mesh")
	if err != nil {
		return nil, err
	}
	epoch, fp, ok := parseETag(tag)
	if !ok {
		return nil, fmt.Errorf("bad ETag %q", tag)
	}
	if err := chk.checkMesh(epoch, fp, body); err != nil {
		return nil, fmt.Errorf("first mesh: %v", err)
	}
	var mesh struct {
		Links []linkJSON `json:"links"`
	}
	if err := json.Unmarshal(body, &mesh); err != nil {
		return nil, err
	}
	ixpBody, _, err := get(client, base+"/v1/ixps")
	if err != nil {
		return nil, err
	}
	var ixps struct {
		IXPs []struct {
			Name string `json:"name"`
		} `json:"ixps"`
	}
	if err := json.Unmarshal(ixpBody, &ixps); err != nil {
		return nil, err
	}
	if len(mesh.Links) == 0 || len(ixps.IXPs) == 0 {
		return nil, fmt.Errorf("empty first snapshot (epoch %d)", epoch)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	k := &Keys{}
	linked := make(map[uint64]bool, len(mesh.Links))
	asSet := map[uint32]bool{}
	for _, l := range mesh.Links {
		linked[pairKey(l.A, l.B)] = true
		asSet[l.A], asSet[l.B] = true, true
	}
	for as := range asSet {
		k.ASes = append(k.ASes, as)
	}
	sort.Slice(k.ASes, func(i, j int) bool { return k.ASes[i] < k.ASes[j] })
	rng.Shuffle(len(k.ASes), func(i, j int) { k.ASes[i], k.ASes[j] = k.ASes[j], k.ASes[i] })
	for _, x := range ixps.IXPs {
		k.IXPs = append(k.IXPs, x.Name)
	}
	for i := 0; i < 512; i++ {
		l := mesh.Links[rng.Intn(len(mesh.Links))]
		k.Present = append(k.Present, [2]uint32{l.A, l.B})
	}
	for len(k.Absent) < 512 {
		a, b := k.ASes[rng.Intn(len(k.ASes))], k.ASes[rng.Intn(len(k.ASes))]
		if a != b && !linked[pairKey(a, b)] {
			k.Absent = append(k.Absent, [2]uint32{a, b})
		}
	}
	fmt.Printf("keys from epoch %d: %d ASes, %d IXPs, %d links\n", epoch, len(k.ASes), len(k.IXPs), len(mesh.Links))
	return k, nil
}

// checkFinish folds the checker's waiting checks into the report and
// prints the window digests.
func checkFinish(chk *GatewayChecker, rep *Report) {
	deferred, unverified := chk.Finish()
	rep.Ops(0, deferred)
	for _, d := range chk.WindowDigests() {
		fmt.Println(d)
	}
	fmt.Printf("checks waiting for a mesh that never arrived: %d\n", unverified)
}

// epochRate derives commit periods and the commit rate from the
// committed stamps of the /v1/epoch bodies seen: a period is counted
// between two consecutive epochs both seen.
func epochRate(commits map[uint64]time.Time) (periods Dist, perSec float64) {
	epochs := make([]uint64, 0, len(commits))
	for e := range commits {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for i := 1; i < len(epochs); i++ {
		if epochs[i] == epochs[i-1]+1 {
			periods.AddDur(commits[epochs[i]].Sub(commits[epochs[i-1]]))
		}
	}
	if n := len(epochs); n > 1 {
		span := commits[epochs[n-1]].Sub(commits[epochs[0]]).Seconds()
		if span > 0 {
			perSec = float64(epochs[n-1]-epochs[0]) / span
		}
	}
	return periods, perSec
}

func printRung(name string, rate float64, st *RunStats, verdict string) {
	tail, pct := st.Lat.Tail()
	fmt.Printf("rung %-5s %6.0f req/s: p50 %.3f ms p%.1f %.3f ms n=%d failed %d unsent %d late-p99 %.3f ms backlog-max %d 304 %d/%d: %s\n",
		name, rate, st.Lat.Median(), pct, tail, st.Lat.Len(), st.Failed, st.Unsent,
		st.Late.Quantile(0.99), st.MaxBacklog(), st.NotModified, st.Conditional, verdict)
	for c := Class(0); c < numClasses; c++ {
		if d := st.ByClass[c]; len(d) > 0 {
			fmt.Printf("  class %-6s %s bytes %d\n", c, d.Describe(), st.BytesByCls[c])
		}
	}
}

func serveRead(ctx context.Context, o Options, measure time.Duration, rep *Report) error {
	srv, err := startMeasured(ctx, o, "1s", rep)
	if err != nil {
		return err
	}
	defer srv.Stop()
	rss := SampleRSS(srv.cmd.Process.Pid, rssEvery)
	chk := NewGatewayChecker()
	keys, err := discoverKeys(srv.Base, o.Seed, chk)
	if err != nil {
		return err
	}
	gen := NewGenerator(o.Seed, keys, ReadMix)
	load := &Load{Base: srv.Base, Conns: NewConns(conns, 10*time.Second), Check: chk, Drain: drainTimeout}
	defer CloseIdle(load.Conns)

	maxOK := 0.0
	var rungs []*RunStats
	for _, r := range Ladder {
		sched := gen.Schedule(r.Rate, time.Duration(float64(measure)*r.Share))
		st := load.Run(ctx, sched)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		ok, why := st.Verdict(SLO, lateLimitMS, conns, tailParts)
		printRung(r.Name, r.Rate, st, why)
		if ok && r.Rate > maxOK {
			maxOK = r.Rate
		}
		rep.Ops(st.Attempted, st.Reasons)
		rungs = append(rungs, st)
	}
	sat, rates := load.RunClosed(ctx, gen, time.Duration(float64(measure)*satShare), satSlices)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	satQPS := medianFloat(rates)
	fmt.Printf("rung sat per-slice req/s %.1f\n", rates)
	ok, why := sat.Verdict(SLO, lateLimitMS, conns, tailParts)
	printRung("sat", satQPS, sat, why)
	if ok {
		maxOK = satQPS
	}
	rep.Ops(sat.Attempted, sat.Reasons)
	checkFinish(chk, rep)

	lo, hi := rungs[0], rungs[1]
	loTail, loPct := lo.Lat.SplitTail(tailParts)
	hiTail, hiPct := hi.Lat.SplitTail(tailParts)
	loP50, hiP50 := lo.Lat.SplitMedian(tailParts), hi.Lat.SplitMedian(tailParts)
	rep.Set("primary_p50_ms", hiP50, "ms")
	rep.Set("primary_tail_ms", hiTail, "ms")
	rep.Set("secondary_p50_ms", loP50, "ms")
	rep.Set("secondary_tail_ms", loTail, "ms")
	_, eps := epochRate(chk.Commits())
	rep.Set("rate_per_s", eps, "1/s")
	rep.Info("read_p50_ms.lo", loP50, "ms", fmt.Sprintf("p50 of each third, median; n=%d", lo.Lat.Len()))
	rep.Info("read_tail_ms.lo", loTail, "ms", fmt.Sprintf("p%g of each third, median; n=%d", loPct, lo.Lat.Len()))
	rep.Info("read_p50_ms.hi", hiP50, "ms", fmt.Sprintf("p50 of each third, median; n=%d", hi.Lat.Len()))
	rep.Info("read_tail_ms.hi", hiTail, "ms", fmt.Sprintf("p%g of each third, median; n=%d", hiPct, hi.Lat.Len()))
	rep.Info("max_qps_within_slo", maxOK, "1/s", fmt.Sprintf("closed loop on %d connections, tail limit %.0f ms", conns, SLO))
	rep.Info("epochs_per_s", eps, "1/s", "")
	if err := finishServer(srv, rss, rep); err != nil {
		return err
	}
	rep.Info("setup_s", rep.Metrics["setup_s"].Value, "s", fmt.Sprintf("median of %d starts", serveSetups))
	return nil
}

// PollRate is churn-publish's fixed poll rate, in requests per second.
const PollRate = 100

func churnPublish(ctx context.Context, o Options, measure time.Duration, rep *Report) error {
	srv, err := startMeasured(ctx, o, "0", rep)
	if err != nil {
		return err
	}
	defer srv.Stop()
	rss := SampleRSS(srv.cmd.Process.Pid, rssEvery)
	chk := NewGatewayChecker()
	// Every fingerprint's mesh is fetched once, outside the measured
	// polls, so the epoch and stats link counts can be checked.
	stopMesh := make(chan struct{})
	meshDone := make(chan struct{})
	var learnFailed int
	go func() {
		defer close(meshDone)
		learnFailed = learnMeshes(srv.Base, chk, stopMesh)
	}()
	gen := NewGenerator(o.Seed, nil, PollMix)
	load := &Load{Base: srv.Base, Conns: NewConns(1, 10*time.Second), Check: chk, Drain: drainTimeout}
	defer CloseIdle(load.Conns)
	st := load.Run(ctx, gen.Schedule(PollRate, measure))
	close(stopMesh)
	<-meshDone
	if ctx.Err() != nil {
		return ctx.Err()
	}
	printRung("poll", PollRate, st, "")
	rep.Ops(st.Attempted, st.Reasons)
	for i := 0; i < learnFailed; i++ {
		rep.Fail("check:mesh")
	}
	checkFinish(chk, rep)

	periods, eps := epochRate(chk.Commits())
	pTail, pPct := periods.Tail()
	lTail, lPct := st.Lat.SplitTail(tailParts)
	periodP50 := periods.SplitMedian(tailParts)
	rep.Set("primary_p50_ms", periodP50, "ms")
	rep.Set("primary_tail_ms", pTail, "ms")
	pollP50 := st.Lat.SplitMedian(tailParts)
	rep.Set("secondary_p50_ms", pollP50, "ms")
	rep.Set("secondary_tail_ms", lTail, "ms")
	rep.Set("rate_per_s", eps, "1/s")
	rep.Info("epochs_per_s", eps, "1/s", "")
	rep.Info("epoch_period_p50_ms", periodP50, "ms", fmt.Sprintf("p50 of each third, median; n=%d", periods.Len()))
	rep.Info("epoch_period_tail_ms", pTail, "ms", fmt.Sprintf("p%.1f n=%d", pPct, periods.Len()))
	rep.Info("poll_p50_ms", pollP50, "ms", fmt.Sprintf("p50 of each third, median; n=%d", st.Lat.Len()))
	rep.Info("poll_tail_ms", lTail, "ms", fmt.Sprintf("p%g of each third, median; n=%d", lPct, st.Lat.Len()))
	if err := finishServer(srv, rss, rep); err != nil {
		return err
	}
	rep.Info("setup_s", rep.Metrics["setup_s"].Value, "s", fmt.Sprintf("median of %d starts", serveSetups))
	return nil
}

// learnMeshes polls /v1/epoch and fetches /v1/mesh whenever the
// served fingerprint is one the checker has not seen, until stop
// closes. It returns how many fetched meshes failed their checks.
func learnMeshes(base string, chk *GatewayChecker, stop <-chan struct{}) (failed int) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case <-stop:
			return failed
		case <-time.After(100 * time.Millisecond):
		}
		_, tag, err := get(client, base+"/v1/epoch")
		if _, fp, ok := parseETag(tag); err != nil || !ok || chk.Known(fp) {
			continue
		}
		body, tag, err := get(client, base+"/v1/mesh")
		if err != nil {
			continue
		}
		if epoch, fp, ok := parseETag(tag); ok {
			if err := chk.checkMesh(epoch, fp, body); err != nil {
				logDetail("mesh %s: %v", tag, err)
				failed++
			}
		}
	}
}
