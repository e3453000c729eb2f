package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testKeys() *Keys {
	return &Keys{
		ASes:    []uint32{10, 20, 30, 40, 50},
		IXPs:    []string{"AMS-IX", "DE-CIX"},
		Present: [][2]uint32{{10, 20}, {30, 40}},
		Absent:  [][2]uint32{{10, 50}},
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := NewGenerator(7, testKeys(), ReadMix).Schedule(50, 4*time.Second)
	b := NewGenerator(7, testKeys(), ReadMix).Schedule(50, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := NewGenerator(8, testKeys(), ReadMix).Schedule(50, 4*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 200 {
		t.Fatalf("got %d requests, want 200", len(a))
	}
	seen := map[string]int{}
	for i, r := range a {
		if want := time.Duration(i) * 20 * time.Millisecond; r.Due != want {
			t.Fatalf("request %d due %v, want %v", i, r.Due, want)
		}
		seen[r.Path]++
		if r.Cond != (seen[r.Path]%2 == 0) {
			t.Fatalf("request %d to %s: Cond %v on occurrence %d", i, r.Path, r.Cond, seen[r.Path])
		}
	}
	if len(seen) < 8 {
		t.Fatalf("only %d distinct URLs in 200 requests", len(seen))
	}
}

func TestScheduleMix(t *testing.T) {
	var n [numClasses]int
	for _, r := range NewGenerator(1, testKeys(), ReadMix).Schedule(1000, 20*time.Second) {
		n[r.Class]++
	}
	total := 20000.0
	for c, want := range map[Class]float64{ClassStatic: 0.50, ClassMesh: 0.05, ClassAS: 0.15, ClassIXP: 0.15, ClassLink: 0.15} {
		if got := float64(n[c]) / total; got < want-0.02 || got > want+0.02 {
			t.Errorf("class %s share %.3f, want %.2f", c, got, want)
		}
	}
	for _, r := range NewGenerator(1, nil, PollMix).Schedule(100, 10*time.Second) {
		if r.Path != "/v1/epoch" && r.Path != "/v1/stats" {
			t.Fatalf("poll mix sent %s", r.Path)
		}
	}
}

func TestTailRule(t *testing.T) {
	var d Dist
	for i := 100; i >= 1; i-- {
		d = append(d, float64(i))
	}
	if v, p := d.Tail(); v != 90 || p != 90 {
		t.Fatalf("n=100: tail %v at p%v, want 90 at p90", v, p)
	}
	if d.Median() != 50 {
		t.Fatalf("median %v, want 50", d.Median())
	}
	d = d[:25] // 100..76: p75 would have 6.25 samples beyond it
	if v, p := d.Tail(); v != 88 || p != 50 {
		t.Fatalf("n=25: tail %v at p%v, want 88 at p50", v, p)
	}
	var big Dist
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if v, p := big.Tail(); v != 990 || p != 99 {
		t.Fatalf("n=1000: tail %v at p%v, want 990 at p99", v, p)
	}
	// One piece in three holding a stall leaves the split tail alone.
	var stalled Dist
	for i := 0; i < 300; i++ {
		v := float64(1 + i%10)
		if i >= 200 && i < 250 {
			v = 500
		}
		stalled = append(stalled, v)
	}
	if v, p := stalled.SplitTail(3); v != 9 || p != 90 {
		t.Fatalf("split tail %v at p%v, want 9 at p90", v, p)
	}
	if v, _ := stalled.Tail(); v != 500 {
		t.Fatalf("pooled tail %v, want the stall's 500", v)
	}
	small := Dist{3, 1, 2}
	if v, p := small.Tail(); v != 3 || p != 100 {
		t.Fatalf("n=3: tail %v at p%v, want the maximum 3 at p100", v, p)
	}
	if v, p := (Dist{}).Tail(); v != 0 || p != 0 {
		t.Fatalf("empty: tail %v at p%v", v, p)
	}
}

func TestGrowing(t *testing.T) {
	flat := make([]int, 300)
	for i := range flat {
		flat[i] = i % 3 // hovers below the connections' queue
	}
	if Growing(flat, 2) {
		t.Fatal("a steady backlog counted as growing")
	}
	ramp := make([]int, 300)
	for i := range ramp {
		ramp[i] = i / 3 // offered rate 1.5 times capacity
	}
	if !Growing(ramp, 2) {
		t.Fatal("a linearly growing backlog not detected")
	}
	if Growing([]int{0, 50}, 2) {
		t.Fatal("two samples are too few to call a trend")
	}
	// A stall late in the run queues requests that then drain: a bump,
	// not growth.
	bump := make([]int, 300)
	for i := 220; i < 260; i++ {
		bump[i] = 60 - (i-220)*3/2
	}
	if Growing(bump, 2) {
		t.Fatal("a stall that drains counted as growing")
	}
}

type okChecker struct{}

func (okChecker) Check(*Conn, Req, *http.Response, []byte) error { return nil }

// TestLatenessFromDue stalls the first request: with one connection
// the requests due during the stall are sent late, and their latency
// counts from when they were due, not from when they were sent.
func TestLatenessFromDue(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	l := &Load{Base: srv.URL, Conns: NewConns(1, 5*time.Second), Check: okChecker{}, Drain: 5 * time.Second}
	defer CloseIdle(l.Conns)
	sched := NewGenerator(1, nil, PollMix).Schedule(100, 500*time.Millisecond)
	st := l.Run(context.Background(), sched)
	if st.Attempted != len(sched) || st.Failed != 0 || st.Unsent != 0 {
		t.Fatalf("attempted %d failed %d unsent %d of %d", st.Attempted, st.Failed, st.Unsent, len(sched))
	}
	// Request 1 was due at 10ms and could only go out after the 300ms
	// stall: its latency from due is at least 280ms.
	if got := st.Lat[1]; got < 280 {
		t.Fatalf("request queued behind the stall has latency %.1f ms, want >= 280", got)
	}
	// The dispatcher itself kept its schedule.
	if late := st.Late.Quantile(0.99); late > 50 {
		t.Fatalf("generator late p99 %.1f ms", late)
	}
	// The stall queued many requests behind one connection.
	if st.MaxBacklog() < 10 {
		t.Fatalf("backlog max %d, want the stall to queue requests", st.MaxBacklog())
	}
}

func TestVerdict(t *testing.T) {
	st := &RunStats{Attempted: 100, Reasons: map[string]int{}}
	for i := 0; i < 100; i++ {
		st.Lat = append(st.Lat, 5)
		st.Late = append(st.Late, 0.1)
		st.Backlog = append(st.Backlog, 0)
	}
	if ok, why := st.Verdict(100, 20, 2, 1); !ok {
		t.Fatalf("healthy rung rejected: %s", why)
	}
	st.Failed = 1
	if ok, _ := st.Verdict(100, 20, 2, 1); ok {
		t.Fatal("a rung with a failure met the service level")
	}
	st.Failed = 0
	for i := 80; i < 100; i++ {
		st.Lat[i] = 500
	}
	if ok, _ := st.Verdict(100, 20, 2, 1); ok {
		t.Fatal("a rung whose tail is over the limit met the service level")
	}
}

func response(path, etag, epoch, inm string, status int) *http.Response {
	u, _ := url.Parse("http://gw" + path)
	req := &http.Request{URL: u, Header: http.Header{}}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	h := http.Header{}
	h.Set("ETag", etag)
	h.Set("X-MLP-Epoch", epoch)
	return &http.Response{StatusCode: status, Header: h, Request: req}
}

func TestGatewayChecks(t *testing.T) {
	chk := NewGatewayChecker()
	c := &Conn{}
	fp := "00000000000000aa"
	mesh := `{"epoch":3,"fingerprint":"` + fp + `","links":[{"a":1,"b":2,"ixps":["X"]},{"a":2,"b":3,"ixps":["X"]}]}`
	check := func(path, etag, epoch, body string) error {
		return chk.Check(c, Req{Path: path}, response(path, etag, epoch, "", 200), []byte(body))
	}
	tag := `"e3-` + fp + `"`
	if err := check("/v1/mesh", tag, "3", mesh); err != nil {
		t.Fatalf("good mesh: %v", err)
	}
	if err := check("/v1/link?a=2&b=1", tag, "3", `{"epoch":3,"a":1,"b":2,"present":true,"ixps":["X"]}`); err != nil {
		t.Fatalf("present link: %v", err)
	}
	if err := check("/v1/link?a=1&b=3", tag, "3", `{"epoch":3,"a":1,"b":3,"present":true,"ixps":["X"]}`); err == nil || !strings.HasPrefix(err.Error(), "link-present") {
		t.Fatalf("a link absent from the mesh reported present: %v", err)
	}
	if err := check("/v1/as/2", tag, "3", `{"epoch":3,"asn":2,"links":[{"a":1,"b":2,"ixps":["X"]}]}`); err == nil {
		t.Fatal("an AS answer missing one of its links passed")
	}
	if err := check("/v1/epoch", tag, "3", `{"epoch":3,"fingerprint":"`+fp+`","window_start":"2013-05-01T02:00:00Z","links":3}`); err == nil {
		t.Fatal("an epoch link count that disagrees with the mesh passed")
	}
	if err := check("/v1/stats", tag, "4", `{"epoch":3,"fingerprint":"`+fp+`"}`); err == nil {
		t.Fatal("an ETag epoch that disagrees with X-MLP-Epoch passed")
	}
	if err := check("/v1/stats", `"e4-`+fp+`"`, "4", `{"epoch":3,"fingerprint":"`+fp+`"}`); err == nil {
		t.Fatal("a body epoch that disagrees with the tag passed")
	}
	older := `"e2-` + fp + `"`
	if err := check("/v1/stats", older, "2", `{"epoch":2,"fingerprint":"`+fp+`","stats":{"mesh_links":2}}`); err == nil || err.Error() != "stale-read" {
		t.Fatalf("an epoch going backwards on a connection: %v", err)
	}
	if err := chk.Check(&Conn{}, Req{Path: "/v1/stats"}, response("/v1/stats", tag, "3", `"e1-`+fp+`"`, 304), nil); err == nil {
		t.Fatal("a 304 under a tag other than the one revalidated passed")
	}

	// A window serving a different fingerprint on a later cycle fails.
	other := "00000000000000bb"
	w0 := `"window_start":"2013-05-01T02:00:00Z"`
	c2 := &Conn{}
	if err := chk.Check(c2, Req{Path: "/v1/epoch"}, response("/v1/epoch", `"e9-`+other+`"`, "9", "", 200),
		[]byte(`{"epoch":9,"fingerprint":"`+other+`",`+w0+`,"links":2}`)); err == nil || err.Error() != "window-fingerprint-changed" {
		t.Fatalf("window fingerprint change: %v", err)
	}
}

func TestGatewayChecksWaitForMesh(t *testing.T) {
	chk := NewGatewayChecker()
	fp := "00000000000000cc"
	tag := `"e1-` + fp + `"`
	c := &Conn{}
	link := `{"epoch":1,"a":1,"b":2,"present":false,"ixps":[]}`
	if err := chk.Check(c, Req{Path: "/v1/link?a=1&b=2"}, response("/v1/link?a=1&b=2", tag, "1", "", 200), []byte(link)); err != nil {
		t.Fatalf("a check waiting for its mesh failed early: %v", err)
	}
	mesh := `{"epoch":1,"fingerprint":"` + fp + `","links":[{"a":1,"b":2,"ixps":["X"]}]}`
	if err := chk.checkMesh(1, fp, []byte(mesh)); err != nil {
		t.Fatal(err)
	}
	failed, unverified := chk.Finish()
	if failed["link-present"] != 1 || unverified != 0 {
		t.Fatalf("deferred failures %v unverified %d, want one link-present failure", failed, unverified)
	}
}

// A closed loop keeps one request outstanding per connection: against
// a server answering in 10ms, two connections complete about 200
// requests per second, every one sent and checked.
func TestRunClosed(t *testing.T) {
	var inflight, most atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(10 * time.Millisecond)
		inflight.Add(-1)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	l := &Load{Base: srv.URL, Conns: NewConns(2, 5*time.Second), Check: okChecker{}}
	defer CloseIdle(l.Conns)
	st, rates := l.RunClosed(context.Background(), NewGenerator(1, nil, PollMix), 500*time.Millisecond, 5)
	if st.Failed != 0 || st.Attempted != st.Lat.Len() {
		t.Fatalf("attempted %d failed %d latencies %d", st.Attempted, st.Failed, st.Lat.Len())
	}
	if most.Load() != 2 {
		t.Fatalf("at most %d requests in flight, want 2", most.Load())
	}
	if len(rates) != 5 {
		t.Fatalf("%d slice rates, want 5", len(rates))
	}
	for i, qps := range rates {
		if qps < 100 || qps > 210 {
			t.Fatalf("slice %d ran %.0f req/s against a 10ms server on 2 connections", i, qps)
		}
	}
	if p50 := st.Lat.Median(); p50 < 10 || p50 > 50 {
		t.Fatalf("latency p50 %.1f ms, want it from the send, about 10ms", p50)
	}
}

func TestSplitMedian(t *testing.T) {
	// A stall filling one third moves the pooled median but not the
	// median of the thirds' medians.
	var d Dist
	for i := 0; i < 300; i++ {
		v := 1.0
		if i >= 100 && i < 200 {
			v = 50
		}
		d = append(d, v)
	}
	if got := d.SplitMedian(3); got != 1 {
		t.Fatalf("SplitMedian = %v, want 1", got)
	}
	d = append(d[:0], 1, 2, 3, 4, 5, 6)
	if got := d.SplitMedian(2); got != 3.5 {
		t.Fatalf("SplitMedian of halves = %v, want 3.5", got)
	}
}

// slowChecker takes 30ms over each check and fails the /v1/stats ones.
type slowChecker struct{}

func (slowChecker) Check(_ *Conn, r Req, _ *http.Response, _ []byte) error {
	time.Sleep(30 * time.Millisecond)
	if r.Path == "/v1/stats" {
		return errors.New("slow: stats")
	}
	return nil
}

// Output checks run off the send path: a 30ms check adds nothing to the
// latency of the requests behind it, and every failed check is still
// counted once the run ends.
func TestChecksOffSendPath(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	l := &Load{Base: srv.URL, Conns: NewConns(1, 5*time.Second), Check: slowChecker{}, Drain: 5 * time.Second}
	defer CloseIdle(l.Conns)
	sched := NewGenerator(1, nil, PollMix).Schedule(100, 500*time.Millisecond)
	stats := 0
	for _, r := range sched {
		if r.Path == "/v1/stats" {
			stats++
		}
	}
	st := l.Run(context.Background(), sched)
	if st.Attempted != len(sched) || st.Failed != stats || st.Reasons["check:slow"] != stats {
		t.Fatalf("attempted %d failed %d reasons %v; %d requests, %d to /v1/stats", st.Attempted, st.Failed, st.Reasons, len(sched), stats)
	}
	if tail := st.Lat.Max(); tail > 25 {
		t.Fatalf("slowest request took %.1f ms behind 30ms checks", tail)
	}
}
