package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
)

func upd(ts time.Time, peer bgp.ASN, path []bgp.ASN, cs bgp.Communities, nlri, withdrawn []bgp.Prefix) *mrt.BGP4MPMessage {
	u := &bgp.Update{Withdrawn: withdrawn, NLRI: nlri}
	if len(nlri) > 0 {
		u.Attrs = &bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      bgp.NewASPath(path...),
			Communities: cs,
		}
	}
	return &mrt.BGP4MPMessage{Timestamp: ts, PeerASN: peer, Message: u, AS4: true}
}

// TestRunPassiveCountsWithdrawals table-tests the fixed withdrawal
// handling: withdrawn-only updates and mixed NLRI+withdrawn updates are
// tallied instead of being silently ignored.
func TestRunPassiveCountsWithdrawals(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")

	cases := []struct {
		name              string
		updates           []*mrt.BGP4MPMessage
		wantWithdrawals   int
		wantWithdrawnOnly int
	}{
		{
			name: "announce-only",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, []bgp.ASN{100, 200}, nil, []bgp.Prefix{p1}, nil),
			},
		},
		{
			name: "withdrawn-only",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, nil, nil, nil, []bgp.Prefix{p1, p2}),
			},
			wantWithdrawals:   2,
			wantWithdrawnOnly: 1,
		},
		{
			name: "mixed nlri and withdrawn",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, []bgp.ASN{100, 200}, nil, []bgp.Prefix{p1}, []bgp.Prefix{p2, p3}),
			},
			wantWithdrawals: 2,
		},
		{
			name: "flap sequence",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, nil, nil, nil, []bgp.Prefix{p1}),
				upd(t0.Add(time.Second), 100, []bgp.ASN{100, 200}, nil, []bgp.Prefix{p1}, nil),
				upd(t0.Add(2*time.Second), 100, nil, nil, nil, []bgp.Prefix{p1}),
			},
			wantWithdrawals:   2,
			wantWithdrawnOnly: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunPassive(nil, tc.updates, d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Withdrawals != tc.wantWithdrawals {
				t.Fatalf("Withdrawals = %d, want %d", res.Withdrawals, tc.wantWithdrawals)
			}
			if res.WithdrawnOnlyUpdates != tc.wantWithdrawnOnly {
				t.Fatalf("WithdrawnOnlyUpdates = %d, want %d", res.WithdrawnOnlyUpdates, tc.wantWithdrawnOnly)
			}
		})
	}
}

// TestRunPassiveWindows drives the windowed runner over a synthetic
// announce/withdraw trace: a withdrawal must end the route's lifetime,
// removing its setter's coverage (and the inferred link) from later
// windows, and a re-announcement must restore it.
func TestRunPassiveWindows(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	pBogon := bgp.MustPrefix("10.9.0.0/24")
	all := comms(t, "6695:6695")

	updates := []*mrt.BGP4MPMessage{
		// Base state, before the first window opens: two DE-CIX setters
		// (200 and 300) with open policies seen at collector peer 100,
		// plus a bogon-path route that hygiene must drop.
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, bgp.ASTrans, 300}, nil, []bgp.Prefix{pBogon}, nil),
		// Window 1: the route through setter 300 is withdrawn.
		upd(t0.Add(w+time.Minute), 100, nil, nil, nil, []bgp.Prefix{p2}),
		// Window 2: it comes back.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
	}

	res, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(res.Windows))
	}

	w0, w1, w2 := &res.Windows[0], &res.Windows[1], &res.Windows[2]
	if w0.LiveRoutes != 3 {
		t.Fatalf("window 0 live = %d, want 3", w0.LiveRoutes)
	}
	if w0.Dropped.Bogon == 0 {
		t.Fatal("window 0: bogon route not dropped")
	}
	if got := w0.Result.TotalLinks(); got != 1 {
		t.Fatalf("window 0 links = %d, want 1 (200--300)", got)
	}

	if w1.Withdrawn != 1 || w1.WithdrawnOnlyUpdates != 1 {
		t.Fatalf("window 1 withdrawals = %d/%d, want 1/1", w1.Withdrawn, w1.WithdrawnOnlyUpdates)
	}
	if w1.LiveRoutes != 2 {
		t.Fatalf("window 1 live = %d, want 2", w1.LiveRoutes)
	}
	if got := w1.Result.TotalLinks(); got != 0 {
		t.Fatalf("window 1 links = %d, want 0 after withdrawal", got)
	}

	if w2.Announced != 1 {
		t.Fatalf("window 2 announced = %d, want 1", w2.Announced)
	}
	if got := w2.Result.TotalLinks(); got != 1 {
		t.Fatalf("window 2 links = %d, want 1 after re-announcement", got)
	}

	// Stability: full agreement in window 0 by convention, total churn
	// afterwards (1 link ↔ 0 links).
	if res.Stability[0] != 1 || res.Stability[1] != 0 || res.Stability[2] != 0 {
		t.Fatalf("stability = %v, want [1 0 0]", res.Stability)
	}
}

// flapTrace builds a trace exercising base-RIB state, mid-window
// flaps, setter withdrawal/restore, multi-participant paths (the
// rels-dependent §4.2 case 3) and bogon hygiene, across count windows.
func flapTrace(t *testing.T, t0 time.Time, w time.Duration) []*mrt.BGP4MPMessage {
	t.Helper()
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")
	p4 := bgp.MustPrefix("10.4.0.0/24")
	pBogon := bgp.MustPrefix("10.9.0.0/24")
	all := comms(t, "6695:6695")

	return []*mrt.BGP4MPMessage{
		// Base state before the first window: three DE-CIX setters and a
		// bogon-path route that hygiene must drop.
		upd(t0.Add(-3*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		// Case-3 path: three DE-CIX members (100, 200, 8359); the setter
		// depends on the window's relationship inference.
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, bgp.ASTrans, 300}, nil, []bgp.Prefix{pBogon}, nil),

		// Window 0: a withdraw-then-reannounce flap of p1 inside the
		// window — the mesh at window close must not notice.
		upd(t0.Add(time.Minute), 100, nil, nil, nil, []bgp.Prefix{p1}),
		upd(t0.Add(2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),

		// Window 1: setter 300 withdrawn; an unrelated route replaces a
		// slot (path change for the same (peer, prefix)).
		upd(t0.Add(w+time.Minute), 100, nil, nil, nil, []bgp.Prefix{p2}),
		upd(t0.Add(w+2*time.Minute), 100, []bgp.ASN{100, 8359, 300}, nil, []bgp.Prefix{p3}, nil),

		// Window 2: 300 re-announces (RS rejoin after a window away),
		// and the case-3 path is fully withdrawn — its shape must be
		// compacted out of the re-pinpoint list at this window's close.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(2*w+2*time.Minute), 100, nil, nil, nil, []bgp.Prefix{p4}),

		// Window 3: the case-3 shape returns after a dead window: it
		// must re-register for re-pinpointing. Setter 200 also edits its
		// filter (excluding 300), killing the 200--300 link while both
		// stay covered.
		upd(t0.Add(3*w+time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),
		upd(t0.Add(3*w+2*time.Minute), 100, []bgp.ASN{100, 200}, comms(t, "6695:6695 0:300"), []bgp.Prefix{p1}, nil),
	}
}

// TestWindowedModesEquivalent pins the miner to its oracle at test
// scale: the incremental windowed path produces byte-identical
// per-window ML meshes — and identical counters — to a from-scratch
// re-mine of each window's live table.
func TestWindowedModesEquivalent(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)

	inc, rem, err := remineWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertWindowsMatch(t, "oracle", inc, rem)
	// The trace must actually exercise the interesting machinery.
	if inc.Windows[0].Dropped.Bogon == 0 {
		t.Fatal("no bogon was dropped; trace too weak")
	}
	if inc.Windows[0].RelLinks == 0 {
		t.Fatal("no relationship links inferred; trace too weak")
	}
}

// TestWindowFlapRestoresObservationState drives a withdraw-then-
// reannounce flap through the miner inside a single window: every
// refcount — observation store, group refs, live-path counts, drop
// tallies — must return exactly to the pre-flap state.
func TestWindowFlapRestoresObservationState(t *testing.T) {
	d := testDict(t)
	store := paths.NewStore()
	m := newWindowMiner(d, store, 1)

	all := comms(t, "6695:6695")
	ck := commsKey(all)
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	id1 := store.Intern([]bgp.ASN{100, 200})
	id2 := store.Intern([]bgp.ASN{100, 300})

	m.apply(m.group(id1, all, ck), p1, 1)
	m.apply(m.group(id2, all, ck), p2, 1)

	snapshot := func() string {
		// The miner defers observation deltas until close; flush so the
		// snapshot sees the settled store.
		m.flushObs()
		return fmt.Sprintf("obs=%#v pathLive=%v drops=%d/%d refs=%d/%d",
			m.obs.shards[obsShardOf(200)].byIXP["DE-CIX"].setters[200].prefixes[p1],
			m.pathLive, m.dropBogon, m.dropCycle,
			m.group(id1, all, ck).refs, m.group(id2, all, ck).refs)
	}
	before := snapshot()
	var w1 PassiveWindow
	m.closeWindow(&w1, true)
	if w1.Result.TotalLinks() != 1 {
		t.Fatalf("pre-flap links = %d, want 1", w1.Result.TotalLinks())
	}

	// Flap: withdraw and re-announce the same routes within the window.
	m.apply(m.group(id1, all, ck), p1, -1)
	m.apply(m.group(id2, all, ck), p2, -1)
	m.apply(m.group(id1, all, ck), p1, 1)
	m.apply(m.group(id2, all, ck), p2, 1)

	if got := snapshot(); got != before {
		t.Fatalf("flap did not restore miner state:\nbefore %s\nafter  %s", before, got)
	}
	var w2 PassiveWindow
	m.closeWindow(&w2, true)
	var a, b []byte
	if a, b = w1.Result.AppendMesh(nil), w2.Result.AppendMesh(nil); !bytes.Equal(a, b) {
		t.Fatal("flap changed the inferred mesh")
	}

	// Full withdrawal empties the store's live view.
	m.apply(m.group(id1, all, ck), p1, -1)
	m.apply(m.group(id2, all, ck), p2, -1)
	var w3 PassiveWindow
	m.closeWindow(&w3, true)
	if w3.Result.TotalLinks() != 0 || len(m.obs.Setters("DE-CIX")) != 0 {
		t.Fatalf("withdrawn world still covered: %d links, setters %v",
			w3.Result.TotalLinks(), m.obs.Setters("DE-CIX"))
	}
}

// TestWindowedRSLeaveRejoin models an RS leave as the member's
// announcements losing their RS communities for a window, then
// regaining them: coverage (and the member's links) must vanish for
// exactly that window, in the miner and in the re-mine oracle.
func TestWindowedRSLeaveRejoin(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	all := comms(t, "6695:6695")

	updates := []*mrt.BGP4MPMessage{
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		// Window 1: 300 leaves the RS — same route, no RS communities.
		upd(t0.Add(w+time.Minute), 100, []bgp.ASN{100, 300}, nil, []bgp.Prefix{p2}, nil),
		// Window 2: 300 rejoins with its old policy.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
	}

	inc, rem, err := remineWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		res  *PassiveWindowsResult
	}{{"incremental", inc}, {"oracle", rem}} {
		name, res := run.name, run.res
		links := []int{res.Windows[0].Result.TotalLinks(), res.Windows[1].Result.TotalLinks(), res.Windows[2].Result.TotalLinks()}
		if links[0] != 1 || links[1] != 0 || links[2] != 1 {
			t.Fatalf("%s: links per window = %v, want [1 0 1]", name, links)
		}
		// The live table never shrank: the member kept announcing, only
		// its RS coverage went away.
		for i, pw := range res.Windows {
			if pw.LiveRoutes != 2 {
				t.Fatalf("%s: window %d live = %d, want 2", name, i, pw.LiveRoutes)
			}
		}
	}
}

// TestWindowedShadowInferLinks runs the per-window shadow checks across
// a mixed announce/withdraw/RS-leave/filter-edit schedule: at every
// close, the delta-maintained mesh snapshot must be byte-identical to
// the re-mine oracle over the live table and to a from-scratch
// InferLinks over the same observation store, and the maintained
// counters must match both derivations.
func TestWindowedShadowInferLinks(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")
	p4 := bgp.MustPrefix("10.4.0.0/24")
	all := comms(t, "6695:6695")
	excl300 := comms(t, "6695:6695 0:300")
	msk := comms(t, "8631:8631")

	updates := []*mrt.BGP4MPMessage{
		// Base: three DE-CIX setters (one via a case-3 path) and one
		// MSK-IX setter, so multiple meshes are maintained at once.
		upd(t0.Add(-4*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-3*time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 400}, msk, []bgp.Prefix{p3}, nil),

		// Window 0: in-window flap (must be invisible at close).
		upd(t0.Add(time.Minute), 100, nil, nil, nil, []bgp.Prefix{p1}),
		upd(t0.Add(2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),

		// Window 1: filter edit — 200 now excludes 300.
		upd(t0.Add(w+time.Minute), 100, []bgp.ASN{100, 200}, excl300, []bgp.Prefix{p1}, nil),

		// Window 2: RS leave — 300 keeps announcing without communities;
		// the case-3 path is withdrawn.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, nil, []bgp.Prefix{p2}, nil),
		upd(t0.Add(2*w+2*time.Minute), 100, nil, nil, nil, []bgp.Prefix{p4}),

		// Window 3: 300 rejoins, 200's filter edit reverts, the case-3
		// shape returns.
		upd(t0.Add(3*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(3*w+2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(3*w+3*time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),

		// Window 4: the MSK-IX setter withdraws everything.
		upd(t0.Add(4*w+time.Minute), 100, nil, nil, nil, []bgp.Prefix{p3}),
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			shadowCalls := 0
			var meshLinks []int
			var a, b []byte
			opts := WindowOptions{Start: t0, Window: w, Count: 5, Workers: workers}
			opts.shadow = func(m *windowMiner, pw *PassiveWindow, live map[liveKey]liveRoute) {
				shadowCalls++
				var ow PassiveWindow
				remineLiveTable(m.store, live, m.dict, &ow)
				a = pw.Result.AppendMesh(a[:0])
				b = ow.Result.AppendMesh(b[:0])
				if !bytes.Equal(a, b) || pw.MeshLinks != ow.MeshLinks || pw.RelLinks != ow.RelLinks ||
					pw.P2PRels != ow.P2PRels || pw.Dropped != ow.Dropped || pw.LiveRoutes != ow.LiveRoutes {
					t.Fatalf("window %d: diverges from the re-mine oracle:\nminer  %+v\noracle %+v", shadowCalls-1, pw, &ow)
				}
				full := InferLinks(m.dict, m.obs)
				a = pw.Result.AppendMesh(a[:0])
				b = full.AppendMesh(b[:0])
				if !bytes.Equal(a, b) {
					t.Fatalf("window %d: mesh snapshot diverges from full InferLinks (%d vs %d links)",
						shadowCalls-1, pw.Result.TotalLinks(), full.TotalLinks())
				}
				if pw.MeshLinks != full.TotalLinks() {
					t.Fatalf("window %d: MeshLinks %d, full inference %d", shadowCalls-1, pw.MeshLinks, full.TotalLinks())
				}
				if pw.P2PRels != countP2P(m.rel) {
					t.Fatalf("window %d: P2PRels %d, full tally %d", shadowCalls-1, pw.P2PRels, countP2P(m.rel))
				}
				meshLinks = append(meshLinks, pw.MeshLinks)
			}
			if _, err := RunPassiveWindows(nil, updates, d, opts); err != nil {
				t.Fatal(err)
			}
			if shadowCalls != 5 {
				t.Fatalf("shadow ran %d times, want 5", shadowCalls)
			}
			// The schedule must actually move the mesh: the filter edit kills
			// the 200--300 link, the revert restores it.
			if meshLinks[0] == 0 || meshLinks[1] >= meshLinks[0] || meshLinks[3] <= meshLinks[2] {
				t.Fatalf("schedule too weak to exercise the mesh: links per window %v", meshLinks)
			}
		})
	}
}

// TestWindowedWorkerSweep pins worker-count invariance: the same mixed
// announce/withdraw/RS-leave-rejoin/filter-edit schedule run with
// Workers ∈ {2, 4, 8} must produce byte-identical per-window meshes and
// identical counters and stability to the sequential Workers=1 run, and
// every run must match the re-mine oracle. It runs under -race too, so
// the sweep also exercises the close-time pool for data races.
func TestWindowedWorkerSweep(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)

	run := func(workers int) *PassiveWindowsResult {
		res, oracle, err := remineWindows(nil, updates, d, WindowOptions{
			Start: t0, Window: w, Count: 4, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertWindowsMatch(t, fmt.Sprintf("workers=%d vs oracle", workers), res, oracle)
		return res
	}
	seq := run(1)
	if seq.Windows[0].RelLinks == 0 || seq.Windows[0].Dropped.Bogon == 0 {
		t.Fatal("trace too weak to exercise the pipeline")
	}
	for _, workers := range []int{2, 4, 8} {
		assertWindowsMatch(t, fmt.Sprintf("workers=%d vs sequential", workers), run(workers), seq)
	}
}

// TestFlapStormShapeSweep pins the dead-shape sweep: a storm of distinct
// (path, comms) shapes that appear and fully withdraw must be compacted
// out of the lookup map once dead past the grace period, returning the
// shape count to its pre-storm baseline — while a shape that flaps back
// within the grace period keeps its derived state (same group identity).
func TestFlapStormShapeSweep(t *testing.T) {
	d := testDict(t)
	store := paths.NewStore()
	m := newWindowMiner(d, store, 4)

	all := comms(t, "6695:6695")
	ck := commsKey(all)
	p1 := bgp.MustPrefix("10.1.0.0/24")
	id1 := store.Intern([]bgp.ASN{100, 200})

	m.apply(m.group(id1, all, ck), p1, 1)
	var pw PassiveWindow
	m.closeWindow(&pw, true)
	baseline := m.shapeCount()

	// Storm: distinct comms shapes on the same path, announced then
	// fully withdrawn within one window.
	const stormN = 50
	for i := 0; i < stormN; i++ {
		cs := comms(t, fmt.Sprintf("6695:6695 0:%d", 1000+i))
		k := commsKey(cs)
		m.apply(m.group(id1, cs, k), p1, 1)
		m.apply(m.group(id1, cs, k), p1, -1)
	}
	if got := m.shapeCount(); got != baseline+stormN {
		t.Fatalf("mid-storm shape count = %d, want %d", got, baseline+stormN)
	}

	// One shape flaps back inside the grace period and must keep its
	// identity (derived state preserved, no re-derivation).
	flapComms := comms(t, "6695:6695 0:1000")
	flapKey := commsKey(flapComms)
	flapG := m.group(id1, flapComms, flapKey)
	m.closeWindow(&pw, true)
	m.apply(m.group(id1, flapComms, flapKey), p1, 1)
	if m.group(id1, flapComms, flapKey) != flapG {
		t.Fatal("shape flapping back within grace lost its identity")
	}
	m.apply(m.group(id1, flapComms, flapKey), p1, -1)

	// Enough idle closes for every storm shape to age past the grace.
	for i := 0; i < deadShapeGrace+2; i++ {
		m.closeWindow(&pw, true)
	}
	if got := m.shapeCount(); got != baseline {
		t.Fatalf("post-storm shape count = %d, want baseline %d", got, baseline)
	}
	if len(m.deadQueue) != 0 {
		t.Fatalf("dead queue not drained: %d entries", len(m.deadQueue))
	}
	// The swept shape is re-derived from scratch when it returns.
	if m.group(id1, flapComms, flapKey) == flapG {
		t.Fatal("swept shape kept stale identity")
	}
	// The live shape survived the storm and the sweeps.
	if pw.MeshLinks != 0 {
		t.Fatalf("mesh links = %d, want 0 (single covered setter)", pw.MeshLinks)
	}
	if m.obs.Setters("DE-CIX") == nil {
		t.Fatal("live setter lost during sweep")
	}
}

// TestWindowedStreamingMatchesRetained pins streaming mode to the
// retained run: the same per-window counters arrive through the Stream
// callback, with no materialized Result.
func TestWindowedStreamingMatchesRetained(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)

	retained, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 4})
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		live, relLinks, p2p, mesh int
		stability                 float64
	}
	var got []row
	opts := WindowOptions{Start: t0, Window: w, Count: 4, Stream: func(pw *PassiveWindow) {
		if pw.Result != nil {
			t.Fatal("streaming window materialized a Result")
		}
		got = append(got, row{pw.LiveRoutes, pw.RelLinks, pw.P2PRels, pw.MeshLinks, pw.Stability})
	}}
	res, err := RunPassiveWindows(nil, updates, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 0 {
		t.Fatalf("streaming run retained %d windows", len(res.Windows))
	}
	if len(got) != len(retained.Windows) {
		t.Fatalf("streamed %d windows, retained run has %d", len(got), len(retained.Windows))
	}
	for i, r := range got {
		pw := &retained.Windows[i]
		want := row{pw.LiveRoutes, pw.RelLinks, pw.P2PRels, pw.Result.TotalLinks(), retained.Stability[i]}
		if r != want {
			t.Fatalf("window %d: streamed %+v, retained %+v", i, r, want)
		}
		if res.Stability[i] != retained.Stability[i] {
			t.Fatalf("window %d: streamed stability %v, retained %v", i, res.Stability[i], retained.Stability[i])
		}
	}
}

// TestRunPassiveWindowsValidation rejects degenerate options.
func TestRunPassiveWindowsValidation(t *testing.T) {
	d := testDict(t)
	if _, err := RunPassiveWindows(nil, nil, d, WindowOptions{Window: 0, Count: 1}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := RunPassiveWindows(nil, nil, d, WindowOptions{Window: time.Minute, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
}

// TestStreamMaterializeAndCancel pins the serving-tier replay knobs:
// streaming with Materialize carries a freshly snapshotted Result per
// window whose fingerprint matches the retained-mode run, and a
// cancelled Ctx stops the replay at the next close boundary instead of
// committing further windows.
func TestStreamMaterializeAndCancel(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)
	opts := WindowOptions{Start: t0, Window: w, Count: 4}

	retained, err := RunPassiveWindows(nil, updates, d, opts)
	if err != nil {
		t.Fatal(err)
	}

	var fps []uint64
	var results []*Result
	sopts := opts
	sopts.Materialize = true
	sopts.Stream = func(pw *PassiveWindow) {
		if pw.Result == nil {
			t.Fatal("materialized streaming window carried no Result")
		}
		fps = append(fps, pw.Result.Fingerprint())
		results = append(results, pw.Result) // must stay valid after the callback
	}
	if _, err := RunPassiveWindows(nil, updates, d, sopts); err != nil {
		t.Fatal(err)
	}
	if len(fps) != len(retained.Windows) {
		t.Fatalf("streamed %d windows, retained run has %d", len(fps), len(retained.Windows))
	}
	for i := range fps {
		if want := retained.Windows[i].Result.Fingerprint(); fps[i] != want {
			t.Fatalf("window %d: streamed fingerprint %x, retained %x", i, fps[i], want)
		}
		// The retained pointer must still describe the window it was
		// snapshotted at, not the latest mesh.
		if got := results[i].TotalLinks(); got != retained.Windows[i].Result.TotalLinks() {
			t.Fatalf("window %d: retained snapshot drifted to %d links", i, got)
		}
	}

	// Without Materialize the streamed windows stay unsnapshotted.
	plain := opts
	plain.Stream = func(pw *PassiveWindow) {
		if pw.Result != nil {
			t.Fatal("plain streaming window materialized a Result")
		}
	}
	if _, err := RunPassiveWindows(nil, updates, d, plain); err != nil {
		t.Fatal(err)
	}

	// A pre-cancelled context commits nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	copts := opts
	copts.Ctx = ctx
	if _, err := RunPassiveWindows(nil, updates, d, copts); err != context.Canceled {
		t.Fatalf("pre-cancelled replay returned %v, want context.Canceled", err)
	}

	// Cancelling mid-replay stops at the next close boundary.
	ctx2, cancel2 := context.WithCancel(context.Background())
	seen := 0
	mopts := opts
	mopts.Ctx = ctx2
	mopts.Stream = func(pw *PassiveWindow) {
		seen++
		if seen == 2 {
			cancel2()
		}
	}
	if _, err := RunPassiveWindows(nil, updates, d, mopts); err != context.Canceled {
		t.Fatalf("mid-replay cancel returned %v, want context.Canceled", err)
	}
	if seen != 2 {
		t.Fatalf("replay committed %d windows after cancel, want 2", seen)
	}
}

// TestResultFingerprint pins the fingerprint contract: equal meshes
// fingerprint equal, different meshes differ, and the value tracks the
// canonical AppendMesh encoding.
func TestResultFingerprint(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	res, err := RunPassiveWindows(nil, flapTrace(t, t0, w), d, WindowOptions{Start: t0, Window: w, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := res.Windows[0].Result, res.Windows[1].Result
	if w0.Fingerprint() != w0.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if bytes.Equal(w0.AppendMesh(nil), w1.AppendMesh(nil)) == (w0.Fingerprint() != w1.Fingerprint()) {
		t.Fatalf("fingerprint equality diverges from mesh encoding equality")
	}
}
