package core

import (
	"context"
	"fmt"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/topology"
)

// WindowOptions parameterizes RunPassiveWindows.
type WindowOptions struct {
	// Start is the first window's opening time; updates before it are
	// folded into the base RIB state without emitting a window.
	Start time.Time
	// Window is each inference window's duration.
	Window time.Duration
	// Count is the number of windows to emit. Windows past the last
	// update still run (over the then-static live table).
	Count int
	// Workers caps the worker pool the incremental miner fans out on at
	// window close (sharded delta flush, per-IXP mesh re-checks, the
	// relation oracle's Commit, snapshotting). 0 means GOMAXPROCS; 1
	// forces the sequential path. Results are bit-identical for any
	// value.
	Workers int
	// Stream, when non-nil, receives each window at close instead of
	// accumulating it in PassiveWindowsResult.Windows — the long-horizon
	// replay mode. A streamed window carries the maintained counters
	// (MeshLinks, Stability, CloseTime, ...) but, unless Materialize is
	// set, no materialized Result: the mesh is not snapshotted, so a
	// close allocates O(churn), not O(mesh). The pointer is only valid
	// for the duration of the callback.
	Stream func(*PassiveWindow)
	// Materialize forces each streamed window to carry its snapshotted
	// Result — the serving tier's epoch producer consumes windows
	// through Stream but publishes the materialized mesh. No effect when
	// Stream is nil (results are always materialized then). The Result
	// is freshly built per close and safe to retain beyond the callback.
	Materialize bool
	// Ctx, when non-nil, cancels the replay: the run returns ctx.Err()
	// at the next window-close boundary after cancellation. Committed
	// windows already handed to Stream stay valid.
	Ctx context.Context

	// shadow, when set (tests only), receives the miner, the closed
	// window and the live route table after every window close, for
	// full-InferLinks and re-mine oracle checks.
	shadow func(*windowMiner, *PassiveWindow, map[liveKey]liveRoute)
}

// PassiveWindow is one window's inference outcome over the routes live
// at the window's close.
type PassiveWindow struct {
	Start, End time.Time

	// Announced / Withdrawn count prefix-level events inside the
	// window; WithdrawnOnlyUpdates the UPDATEs carrying only
	// withdrawals.
	Announced, Withdrawn int
	WithdrawnOnlyUpdates int

	// LiveRoutes is the (feeder, prefix) table size at window close.
	LiveRoutes int
	// Dropped tallies hygiene-filtered live routes.
	Dropped DropStats
	// RelLinks and P2PRels describe the window's AS-relationship
	// inference: total inferred links and the p2p-labelled subset, both
	// delta-maintained counters.
	RelLinks, P2PRels int
	// MeshLinks is the distinct inferred ML link count — equal to
	// Result.TotalLinks(), but available even when Result is not
	// materialized (streaming mode).
	MeshLinks int
	// Stability is the Jaccard similarity between this window's and the
	// previous window's link sets (1 for the first window).
	Stability float64
	// CloseTime is the wall-clock cost of deriving this window at close.
	CloseTime time.Duration
	// Result is the multilateral-peering inference over the window's
	// live view. Nil in streaming mode unless WindowOptions.Materialize
	// is set; use the maintained counters instead.
	Result *Result
}

// Links returns the window's inferred ML link set.
func (w *PassiveWindow) Links() map[topology.LinkKey][]string { return w.Result.Links }

// PassiveWindowsResult is the windowed passive run: one inference per
// time window plus the stability of the inferred mesh across windows.
type PassiveWindowsResult struct {
	// Windows holds each window's outcome; empty in streaming mode
	// (WindowOptions.Stream consumed them at close).
	Windows []PassiveWindow
	// Stability[i] is the Jaccard similarity between window i's and
	// window i-1's inferred link sets (Stability[0] == 1). Populated in
	// streaming mode too: it is O(1) per window.
	Stability []float64
}

// liveKey identifies one route slot in a collector's view.
type liveKey struct {
	peer   bgp.ASN
	prefix bgp.Prefix
}

// liveRoute is the route occupying a slot. ckey is the canonical
// encoding of comms, computed once per UPDATE so grouped mining never
// re-encodes on withdrawal.
type liveRoute struct {
	path  paths.ID
	comms bgp.Communities
	ckey  string
}

// RunPassiveWindows is the dynamic counterpart of RunPassive: it replays
// an announce+withdraw update trace over the base RIB dumps, maintaining
// each collector peer's live route table, and re-runs the §4.2 inference
// at every window close over the routes alive at that instant. A
// withdrawal ends its route's lifetime, so transient flaps never leak
// into the inferred mesh — the hygiene property §5 approximates with its
// update-only filter in snapshot mode. Updates must be ordered as read
// from the archive; equal timestamps keep file order.
//
// Every event applies as a +/- delta to the refcounted observation
// store and the incremental relation oracle, so a window close costs
// O(changes), not O(live table). The equivalence tests pin each window
// byte-identical to a from-scratch re-mine of the live table.
func RunPassiveWindows(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary, opts WindowOptions) (*PassiveWindowsResult, error) {
	if opts.Window <= 0 {
		return nil, fmt.Errorf("core: non-positive window %v", opts.Window)
	}
	if opts.Count <= 0 {
		return nil, fmt.Errorf("core: non-positive window count %d", opts.Count)
	}

	store := paths.NewStore()
	live := make(map[liveKey]liveRoute)
	miner := newWindowMiner(dict, store, opts.Workers)

	// intern resolves an announced (path, communities) to its canonical
	// shape: probe the shape map with a scratch key first (string(ckb)
	// map access compiles allocation-free) and only Clone the community
	// set — and materialize the key — on first sight of the shape.
	var ckb []byte
	intern := func(id paths.ID, comms bgp.Communities) liveRoute {
		ckb = appendCommsKey(ckb[:0], comms)
		if g, ok := miner.groups[id][string(ckb)]; ok {
			return liveRoute{path: id, comms: g.comms, ckey: g.ckey}
		}
		return liveRoute{path: id, comms: comms.Clone(), ckey: string(ckb)}
	}

	set := func(k liveKey, r liveRoute) {
		if old, ok := live[k]; ok {
			miner.apply(miner.group(old.path, old.comms, old.ckey), k.prefix, -1)
		}
		miner.apply(miner.group(r.path, r.comms, r.ckey), k.prefix, 1)
		live[k] = r
	}
	del := func(k liveKey) {
		old, ok := live[k]
		if !ok {
			return
		}
		miner.apply(miner.group(old.path, old.comms, old.ckey), k.prefix, -1)
		delete(live, k)
	}

	// Base state: the stable RIB dumps.
	for _, d := range dumps {
		if d == nil || d.Index == nil {
			continue
		}
		for _, rib := range d.RIBs {
			for _, e := range rib.Entries {
				if e.Attrs == nil {
					continue
				}
				peer := d.Index.Peers[e.PeerIndex].ASN
				id := store.InternASPath(e.Attrs.ASPath)
				set(liveKey{peer, rib.Prefix}, intern(id, e.Attrs.Communities))
			}
		}
	}

	res := &PassiveWindowsResult{}
	cur := PassiveWindow{Start: opts.Start, End: opts.Start.Add(opts.Window)}

	winIdx := 0
	closeWindow := func() {
		//mlplint:clock close-duration telemetry only; never feeds inference or window boundaries
		t0 := time.Now()
		cur.LiveRoutes = len(live)
		miner.closeWindow(&cur, opts.Stream == nil || opts.Materialize || opts.shadow != nil)
		if winIdx == 0 {
			cur.Stability = 1
		}
		if opts.shadow != nil {
			opts.shadow(miner, &cur, live)
		}
		cur.CloseTime = time.Since(t0)
		res.Stability = append(res.Stability, cur.Stability)
		if opts.Stream != nil {
			opts.Stream(&cur)
		} else {
			res.Windows = append(res.Windows, cur)
		}
		winIdx++
		cur = PassiveWindow{Start: cur.End, End: cur.End.Add(opts.Window)}
	}
	apply := func(u *mrt.BGP4MPMessage, count bool) {
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			return
		}
		for _, p := range upd.Withdrawn {
			del(liveKey{u.PeerASN, p})
		}
		if count {
			cur.Withdrawn += len(upd.Withdrawn)
		}
		if upd.Attrs == nil || len(upd.NLRI) == 0 {
			if count && len(upd.Withdrawn) > 0 {
				cur.WithdrawnOnlyUpdates++
			}
			return
		}
		id := store.InternASPath(upd.Attrs.ASPath)
		r := intern(id, upd.Attrs.Communities)
		for _, p := range upd.NLRI {
			set(liveKey{u.PeerASN, p}, r)
		}
		if count {
			cur.Announced += len(upd.NLRI)
		}
	}

	// cancelled polls the optional replay context; cancellation is
	// observed at window-close boundaries, the unit of committed work.
	cancelled := func() error {
		if opts.Ctx == nil {
			return nil
		}
		return opts.Ctx.Err()
	}
	if err := cancelled(); err != nil {
		return nil, err
	}

	for _, u := range updates {
		// Pre-window updates adjust the base table without counting.
		if u.Timestamp.Before(opts.Start) {
			apply(u, false)
			continue
		}
		for winIdx < opts.Count && !u.Timestamp.Before(cur.End) {
			if err := cancelled(); err != nil {
				return nil, err
			}
			closeWindow()
		}
		if winIdx >= opts.Count {
			break
		}
		apply(u, true)
	}
	for winIdx < opts.Count {
		if err := cancelled(); err != nil {
			return nil, err
		}
		closeWindow()
	}
	return res, nil
}
