package core

import (
	"bytes"
	"sort"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

// remineWindows runs RunPassiveWindows with the re-mine oracle attached
// through the shadow hook. It returns the miner's windows and, for each
// of them, the oracle's from-scratch derivation over the same live
// table. The event tallies (Announced, Withdrawn, WithdrawnOnlyUpdates)
// and the window bounds are copied from the miner's window, since the
// oracle sees only the live table at close.
func remineWindows(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary, opts WindowOptions) (inc, oracle *PassiveWindowsResult, err error) {
	oracle = &PassiveWindowsResult{}
	var prev map[topology.LinkKey][]string
	opts.shadow = func(m *windowMiner, pw *PassiveWindow, live map[liveKey]liveRoute) {
		ow := PassiveWindow{
			Start: pw.Start, End: pw.End,
			Announced: pw.Announced, Withdrawn: pw.Withdrawn,
			WithdrawnOnlyUpdates: pw.WithdrawnOnlyUpdates,
		}
		remineLiveTable(m.store, live, dict, &ow)
		ow.Stability = 1
		if len(oracle.Windows) > 0 {
			ow.Stability = jaccardLinks(prev, ow.Result.Links)
		}
		prev = ow.Result.Links
		oracle.Windows = append(oracle.Windows, ow)
		oracle.Stability = append(oracle.Stability, ow.Stability)
	}
	inc, err = RunPassiveWindows(dumps, updates, dict, opts)
	if err != nil {
		return nil, nil, err
	}
	return inc, oracle, nil
}

// remineLiveTable is the reference oracle for the windowed miner: it
// runs hygiene, batch relationship inference, community mining and link
// inference over the full live table, from scratch, in sorted table
// order. It shares only the per-shape derivation (windowMiner.group:
// hygiene flags, IXP attribution, scheme-relevant communities) and the
// order-independent observation reduction with the miner; relations,
// setters and observation counts are rebuilt each call.
func remineLiveTable(store *paths.Store, live map[liveKey]liveRoute, dict *Dictionary, w *PassiveWindow) {
	keys := make([]liveKey, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].peer != keys[j].peer {
			return keys[i].peer < keys[j].peer
		}
		return bgp.ComparePrefixes(keys[i].prefix, keys[j].prefix) < 0
	})

	// The shape deriver's own relation oracle stays empty; every
	// mineable shape is re-pinpointed against the batch inference below.
	m := newWindowMiner(dict, store, 1)
	groups := make([]*windowGroup, len(keys))
	var kept []paths.ID
	seen := make(map[paths.ID]bool)
	for i, k := range keys {
		r := live[k]
		g := m.group(r.path, r.comms, r.ckey)
		groups[i] = g
		switch {
		case g.bogon:
			w.Dropped.Bogon++
		case g.cycle:
			w.Dropped.Cycle++
		}
		if g.keptPath() && !seen[g.path] {
			seen[g.path] = true
			kept = append(kept, g.path)
		}
	}

	rels := relation.Infer(paths.NewView(store, kept))
	obs := NewDeltaObservations()
	for i, g := range groups {
		if !g.mineable() {
			continue
		}
		if setter, ok := PinpointSetter(store.Path(g.path), g.entry, rels); ok {
			obs.add(g.entry.Name, setter, keys[i].prefix, g.relKey, g.relComms, 1)
		}
	}

	w.LiveRoutes = len(live)
	w.RelLinks = rels.LinkCount()
	w.P2PRels = countP2P(rels)
	w.Result = InferLinks(dict, obs)
	w.MeshLinks = w.Result.TotalLinks()
}

// jaccardLinks computes |a∩b| / |a∪b| over link sets (1 when both are
// empty), iterating only the smaller side.
func jaccardLinks(a, b map[topology.LinkKey][]string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	inter := 0
	for k := range small {
		if _, ok := big[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// countP2P tallies p2p-labelled links through the allocation-free
// iterator.
func countP2P(rels relation.Oracle) int {
	n := 0
	rels.ForEachLink(func(_ topology.LinkKey, r relation.Rel) bool {
		if r == relation.RelP2P {
			n++
		}
		return true
	})
	return n
}

// assertWindowsMatch fails t unless got and want hold the same windows:
// byte-identical meshes and equal counters and stability.
func assertWindowsMatch(t testing.TB, label string, got, want *PassiveWindowsResult) {
	t.Helper()
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("%s: window counts diverge: %d vs %d", label, len(got.Windows), len(want.Windows))
	}
	var a, b []byte
	for i := range got.Windows {
		g, w := &got.Windows[i], &want.Windows[i]
		a = g.Result.AppendMesh(a[:0])
		b = w.Result.AppendMesh(b[:0])
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: window %d: meshes diverge (%d vs %d links)",
				label, i, g.Result.TotalLinks(), w.Result.TotalLinks())
		}
		if g.LiveRoutes != w.LiveRoutes || g.Dropped != w.Dropped ||
			g.RelLinks != w.RelLinks || g.P2PRels != w.P2PRels ||
			g.MeshLinks != w.MeshLinks || g.Stability != w.Stability ||
			g.Announced != w.Announced || g.Withdrawn != w.Withdrawn ||
			g.WithdrawnOnlyUpdates != w.WithdrawnOnlyUpdates {
			t.Fatalf("%s: window %d: counters diverge:\ngot  %+v\nwant %+v", label, i, g, w)
		}
		if got.Stability[i] != want.Stability[i] {
			t.Fatalf("%s: window %d: stability diverges: %v vs %v", label, i, got.Stability[i], want.Stability[i])
		}
	}
}
