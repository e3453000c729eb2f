// Delta-maintained windowed mining. Announce/withdraw events apply as
// +/- deltas to reference-counted (setter, member, prefix-group)
// observation counts, so a window's ML mesh is derived from the
// maintained store instead of re-mining every live route. Routes are
// grouped by their (path, community-set) shape; each group's hygiene
// flags, IXP attribution and — when the §4.2 pinpointing is
// relationship-independent — its setter are derived once, and only the
// relationship-dependent groups (three or more IXP participants on the
// path) are re-pinpointed at window close against the incrementally
// maintained relation oracle.
package core

import (
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/par"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
)

// obsSet is one counted community set observed for a (setter, prefix).
type obsSet struct {
	key string // canonical (sorted, dedup'd) encoding
	cs  bgp.Communities
	n   int
}

// prefixDelta holds the counted community sets of one (setter, prefix).
// Disagreement across feeders is rare (§4.3), so the set list is almost
// always length one; entries whose count returns to zero are pruned so
// the store tracks the live table, not the all-time history.
type prefixDelta struct {
	total int
	sets  []obsSet
}

// winner returns the canonical representative among the live sets: the
// lexicographically smallest key with a positive count. Deterministic
// and independent of insertion order, so a maintained store and one
// rebuilt from scratch agree byte-for-byte.
func (p *prefixDelta) winner() (string, bgp.Communities, bool) {
	bestKey, bestIdx := "", -1
	for i := range p.sets {
		if p.sets[i].n > 0 && (bestIdx < 0 || p.sets[i].key < bestKey) {
			bestKey, bestIdx = p.sets[i].key, i
		}
	}
	if bestIdx < 0 {
		return "", nil, false
	}
	return bestKey, p.sets[bestIdx].cs, true
}

// setterDelta aggregates one covered setter's per-prefix observations.
// votes/repr maintain the majority-vote tally incrementally: votes[k]
// counts the prefixes whose winning community set has canonical key k,
// adjusted whenever a prefix's winner transitions, so Filter costs
// O(distinct sets) instead of O(prefixes).
type setterDelta struct {
	prefixes map[bgp.Prefix]*prefixDelta
	active   int // prefixes with a positive total
	votes    map[string]int
	repr     map[string]bgp.Communities
	dirty    bool // queued in the store's dirty list since the last drain
}

// ixpDelta is one IXP's setter table.
type ixpDelta struct {
	setters map[bgp.ASN]*setterDelta
}

// DirtySetter names one (IXP, setter) whose observation counts changed
// since the last DrainDirty: the exact invalidation unit of the
// delta-maintained reciprocity mesh.
type DirtySetter struct {
	IXP    string
	Setter bgp.ASN
}

// obsShardCount is the fixed shard fan-out of DeltaObservations. It is
// independent of the worker count on purpose: shard assignment (and so
// per-shard op order and the merged dirty-list order) never changes
// with WindowOptions.Workers, which is half of the worker-count
// invariance argument. 32 shards keep the per-shard maps small enough
// that an 8-worker pool stays busy without pathological imbalance.
const obsShardCount = 32

// obsShardOf hashes a setter to its shard. Deltas for one setter always
// land in one shard, so applying each shard's op queue in order
// reproduces the sequential per-setter op order exactly.
func obsShardOf(setter bgp.ASN) int {
	return int(uint32(setter) * 0x9E3779B1 >> 27)
}

// obsShard is one shard of the store: its own per-IXP setter tables and
// its own dirty list. Shards never share state, so a worker pool can
// apply per-shard op queues concurrently.
type obsShard struct {
	byIXP     map[string]*ixpDelta
	dirtyList []DirtySetter
}

// DeltaObservations is a reference-counted observation store: the
// C_{a,p} of §4.1 step 3 maintained under announce (+1) and withdraw
// (-1) deltas. It implements ObservationSource, so InferLinks derives
// the per-window mesh from it directly; it also records which (IXP,
// setter) pairs changed, so MeshState re-derives only those at window
// close. State is sharded by setter hash: deltas for different shards
// may be applied concurrently, and DrainDirty merges the per-shard
// dirty lists in fixed shard order, so the merged order is
// deterministic and worker-count-invariant.
type DeltaObservations struct {
	shards [obsShardCount]obsShard
}

// NewDeltaObservations returns an empty store.
func NewDeltaObservations() *DeltaObservations {
	o := &DeltaObservations{}
	for i := range o.shards {
		o.shards[i].byIXP = make(map[string]*ixpDelta)
	}
	return o
}

// DrainDirty appends the setters dirtied since the last drain to dst
// and resets the tracking, merging the per-shard lists in shard order
// (within a shard, dirtying order). A setter pruned and re-created
// between drains may appear twice; consumers must dedup.
func (o *DeltaObservations) DrainDirty(dst []DirtySetter) []DirtySetter {
	for i := range o.shards {
		sh := &o.shards[i]
		dst = append(dst, sh.dirtyList...)
		for _, d := range sh.dirtyList {
			if x := sh.byIXP[d.IXP]; x != nil {
				if s := x.setters[d.Setter]; s != nil {
					s.dirty = false
				}
			}
		}
		sh.dirtyList = sh.dirtyList[:0]
	}
	return dst
}

// add applies one counted observation delta.
func (o *DeltaObservations) add(ixpName string, setter bgp.ASN, prefix bgp.Prefix, key string, cs bgp.Communities, delta int) {
	o.addShard(obsShardOf(setter), ixpName, setter, prefix, key, cs, delta)
}

// addShard is add with the setter's shard already resolved (the flush
// path computes it once at enqueue). Callers applying ops concurrently
// must partition them by shard.
func (o *DeltaObservations) addShard(shard int, ixpName string, setter bgp.ASN, prefix bgp.Prefix, key string, cs bgp.Communities, delta int) {
	sh := &o.shards[shard]
	x := sh.byIXP[ixpName]
	if x == nil {
		x = &ixpDelta{setters: make(map[bgp.ASN]*setterDelta)}
		sh.byIXP[ixpName] = x
	}
	s := x.setters[setter]
	if s == nil {
		s = &setterDelta{
			prefixes: make(map[bgp.Prefix]*prefixDelta),
			votes:    make(map[string]int),
			repr:     make(map[string]bgp.Communities),
		}
		x.setters[setter] = s
	}
	if !s.dirty {
		s.dirty = true
		sh.dirtyList = append(sh.dirtyList, DirtySetter{IXP: ixpName, Setter: setter})
	}
	p := s.prefixes[prefix]
	if p == nil {
		p = &prefixDelta{}
		s.prefixes[prefix] = p
	}
	oldKey, _, oldLive := p.winner()
	found := false
	for i := range p.sets {
		if p.sets[i].key == key {
			if p.sets[i].n += delta; p.sets[i].n == 0 {
				p.sets = append(p.sets[:i], p.sets[i+1:]...)
			}
			found = true
			break
		}
	}
	if !found {
		p.sets = append(p.sets, obsSet{key: key, cs: cs, n: delta})
	}
	if newKey, newCS, newLive := p.winner(); oldLive != newLive || oldKey != newKey {
		if oldLive {
			if s.votes[oldKey]--; s.votes[oldKey] == 0 {
				delete(s.votes, oldKey)
				delete(s.repr, oldKey)
			}
		}
		if newLive {
			s.votes[newKey]++
			s.repr[newKey] = newCS
		}
	}
	wasLive := p.total > 0
	p.total += delta
	if live := p.total > 0; live != wasLive {
		if live {
			s.active++
		} else {
			s.active--
		}
	}
	// Prune dead state so Setters/Filter iterate the live view only:
	// per-window cost must track the live table, not the trace's
	// all-time observation history.
	if p.total == 0 && len(p.sets) == 0 {
		delete(s.prefixes, prefix)
	}
	if s.active == 0 && len(s.prefixes) == 0 {
		delete(x.setters, setter)
	}
}

// Setters returns the covered RS members of an IXP in ascending order,
// unioned across the shards (the final sort erases shard order).
func (o *DeltaObservations) Setters(ixpName string) []bgp.ASN {
	var out []bgp.ASN
	for i := range o.shards {
		x := o.shards[i].byIXP[ixpName]
		if x == nil {
			continue
		}
		for setter, s := range x.setters {
			if s.active > 0 {
				out = append(out, setter)
			}
		}
	}
	sortASNs(out)
	return out
}

// Filter reconstructs the setter's export filter by majority vote over
// its per-prefix community sets, exactly like Observations.Filter: each
// live prefix votes its canonical community set, the most voted (ties
// to the smallest key) wins. The tally is maintained incrementally by
// add, so the vote scan is over the distinct community sets (almost
// always one), not the setter's prefixes.
func (o *DeltaObservations) Filter(ixpName string, setter bgp.ASN, scheme ixp.Scheme) (ixp.ExportFilter, bool) {
	x := o.shards[obsShardOf(setter)].byIXP[ixpName]
	if x == nil {
		return ixp.ExportFilter{}, false
	}
	s := x.setters[setter]
	if s == nil || s.active == 0 {
		return ixp.ExportFilter{}, false
	}
	bestKey, bestVotes := "", -1
	for k, v := range s.votes {
		if v > bestVotes || (v == bestVotes && k < bestKey) {
			bestKey, bestVotes = k, v
		}
	}
	return ixp.FilterFromCommunities(s.repr[bestKey], scheme), true
}

// Source reports passive coverage: the windowed pipeline only ever
// mines collector data.
func (o *DeltaObservations) Source(ixpName string, setter bgp.ASN) DataSource {
	if x := o.shards[obsShardOf(setter)].byIXP[ixpName]; x != nil {
		if s := x.setters[setter]; s != nil && s.active > 0 {
			return ObsPassive
		}
	}
	return 0
}

// windowGroup is the derived state of one distinct (path, communities)
// route shape. Everything but the relationship-dependent setter is
// fixed at creation; refs and byPrefix track the live routes currently
// carrying the shape.
type windowGroup struct {
	path  paths.ID
	comms bgp.Communities
	ckey  string // canonical comms encoding: its slot under groups[path]

	bogon, cycle, empty bool
	entry               *IXPEntry // nil: no unique IXP attribution
	relKey              string    // canonical key of the scheme-relevant subset
	relComms            bgp.Communities
	relsDep             bool // pinpointing consults the relation oracle
	registered          bool // currently listed in windowMiner.relsDeps
	resolved            bool
	setter              bgp.ASN

	refs      int
	deadEpoch int  // window epoch at which refs last hit zero
	queued    bool // currently in windowMiner.deadQueue
	byPrefix  map[bgp.Prefix]int
}

// mineable reports whether the shape can contribute observations at
// all: it survived hygiene and resolved to a unique IXP.
func (g *windowGroup) mineable() bool {
	return !g.bogon && !g.cycle && !g.empty && g.entry != nil
}

// keptPath reports whether the shape's path belongs to the public view
// relationship inference runs over.
func (g *windowGroup) keptPath() bool { return !g.bogon && !g.cycle && !g.empty }

// windowMiner maintains the incremental mining state across a windowed
// run: the route groups, the refcounted observation store, the live
// distinct-path counts feeding the relation oracle, and the hygiene
// drop tallies over the current live table.
// deadShapeGrace is how many window closes a (path, comms) shape stays
// in the lookup map after its last live route withdrew. Shapes that
// flap back inside the grace period keep their derived state (hygiene
// flags, IXP attribution, relevant-community key); shapes dead longer
// are compacted away so the map tracks the recently-live shape set, not
// the trace's all-time one.
const deadShapeGrace = 2

// deadShape is one sweep-queue entry: the shape and the epoch whose
// close enqueued it.
type deadShape struct {
	g     *windowGroup
	epoch int
}

// identShape is the memoized IXP attribution of one comms shape: the
// entry (nil when no unique attribution) and the scheme-relevant subset
// with its canonical key. relComms is shared read-only across every
// group carrying the shape.
type identShape struct {
	entry    *IXPEntry
	relComms bgp.Communities
	relKey   string
}

// obsOp is one deferred observation delta: the group carries the
// derived (IXP, setter, relevant-comms) state, so the op only records
// the prefix and sign. Ops are queued per setter shard during the
// window and flushed on the worker pool at close; a group's setter only
// moves at close (moveContributions, after the flush), so the shard
// recorded at enqueue time is still the setter's shard at flush time.
type obsOp struct {
	g      *windowGroup
	prefix bgp.Prefix
	delta  int
}

// pinResult is one re-pinpointed rels-dependent group's answer,
// computed concurrently at close and committed sequentially.
type pinResult struct {
	setter bgp.ASN
	ok     bool
}

type windowMiner struct {
	dict  *Dictionary
	store *paths.Store

	// workers sizes the close-time worker pool (resolved, >= 1). The
	// derived state is bit-identical for any value.
	workers int

	// obsQueue defers the window's observation deltas per setter shard.
	obsQueue [obsShardCount][]obsOp

	pinScratch []pinResult

	// groups is keyed (path, canonical comms encoding); the two-level
	// shape lets callers probe with a scratch []byte key (string(b) map
	// access compiles allocation-free) before cloning anything.
	groups   map[paths.ID]map[string]*windowGroup
	relsDeps []*windowGroup // groups whose setter depends on the oracle

	// ident memoizes IXP attribution per comms shape. Attribution (and
	// the derived relevant-community subset/key) depends only on the
	// community set and the static dictionary snapshot, while groups are
	// keyed per (path, comms) — many paths carry the same comms shape, so
	// the memo turns the dominant IdentifyIXP cost of group creation into
	// a map hit. Entries are never swept: the map is bounded by distinct
	// comms shapes seen, far fewer than shapes × paths.
	ident map[string]identShape

	obs  *DeltaObservations
	rel  *relation.Incremental
	mesh *MeshState

	pathLive map[paths.ID]int

	epoch     int // window closes so far
	deadQueue []deadShape

	dropBogon, dropCycle int
}

// newWindowMiner returns an empty miner that maintains the reciprocity
// mesh incrementally through a MeshState fed by the observation store's
// dirty-setter tracking, running its close-time phases on a pool of
// workers goroutines.
func newWindowMiner(dict *Dictionary, store *paths.Store, workers int) *windowMiner {
	m := &windowMiner{
		dict:     dict,
		store:    store,
		workers:  par.Workers(workers),
		groups:   make(map[paths.ID]map[string]*windowGroup),
		ident:    make(map[string]identShape),
		obs:      NewDeltaObservations(),
		rel:      relation.NewIncremental(store),
		mesh:     NewMeshState(dict),
		pathLive: make(map[paths.ID]int),
	}
	m.rel.Workers = m.workers
	return m
}

// appendCommsKey appends the canonical encoding of a community set as
// announced (order preserved: it keys the route shape, not the semantic
// set) to b, for allocation-free probing of the shape map.
func appendCommsKey(b []byte, cs bgp.Communities) []byte {
	for _, c := range cs {
		b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return b
}

// commsKey materializes the canonical encoding as a string.
func commsKey(cs bgp.Communities) string {
	if len(cs) == 0 {
		return ""
	}
	return string(appendCommsKey(make([]byte, 0, 4*len(cs)), cs))
}

// group returns (creating on first sight) the derived group of a route
// shape. New mineable groups resolve their setter immediately when the
// pinpointing is relationship-independent, or against the current
// oracle otherwise (stale answers are corrected at window close).
func (m *windowMiner) group(path paths.ID, comms bgp.Communities, ckey string) *windowGroup {
	inner := m.groups[path]
	if inner == nil {
		inner = make(map[string]*windowGroup, 1)
		m.groups[path] = inner
	}
	if g, ok := inner[ckey]; ok {
		return g
	}
	g := &windowGroup{path: path, comms: comms, ckey: ckey, byPrefix: make(map[bgp.Prefix]int)}
	p := m.store.Path(path)
	g.empty = len(p) == 0
	g.bogon = hasBogon(p)
	g.cycle = hasCycle(p)
	if len(comms) > 0 {
		id, seen := m.ident[ckey]
		if !seen {
			if entry, ok := m.dict.IdentifyIXP(comms); ok {
				id.entry = entry
				id.relComms = entry.Scheme.RelevantCommunities(comms)
				id.relKey = id.relComms.Dedup().String()
			}
			m.ident[ckey] = id
		}
		if id.entry != nil {
			g.entry = id.entry
			g.relComms = id.relComms
			g.relKey = id.relKey
			if g.mineable() {
				positions := 0
				for _, a := range p {
					if id.entry.IsMember(a) {
						positions++
					}
				}
				g.relsDep = positions > 2
			}
		}
	}
	if g.mineable() {
		if g.relsDep {
			g.registered = true
			m.relsDeps = append(m.relsDeps, g)
			g.setter, g.resolved = PinpointSetter(p, g.entry, m.rel)
		} else {
			g.setter, g.resolved = PinpointSetter(p, g.entry, nil)
		}
	}
	inner[ckey] = g
	return g
}

// shapeCount reports the number of live shape entries in the lookup map
// (test hook for the dead-shape sweep).
func (m *windowMiner) shapeCount() int {
	n := 0
	for _, inner := range m.groups {
		n += len(inner)
	}
	return n
}

// apply registers one live-route delta (+1 announce, -1 withdraw) for
// the route shape at the given prefix.
func (m *windowMiner) apply(g *windowGroup, prefix bgp.Prefix, delta int) {
	wasDead := g.refs == 0
	g.refs += delta
	// A rels-dependent shape coming back to life after closeWindow
	// compacted it away re-enters the re-pinpoint list (its recorded
	// setter may be stale relative to the current oracle; the next
	// window close corrects it, exactly like a freshly created shape).
	if wasDead && g.refs > 0 && g.relsDep && !g.registered {
		g.registered = true
		m.relsDeps = append(m.relsDeps, g)
	}
	if !wasDead && g.refs == 0 {
		g.deadEpoch = m.epoch
		if !g.queued {
			g.queued = true
			m.deadQueue = append(m.deadQueue, deadShape{g: g, epoch: m.epoch})
		}
	}
	if n := g.byPrefix[prefix] + delta; n == 0 {
		delete(g.byPrefix, prefix)
	} else {
		g.byPrefix[prefix] = n
	}
	switch {
	case g.bogon:
		m.dropBogon += delta
	case g.cycle:
		m.dropCycle += delta
	}
	if g.keptPath() {
		before := m.pathLive[g.path]
		now := before + delta
		if now == 0 {
			delete(m.pathLive, g.path)
		} else {
			m.pathLive[g.path] = now
		}
		if before == 0 && now > 0 {
			m.rel.AddPath(g.path)
		} else if before > 0 && now == 0 {
			m.rel.RemovePath(g.path)
		}
	}
	if g.mineable() && g.resolved {
		// Defer the delta into the setter's shard queue; the close
		// flushes all shards on the worker pool. Per-setter op order is
		// preserved (one setter, one shard), and nothing reads the store
		// until the flush completed.
		s := obsShardOf(g.setter)
		m.obsQueue[s] = append(m.obsQueue[s], obsOp{g: g, prefix: prefix, delta: delta})
	}
}

// flushObs applies the window's queued observation deltas, one worker
// per shard. Each shard's queue is applied in enqueue (stream) order
// and shards share no state, so the resulting store is byte-identical
// to applying the whole stream sequentially.
//
//mlplint:allocfree
func (m *windowMiner) flushObs() {
	//mlplint:allocfree one pooled closure per window close fans out the shard flush
	par.Run(m.workers, obsShardCount, func(s int) {
		ops := m.obsQueue[s]
		for _, op := range ops {
			g := op.g
			m.obs.addShard(s, g.entry.Name, g.setter, op.prefix, g.relKey, g.relComms, op.delta)
		}
		for i := range ops {
			ops[i] = obsOp{}
		}
		m.obsQueue[s] = ops[:0]
	})
}

// moveContributions shifts all of g's live observation counts from its
// recorded (resolved, setter) state to the freshly pinpointed one.
func (m *windowMiner) moveContributions(g *windowGroup, resolved bool, setter bgp.ASN) {
	if g.resolved == resolved && (!resolved || g.setter == setter) {
		return
	}
	if g.resolved {
		for p, n := range g.byPrefix {
			m.obs.add(g.entry.Name, g.setter, p, g.relKey, g.relComms, -n)
		}
	}
	g.resolved, g.setter = resolved, setter
	if g.resolved {
		for p, n := range g.byPrefix {
			m.obs.add(g.entry.Name, g.setter, p, g.relKey, g.relComms, n)
		}
	}
}

// closeWindow derives one window's inference outcome from the
// maintained state: flush the deferred observation deltas shard-wise on
// the worker pool, commit the relation oracle (itself parallel over its
// shards), re-pinpoint the relationship-dependent groups against it
// (concurrent pure reads, sequential moves), apply the dirtied setters
// to the maintained reciprocity mesh per-IXP, and read the window's
// counters off the maintained state. Every phase is worker-count
// invariant, so the derived window is bit-identical to a sequential
// close. When retain is false (streaming replay) the mesh is not
// snapshotted, so the close allocates O(churn), not O(mesh).
func (m *windowMiner) closeWindow(w *PassiveWindow, retain bool) {
	m.flushObs()
	m.rel.Commit()
	// Re-pinpoint the live rels-dependent shapes, compacting dead ones
	// out of the list so per-window cost tracks the live shape set, not
	// the trace's all-time one (withdrawn shapes re-register in apply
	// if they come back). Pinpointing only reads the committed oracle,
	// so the answers are computed on the pool; the observation moves
	// mutate the store and commit sequentially in list order.
	live := m.relsDeps[:0]
	for _, g := range m.relsDeps {
		if g.refs == 0 {
			g.registered = false
			continue
		}
		live = append(live, g)
	}
	for i := len(live); i < len(m.relsDeps); i++ {
		m.relsDeps[i] = nil
	}
	m.relsDeps = live
	if cap(m.pinScratch) < len(live) {
		m.pinScratch = make([]pinResult, len(live))
	}
	pins := m.pinScratch[:len(live)]
	par.Run(m.workers, len(live), func(i int) {
		g := live[i]
		pins[i].setter, pins[i].ok = PinpointSetter(m.store.Path(g.path), g.entry, m.rel)
	})
	for i, g := range live {
		m.moveContributions(g, pins[i].ok, pins[i].setter)
	}
	w.Dropped.Bogon = m.dropBogon
	w.Dropped.Cycle = m.dropCycle
	w.RelLinks = m.rel.LinkCount()
	w.P2PRels = m.rel.P2PCount()
	m.mesh.Apply(m.obs, m.workers)
	w.MeshLinks = m.mesh.TotalLinks()
	w.Stability = m.mesh.CloseStability()
	if retain {
		w.Result = m.mesh.Snapshot(m.workers)
	}
	m.epoch++
	m.sweepDeadShapes()
}

// sweepDeadShapes compacts shapes whose refcount has been zero for at
// least deadShapeGrace window closes out of the lookup map. The queue
// is in enqueue order; a shape that died again more recently than the
// entry that carried it here is re-queued at its newest death epoch, so
// the grace period restarts on every flap. Requeued entries can land
// behind slightly newer ones, which only ever lengthens a shape's stay
// — the grace period is a lower bound.
func (m *windowMiner) sweepDeadShapes() {
	for len(m.deadQueue) > 0 {
		e := m.deadQueue[0]
		if e.epoch+deadShapeGrace > m.epoch {
			break
		}
		m.deadQueue[0] = deadShape{}
		m.deadQueue = m.deadQueue[1:]
		g := e.g
		g.queued = false
		if g.refs > 0 {
			continue
		}
		if g.deadEpoch+deadShapeGrace > m.epoch {
			g.queued = true
			m.deadQueue = append(m.deadQueue, deadShape{g: g, epoch: g.deadEpoch})
			continue
		}
		inner := m.groups[g.path]
		delete(inner, g.ckey)
		if len(inner) == 0 {
			delete(m.groups, g.path)
		}
	}
	if len(m.deadQueue) == 0 {
		m.deadQueue = nil // release the drained queue's backing array
	}
}

// sortASNs sorts ascending in place.
func sortASNs(s []bgp.ASN) {
	slices.Sort(s)
}
