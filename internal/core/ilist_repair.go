package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file is the incremental interaction-list repair — the warm-path
// companion to the tracked octree update (octree/tracked.go). A compiled
// list row is a pure function of the opening tests its classification
// evaluated: the row's own cluster against the nodes it descended. An MD
// step moves a hundred atoms, and with them the centers and radii of the
// few dozen nodes above them; every other node keeps its bits. So the
// repair re-runs each row's descent over the nodes that MOVED — a tile's
// rows as the lanes of one — on their geometry before the update and after
// it, and reclassifies the row only where the two descents part: exactly,
// not up to a bound. Such a row's tile is classified once, in one shared
// descent, and keeps what the cache does not hold; kept tiles copy their
// cached entries. The result is byte-for-byte a full recompile (RecheckLists
// verifies exactly that), and nothing is stored for the repair's sake: a
// list is its index.

// UpdateStats reports what an UpdateAtomsRepair call did.
type UpdateStats struct {
	// Moved is the number of atoms that changed octree leaf.
	Moved int
	// Rebuilt is set when the octree fell back to a full reconstruction
	// (atom escaped the root cube, or the tree had no Morton keys).
	Rebuilt bool
	// Repaired is set when the cached interaction lists were repaired in
	// place; when false they were invalidated and the next evaluation
	// recompiles from scratch.
	Repaired bool
	// RowsRepaired counts the list rows the update changed — each classified
	// afresh in one descent of its tile, the tile's other rows put back
	// together from the cache — and RowsTotal all list rows, across both
	// phases (valid only when Repaired).
	RowsRepaired, RowsTotal int
}

// UpdateAtomsRepair moves the atoms to new positions (original atom
// order) — the one way a System's atoms move. The surface and its octree
// are left untouched: this is the rigid-cavity setting of flexible-molecule
// steps between boundary rebuilds. It updates the atoms octree with the
// tracked update (octree.Tree.UpdateTracked, the dynamic-octree machinery of
// the paper's reference [8]) and uses its structural-change report to repair
// the compiled interaction lists in place instead of discarding them. When
// repair is impossible it invalidates the lists, so the next evaluation
// recompiles them, and says why: o (may be nil)
// counts "ilist.repair.fallbacks" and one reason under it — ".no_lists",
// ".params_changed", ".untracked" (the octree cannot keep its node ids: no
// Morton keys, re-posed, or an atom outside the root cube) or ".rebuilt"
// (it rebuilt all the same). An update that moved no node returns the held
// lists themselves, repaired. The pool parallelizes every step of the
// repair; o also receives "octree.keys.moved", "ilist.rows.repaired" and,
// per repair, "ilist.repair.{hot_nodes,rows_retested,rows_resplit}" and
// what its descents cost, "ilist.repair.{tiles_classified,
// lanes_classified,node_visits}", the span "ilist.repair.delta" and, for
// each phase, "ilist.repair.{retest,classify,assemble}".
func (s *System) UpdateAtomsRepair(newPositions []geom.Vec3, pool *sched.Pool, o *obs.Obs) (UpdateStats, error) {
	if len(newPositions) != s.Mol.NumAtoms() {
		return UpdateStats{}, fmt.Errorf("core: UpdateAtomsRepair with %d positions for %d atoms",
			len(newPositions), s.Mol.NumAtoms())
	}
	if err := octree.CheckFinite(newPositions); err != nil {
		return UpdateStats{}, err
	}
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	cl := s.lists
	fallback := ""
	switch {
	case cl == nil:
		fallback = "no_lists"
	case !cl.matches(s):
		fallback = "params_changed"
	case !s.Atoms.Tracks(newPositions):
		fallback = "untracked"
	}
	// What the lists were classified on, taken before the tree moves.
	var before treeGeometry
	if fallback == "" {
		before = geometryOf(s.Atoms)
	}

	res, err := s.Atoms.UpdateTracked(newPositions)
	if err != nil {
		return UpdateStats{Moved: res.Moved, Rebuilt: res.Rebuilt}, err
	}
	s.commitAtomPositions(newPositions)
	if o != nil {
		o.Counter("octree.keys.moved").Add(int64(res.Moved))
	}

	stats := UpdateStats{Moved: res.Moved, Rebuilt: res.Rebuilt}
	if fallback == "" && res.Rebuilt {
		fallback = "rebuilt"
	}
	if fallback != "" {
		// Node ids are not stable across a rebuild (or there is nothing
		// to repair): full recompile on next use.
		s.lists = nil
		if o != nil {
			o.Counter("ilist.repair.fallbacks").Add(1)
			o.Counter("ilist.repair.fallbacks." + fallback).Add(1)
		}
		return stats, nil
	}

	sp := o.Begin(0, "ilist", "ilist.repair.delta", obs.NoVirtual)
	d := newTreeDelta(s.Atoms, before, res.Struct)
	sp.End(obs.NoVirtual)
	stats.Repaired = true
	stats.RowsTotal = len(cl.Born.Rows) + len(cl.Epol.Rows)
	if d.hot == 0 {
		// No node moved, so no verdict did: the lists are the repair.
		return stats, nil
	}
	bornPh, epolPh := s.listPhases(cl)
	born, nb := bornPh.repair(cl.Born, d, pool, o)
	epol, ne := epolPh.repair(cl.Epol, d, pool, o)
	s.lists = &CompiledLists{bornMAC: cl.bornMAC, epolFar: cl.epolFar, Born: born, Epol: epol}
	stats.RowsRepaired = nb.changed + ne.changed
	stats.RowsTotal = len(born.Rows) + len(epol.Rows)
	if o != nil {
		o.Counter("ilist.rows.repaired").Add(int64(stats.RowsRepaired))
		o.Counter("ilist.repair.hot_nodes").Add(int64(d.hot))
		o.Counter("ilist.repair.rows_retested").Add(int64(nb.retested + ne.retested))
		o.Counter("ilist.repair.rows_resplit").Add(int64(nb.resplit + ne.resplit))
	}
	return stats, nil
}

// commitAtomPositions applies already-tree-updated atom positions to the
// molecule record, the slot-ordered payloads and the SoA mirrors.
func (s *System) commitAtomPositions(newPositions []geom.Vec3) {
	for i := range s.Mol.Atoms {
		s.Mol.Atoms[i].Pos = newPositions[i]
	}
	for slot, orig := range s.Atoms.Index {
		s.Charge[slot] = s.Mol.Atoms[orig].Charge
		s.Radius[slot] = s.Mol.Atoms[orig].Radius
	}
	s.refreshAtomSoA()
}

// treeGeometry is what an opening test reads of a tree's nodes, by node id:
// center, radius and leaf-ness.
type treeGeometry struct {
	c    []geom.Vec3
	r    []float64
	leaf []bool
}

func geometryOf(t *octree.Tree) treeGeometry {
	n := len(t.Nodes)
	g := treeGeometry{c: make([]geom.Vec3, n), r: make([]float64, n), leaf: make([]bool, n)}
	for i := range t.Nodes {
		g.c[i], g.r[i], g.leaf[i] = t.Nodes[i].Center, t.Nodes[i].Radius, t.Nodes[i].IsLeaf
	}
	return g
}

// What one tracked update did to a node of the atoms tree.
const (
	// coldNode: the node and everything below it are what they were, bit
	// for bit: no opening test against a cold subtree has a new answer.
	coldNode = iota
	// hotNode: its center or radius changed, or something below it is hot.
	hotNode
	// restructuredNode: it is new, gained or lost a child, or was a leaf and
	// is not any more (octree.TrackedUpdate.Struct): a descent that opens it
	// no longer visits what it visited.
	restructuredNode
)

// treeDelta is the difference one tracked update made to the atoms tree,
// shared by both phases' repairs.
type treeDelta struct {
	// before is the node geometry the cached lists were classified on.
	before treeGeometry
	// state[id] is coldNode, hotNode or restructuredNode; the non-cold set
	// is closed upward, so a descent that skips cold children skips nothing
	// that changed. hot counts the non-cold nodes.
	state []uint8
	hot   int
	// visit numbers the reachable nodes in classification visit order
	// (pre-order, children in octant order). Node IDS stop being in visit
	// order once tracked updates materialize leaves, so a re-split merges
	// near runs on visit.
	visit []int32
}

// newTreeDelta compares the updated tree against the geometry it had
// before and folds in the update's structural-change report (nil: no
// structural change), in one walk.
func newTreeDelta(atoms *octree.Tree, before treeGeometry, strct []bool) *treeDelta {
	nn := len(atoms.Nodes)
	d := &treeDelta{before: before, state: make([]uint8, nn), visit: make([]int32, nn)}
	var next int32
	var walk func(id int32) bool
	walk = func(id int32) bool {
		nd := &atoms.Nodes[id]
		d.visit[id] = next
		next++
		st := uint8(coldNode)
		switch {
		case int(id) >= len(before.r) || (strct != nil && strct[id]):
			st = restructuredNode
		case nd.Center != before.c[id] || nd.Radius != before.r[id]:
			st = hotNode
		}
		if !nd.IsLeaf {
			for _, ch := range nd.Children {
				if ch != octree.NoChild && walk(ch) && st == coldNode {
					st = hotNode
				}
			}
		}
		d.state[id] = st
		if st != coldNode {
			d.hot++
		}
		return st != coldNode
	}
	walk(atoms.Root())
	return d
}

// retest is the differential descent: the lanes of open — a tile of unmoved
// row clusters — whose cached rows do not stand below hot node n: the
// classification's walk on the old and the new geometry at once, eight lanes
// a test (admit: verdict's, bit for bit). A lane whose verdicts differ is
// given up; one far in both keeps the aggregate; one open in both goes on
// into the hot children — a cold subtree's descent is the one it was —
// unless the node was restructured (a child gained or lost is an entry
// gained or lost). So the test is exact both ways.
func (ph *listPhase) retest(n int32, rows *rowTile, open uint8, d *treeDelta) (given uint8) {
	if int(n) >= len(d.before.r) {
		return open // a new node: the old descent had nothing here
	}
	node, wasLeaf := &ph.atoms.Nodes[n], d.before.leaf[n]
	if ph.leafFirst && (wasLeaf || node.IsLeaf) {
		if wasLeaf == node.IsLeaf {
			return 0 // a near leaf, unless split since
		}
		return open
	}
	farWas := ph.admit(rows, d.before.c[n], d.before.r[n], open)
	far := ph.admit(rows, node.Center, node.Radius, open)
	given = far ^ farWas
	open &^= far | farWas // still open in both
	switch {
	case open == 0, node.IsLeaf && d.state[n] != restructuredNode:
	case d.state[n] == restructuredNode:
		given |= open
	default:
		for _, child := range node.Children {
			if child != octree.NoChild && d.state[child] != coldNode && open&^given != 0 {
				given |= ph.retest(child, rows, open&^given, d)
			}
		}
	}
	return given
}

// repairCounts is what one phase's repair did, in rows: changed by the
// update (the re-test gave them up, or they are new), re-tested over the hot
// nodes, and kept but classified again for a near entry's class.
type repairCounts struct{ changed, retested, resplit int }

// sources returns the cached row of every row of il — the rowTree's CURRENT
// leaves in the phase's tiles — −1 for a new leaf's, and the lanes of every
// tile that changed: a new leaf's, an atom leaf's that moved (every test of
// its descent has a new operand), or one the re-test (retested) gives up.
func (ph *listPhase) sources(old, il *InteractionLists, d *treeDelta, pool *sched.Pool) (prev []int32, given []uint8, retested int) {
	oldIdx := make([]int32, len(ph.rowTree.Nodes))
	for i := range oldIdx {
		oldIdx[i] = -1
	}
	for i, r := range old.Rows {
		oldIdx[r] = int32(i)
	}
	prev, given = make([]int32, len(il.Rows)), make([]uint8, il.tiles())
	var lanes atomic.Int64
	forRows(pool, il.tiles(), func(lo, hi, _ int) {
		var rows rowTile
		ran := 0
		for x := lo; x < hi; x++ {
			rlo, rhi := il.tileRows(x)
			var test uint8
			for l := range rhi - rlo {
				r := il.Rows[rlo+l]
				prev[rlo+l] = oldIdx[r]
				if oldIdx[r] < 0 || ph.leafFirst && d.state[r] != coldNode {
					given[x] |= 1 << l
					continue
				}
				rn := &ph.rowTree.Nodes[r]
				rows.set(l, rn.Center, rn.Radius)
				test |= 1 << l
			}
			if test != 0 {
				given[x] |= ph.retest(ph.atoms.Root(), &rows, test, d)
				ran += bits.OnesCount8(test)
			}
		}
		lanes.Add(int64(ran))
	})
	return prev, given, int(lanes.Load())
}

// tileOf returns the tile of every row of il.
func (il *InteractionLists) tileOf() []int32 {
	of := make([]int32, len(il.Rows))
	for t := range il.tiles() {
		lo, hi := il.tileRows(t)
		for k := lo; k < hi; k++ {
			of[k] = int32(t)
		}
	}
	return of
}

// keptTiles returns, for every tile of il, the tile of old it carries over,
// or −1 for a tile to classify; oldTile is old.tileOf(). A tile's shared
// runs are a function of all of its rows, so a tile is carried over only
// whole: its rows are the rows of one tile of old, in their order (prev),
// and none of them is to classify (given).
func keptTiles(old, il *InteractionLists, oldTile, prev []int32, given []uint8) []int32 {
	kept := make([]int32, il.tiles())
	for t := range kept {
		kept[t] = -1
		if given[t] != 0 {
			continue
		}
		lo, hi := il.tileRows(t)
		i := prev[lo]
		olo, ohi := old.tileRows(int(oldTile[i]))
		keep := int(i) == olo && ohi-olo == hi-lo
		for k := lo; keep && k < hi; k++ {
			keep = prev[k] == i+int32(k-lo)
		}
		if keep {
			kept[t] = oldTile[i]
		}
	}
	return kept
}

// listRepair classifies the tiles of il not carried over whole from old.
type listRepair struct {
	ph      *listPhase
	old, il *InteractionLists
	// oldTile is old.tileOf(), prev the cached row of every row of il (−1: a
	// new leaf's) and visit treeDelta.visit; given marks the lanes of every
	// tile the re-test gave up, kept those whose own runs place puts back
	// together from the cache, and dirty the leaves of the changed rows (nil
	// in an unsymmetrized phase, which has no classes).
	oldTile, prev, visit []int32
	given, kept          []uint8
	dirty                []bool
}

// size marks the kept lanes of a chunk of tiles — rows the re-test kept
// whose near entries keep their classes: their whole runs are their cached
// own and cached tile's shared runs — and sizes a's first blocks for what
// keep appends, by cached lengths: the other rows' own runs and the first
// row's tile's shared runs. A denser chunk goes on in further blocks.
func (rp *listRepair) size(a *listArena, chunk []int32, t *tiler) {
	var far, near int
	add := func(runs *[runFar + 1][]int32) {
		f, n := sizes(runs)
		far, near = far+f, near+n
	}
	for _, x := range chunk {
		lo, hi := rp.il.tileRows(int(x))
		if rp.dirty != nil {
			t.chain = t.ph.ancestors(t.chain[:0], rp.il.Rows[lo])
		}
		for l := range hi - lo {
			i := int(rp.prev[lo+l])
			if i < 0 {
				continue
			}
			own, shared := rp.old.rowRuns(i), rp.old.tileRuns(int(rp.oldTile[i]))
			if rp.given[x]>>l&1 == 0 && (rp.dirty == nil || !rp.reclasses(int32(lo+l), t.chain, &own, &shared)) {
				rp.kept[x] |= 1 << l
			} else {
				add(&own)
			}
			if l == 0 {
				add(&shared)
			}
		}
	}
	a.far.reserve(far + far/16)
	a.near.reserve(near + near/16)
}

// keep appends to a what place cannot take of tile x, classified in t, from
// the cache: the shared runs and the own runs of the lanes not kept — of a
// local move's tiles, little beyond the rows that changed, whose near
// entries go to rename.
func (rp *listRepair) keep(t *tiler, a *listArena, x int) {
	lo, _ := rp.il.tileRows(x)
	a.appendRuns(&t.shared.runs)
	for l := range bits.Len8(t.full) {
		if rp.kept[x]>>l&1 == 0 {
			a.appendRuns(&t.out[l].runs)
		}
		if i := rp.prev[lo+l]; rp.dirty != nil && rp.given[x]>>l&1 != 0 && i >= 0 {
			rp.rename(t, l, int(i))
		}
	}
}

// rename adds to t.renamed the leaves that lane l's row — cached as row i,
// reclassified — holds as near entries before the update or after it, not
// both: a kept row's entry naming it changes class only if the pair's
// mutuality does, only if it gained or lost the kept row's leaf.
func (rp *listRepair) rename(t *tiler, l, i int) {
	if t.renamed == nil {
		t.renamed, t.stamp = make([]uint64, (len(t.ph.atoms.Nodes)+63)/64), make([]int32, len(t.ph.atoms.Nodes))
	}
	t.round += 2 // t.round marks a cached entry, t.round+1 one found again
	own, shared, now := rp.old.rowRuns(i), rp.old.tileRuns(int(rp.oldTile[i])), t.out[l].runs
	was := [...][]int32{own[0], own[1], own[2], shared[0], shared[1], shared[2]}
	for _, run := range was {
		for _, u := range run {
			t.stamp[u] = t.round
		}
	}
	for _, run := range [...][]int32{now[0], now[1], now[2], t.shared.runs[0], t.shared.runs[1], t.shared.runs[2]} {
		for _, u := range run {
			if t.stamp[u] == t.round {
				t.stamp[u]++
			} else {
				t.renamed[u>>6] |= 1 << (u & 63)
			}
		}
	}
	for _, run := range was {
		for _, u := range run {
			if t.stamp[u] == t.round {
				t.renamed[u>>6] |= 1 << (u & 63)
			}
		}
	}
}

// place puts tile x in its place in il, sized by now: the runs keep appended
// from a, in their order, and a kept lane's own from its cached runs, which
// must fill exactly the run counted for it.
func (rp *listRepair) place(t *tiler, a *listArena, x int) {
	lo, hi := rp.il.tileRows(x)
	shared := rp.il.tileRuns(x)
	a.takeRuns(&shared)
	from := int32(-1) // the cached tile t's demoted and promoted runs are of
	demoted, promoted := &t.shared.runs, &t.out[0].runs
	for k := lo; k < hi; k++ {
		own, i := rp.il.rowRuns(k), int(rp.prev[k])
		if rp.kept[x]>>(k-lo)&1 == 0 {
			a.takeRuns(&own)
			continue
		}
		if rp.oldTile[i] != from {
			from = rp.oldTile[i]
			for r, was := range rp.old.tileRuns(int(from)) {
				demoted[r], promoted[r] = diffRuns(demoted[r][:0], promoted[r][:0], was, shared[r], rp.visit)
			}
		}
		for r, run := range rp.old.rowRuns(i) {
			if n := len(keptRun(own[r][:0], run, demoted[r], promoted[r], rp.visit)); n != len(own[r]) {
				panic(fmt.Sprintf("core: repaired row %d run %d holds %d entries, counted %d", k, r, n, len(own[r])))
			}
		}
	}
}

// diffRuns appends to d the entries of run s that run n does not hold and to
// p those of n that s does not, both in the order of visit: what a tile's
// cached shared run s lost to its kept rows' own runs, and what n took.
func diffRuns(d, p, s, n, visit []int32) ([]int32, []int32) {
	for len(s) > 0 && len(n) > 0 && s[0] == n[0] {
		s, n = s[1:], n[1:]
	}
	for len(s) > 0 || len(n) > 0 {
		switch {
		case len(n) == 0 || len(s) > 0 && visit[s[0]] < visit[n[0]]:
			d, s = append(d, s[0]), s[1:]
		case len(s) == 0 || visit[n[0]] < visit[s[0]]:
			p, n = append(p, n[0]), n[1:]
		default:
			s, n = s[1:], n[1:]
		}
	}
	return d, p
}

// keptRun appends to dst a kept row's own run now: its cached own run o less
// the entries promoted into the tile's shared run, p, plus those demoted out
// of it, d — all in the order of visit, o copied between them in bulk.
func keptRun(dst, o, d, p, visit []int32) []int32 {
	for len(d) > 0 || len(p) > 0 {
		v := int32(math.MaxInt32)
		if len(d) > 0 {
			v = visit[d[0]]
		}
		if len(p) > 0 {
			v = min(v, visit[p[0]])
		}
		j := sort.Search(len(o), func(j int) bool { return visit[o[j]] >= v })
		dst, o = append(dst, o[:j]...), o[j:]
		if len(p) > 0 && visit[p[0]] == v {
			o, p = o[1:], p[1:]
		} else {
			dst, d = append(dst, d[0]), d[1:]
		}
	}
	return append(dst, o...)
}

// repair produces the phase's lists after an update from the cached ones:
// the tiles keptTiles carries over copy their cached runs, and the others —
// then the carried ones with a near entry of another class (reclassed) — are
// classified, each in one shared descent, into arenas that hold what the
// cache does not (listRepair). The steps are the compile's, in parallel
// throughout. o (may be nil) receives the spans and the counters
// "ilist.repair.{tiles_classified,lanes_classified,node_visits}".
func (ph *listPhase) repair(old *InteractionLists, d *treeDelta, pool *sched.Pool, o *obs.Obs) (*InteractionLists, repairCounts) {
	il := ph.newLists()
	rows := il.Rows

	sp := o.Begin(0, "ilist", "ilist.repair.retest", obs.NoVirtual)
	prev, given, retested := ph.sources(old, il, d, pool)
	counts := repairCounts{retested: retested}
	oldTile := old.tileOf()
	kept := keptTiles(old, il, oldTile, prev, given)
	rp := &listRepair{ph: ph, old: old, il: il, oldTile: oldTile, prev: prev, visit: d.visit, given: given,
		kept: make([]uint8, il.tiles())}
	if ph.symmetrize {
		rp.dirty = make([]bool, len(ph.atoms.Nodes))
	}
	var dirty []int32
	for x, g := range given {
		if kept[x] < 0 {
			dirty = append(dirty, int32(x))
		}
		lo, _ := il.tileRows(x)
		for m := g; m != 0; m &= m - 1 {
			counts.changed++
			if rp.dirty != nil {
				rp.dirty[rows[lo+bits.TrailingZeros8(m)]] = true
			}
		}
	}
	sp.End(obs.NoVirtual)

	sp = o.Begin(0, "ilist", "ilist.repair.classify", obs.NoVirtual)
	crs := []*classified{ph.classifyRows(il, dirty, pool, nil, rp.size, rp.keep)}
	if rp.dirty != nil {
		again := rp.reclassed(kept, crs[0].tilers, pool)
		for _, x := range again {
			lo, hi := il.tileRows(int(x))
			counts.resplit += hi - lo
		}
		crs = append(crs, ph.classifyRows(il, again, pool, crs[0].tilers, rp.size, rp.keep))
	}
	sp.End(obs.NoVirtual)
	for _, cr := range crs {
		o.Counter("ilist.repair.tiles_classified").Add(cr.stats.tiles)
		o.Counter("ilist.repair.lanes_classified").Add(cr.stats.lanes)
		o.Counter("ilist.repair.node_visits").Add(cr.stats.nodeVisits)
	}

	sp = o.Begin(0, "ilist", "ilist.repair.assemble", obs.NoVirtual)
	defer sp.End(obs.NoVirtual)
	// Count: a kept tile brings its cached counts, the tile's shared runs'
	// and its rows' own.
	rowArr, tileArr, oldRow, oldTiles := il.rowCSR(), il.tileCSR(), old.rowCSR(), old.tileCSR()
	forRows(pool, len(kept), func(lo, hi, _ int) {
		for t := lo; t < hi; t++ {
			if f := int(kept[t]); f >= 0 {
				carryCount(&tileArr, &oldTiles, t, f)
				rlo, rhi := il.tileRows(t)
				for k := rlo; k < rhi; k++ {
					carryCount(&rowArr, &oldRow, k, int(prev[k]))
				}
			}
		}
	})

	// Size.
	ph.alloc(il, pool)

	// Fill: kept tiles that follow each other in both lists in one copy an
	// array.
	forRows(pool, len(kept), func(lo, hi, _ int) {
		for t := lo; t < hi; t++ {
			if kept[t] < 0 {
				continue
			}
			end := t + 1
			for end < hi && kept[end] >= 0 && kept[end] == kept[end-1]+1 {
				end++
			}
			rlo, _ := il.tileRows(t)
			_, rhi := il.tileRows(end - 1)
			carryRuns(&tileArr, &oldTiles, t, end, int(kept[t]))
			carryRuns(&rowArr, &oldRow, rlo, rhi, int(prev[rlo]))
			t = end - 1
		}
	})
	for _, cr := range crs {
		cr.fill(pool, rp.place)
	}
	return il, counts
}

// reclassed takes out of kept, to be classified too, the tiles with a row
// holding a near entry of another class now: only a row whose leaf keep
// found renamed can.
func (rp *listRepair) reclassed(kept []int32, tilers []*tiler, pool *sched.Pool) (again []int32) {
	renamed := make([]uint64, (len(rp.dirty)+63)/64)
	for _, t := range tilers {
		for w := 0; t != nil && w < len(t.renamed); w++ {
			renamed[w] |= t.renamed[w]
		}
	}
	rows, flag := rp.il.Rows, make([]bool, len(kept))
	forRows(pool, len(kept), func(lo, hi, _ int) {
		var buf [chainBlocks]rowTile
		for t := lo; t < hi; t++ {
			if kept[t] < 0 {
				continue
			}
			rlo, rhi := rp.il.tileRows(t)
			var chain []rowTile
			for k := rlo; k < rhi && !flag[t]; k++ {
				if renamed[rows[k]>>6]>>(rows[k]&63)&1 == 0 {
					continue
				}
				if chain == nil {
					chain = rp.ph.ancestors(buf[:0], rows[rlo])
				}
				own, shared := rp.old.rowRuns(int(rp.prev[k])), rp.old.tileRuns(int(kept[t]))
				flag[t] = rp.reclasses(int32(k), chain, &own, &shared)
			}
		}
	})
	for t, f := range flag {
		if f {
			again, kept[t] = append(again, int32(t)), -1
		}
	}
	return again
}

// carryCount sets the count of run i of every array of to — its offset
// arrays still counts, before alloc — to the length of run j of from's.
func carryCount(to, from *[runFar + 1]csr, i, j int) {
	for r := range to {
		(*to[r].off)[i+1] = int32(len(from[r].run(j)))
	}
}

// carryRuns copies runs j, j+1, … of every array of from into runs [i0,
// i1) of to's, in one copy an array.
func carryRuns(to, from *[runFar + 1]csr, i0, i1, j int) {
	for r := range to {
		toOff, fromOff := *to[r].off, *from[r].off
		copy((*to[r].ents)[toOff[i0]:toOff[i1]], (*from[r].ents)[fromOff[j]:fromOff[j+i1-i0]])
	}
}

// A kept row's near entries keep their classes but those naming a
// RECLASSIFIED row (dirty): its pre-symmetrization list is what it was, and
// surviving leaves keep their relative order, so a pair's lower row stays
// the lower. Row V's entry U is mutual iff row U's descent reaches leaf V —
// iff no strict ancestor of V is far from cluster U (listPhase.reaches, the
// rule a classification applies a tile at a time).

// kindOf classes entry u of row k, whose leaf's ancestors are chain.
func (rp *listRepair) kindOf(k int32, chain []rowTile, u int32) int {
	j := rp.ph.rowOf[u]
	return nearKind(k, j, j != k && rp.ph.reaches(chain, u))
}

// reclasses reports whether a near entry of cached runs of row k — its own,
// or its tile's shared ones — names a reclassified row and has another class
// now; chain holds the ancestors of row k's leaf.
func (rp *listRepair) reclasses(k int32, chain []rowTile, runs ...*[runFar + 1][]int32) bool {
	for _, rr := range runs {
		for was, run := range rr[:runFar] {
			for _, u := range run {
				if rp.dirty[u] && rp.kindOf(k, chain, u) != was {
					return true
				}
			}
		}
	}
	return false
}
