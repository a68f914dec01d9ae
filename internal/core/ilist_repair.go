package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// descent, and keeps what its change did to the cache; kept tiles copy their
// cached entries, but those whose pair with a changed row turned mutual or
// one-way, which the tree decides again (reclassed). The result is
// byte-for-byte a full recompile (RecheckLists verifies exactly that), and
// nothing is stored for the repair's sake: a list is its index.

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
	// (pre-order, children in octant order), −1 a node the update pruned.
	// Node IDS stop being in visit order once tracked updates materialize
	// leaves, so the repair merges runs on visit; a surviving node keeps its
	// place in it.
	visit []int32
}

// newTreeDelta compares the updated tree against the geometry it had
// before and folds in the update's structural-change report (nil: no
// structural change), in one walk.
func newTreeDelta(atoms *octree.Tree, before treeGeometry, strct []bool) *treeDelta {
	nn := len(atoms.Nodes)
	d := &treeDelta{before: before, state: make([]uint8, nn), visit: make([]int32, nn)}
	for id := range d.visit {
		d.visit[id] = -1
	}
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
	// tile the re-test gave up, and dirty the leaves of the changed rows (nil
	// in an unsymmetrized phase, which has no classes).
	oldTile, prev, visit []int32
	given                []uint8
	dirty                []bool
}

// deltaGuess is what size reserves for each changed row of a tile: the
// entries of a row its change moves, beyond a new leaf's whole row, a
// handful.
const deltaGuess = 16

// size sizes a's first near block for a chunk of tiles, for what keep
// appends: a few entries for each changed row. A chunk with more — new
// leaves, or rows whose runs changed much — goes on in further blocks.
func (rp *listRepair) size(a *listArena, chunk []int32, _ *tiler) {
	n := 0
	for _, x := range chunk {
		n += runFar + 1 + 2*deltaGuess*bits.OnesCount8(rp.given[x])
	}
	a.reserve(0, n, 0)
}

// keep appends to a's near blocks what tile x, classified in t, changes in
// the cache: of each class, every entry whose mask — the rows of x that take
// it, all of them for a shared entry — differs from the rows that held it in
// the cache (cachedRun), beside its mask now, 0 for one no row takes now;
// the lengths of the three runs first. A row the re-test kept holds what it
// held, so of a local move's tiles that is little beyond the rows that
// changed. The leaves the changed rows with a cached row gained or lost in
// their Sym runs go to t.renamed: the pair's mutuality flipped, and the
// higher row, whose leaf that is, gains or loses its Near entry of the
// changed row (reclassed).
func (rp *listRepair) keep(t *tiler, a *listArena, x int) {
	var changed uint8 // the changed rows with a cached row
	if rp.dirty != nil {
		lo, _ := rp.il.tileRows(x)
		for m := rp.given[x]; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros8(m); rp.prev[lo+l] >= 0 {
				changed |= 1 << l
			}
		}
	}
	if changed != 0 && t.renamed == nil {
		t.renamed = make([]uint64, (len(rp.dirty)+63)/64)
	}
	d := t.delta[:0]
	var lens [runFar + 1]int32
	var was cachedRun
	rp.cached(&was, x)
	for r := range lens {
		at, noted := len(d), r == kindSym && changed != 0
		if s := was.whole(); s != nil && slices.Equal(s.runs[r], t.shared.runs[r]) &&
			slices.Equal(s.ownRuns.runs[r], t.own.runs[r]) && slices.Equal(s.ownRuns.masks[r], t.own.masks[r]) {
			continue // nothing changed: no entry, and no rename
		}
		was.class(r)
		fresh := freshRun{shared: t.shared.runs[r], own: t.own.runs[r], masks: t.own.masks[r], full: t.full}
		ce, cm := was.next()
		ne, nm := fresh.next(rp.visit)
		for ce >= 0 || ne >= 0 {
			u, held, holds := ne, uint8(0), uint8(0) // the entry, its rows in the cache and now
			switch {
			case ne < 0 || ce >= 0 && rp.visit[ce] < rp.visit[ne]:
				u, held = ce, cm
				ce, cm = was.next()
			case ce < 0 || rp.visit[ne] < rp.visit[ce]:
				holds = nm
				ne, nm = fresh.next(rp.visit)
			default:
				held, holds = cm, nm
				ce, cm = was.next()
				ne, nm = fresh.next(rp.visit)
			}
			if held != holds {
				d = append(d, u, int32(holds))
			}
			if noted && (held^holds)&changed != 0 {
				t.renamed[u>>6] |= 1 << (u & 63)
			}
		}
		lens[r] = int32(len(d) - at)
	}
	t.delta = d
	a.near.append(lens[:])
	a.near.append(d)
}

// place puts tile x in its place in il from what keep appended to a: of each
// class, the entries its rows held in the cache (cachedRun) with the masks
// keep recorded put over theirs, merged on visit order — one every row
// takes to the shared run (where the phase shares the class: the Born
// phase's near leaves stay own), one some rows take to the own run, one
// none takes dropped. They must fill exactly the runs counted for them.
func (rp *listRepair) place(t *tiler, a *listArena, x int) {
	shared, own := rp.il.tileRuns(x), rp.il.ownRuns(x)
	lo, hi := rp.il.tileRows(x)
	full := uint8(1)<<(hi-lo) - 1
	var lens [runFar + 1]int32
	a.near.take(lens[:])
	n := 0
	for _, l := range lens {
		n += int(l)
	}
	t.delta = slices.Grow(t.delta[:0], n)[:n]
	a.near.take(t.delta)
	d := t.delta
	var was cachedRun
	rp.cached(&was, x)
	for r := range lens {
		run := d[:lens[r]]
		d = d[lens[r]:]
		if s := was.whole(); s != nil && len(run) == 0 && len(s.runs[r]) == len(shared[r]) && len(s.ownRuns.runs[r]) == len(own.runs[r]) {
			copy(shared[r], s.runs[r]) // unchanged: the cached tile's runs
			copy(own.runs[r], s.ownRuns.runs[r])
			copy(own.masks[r], s.ownRuns.masks[r])
			continue
		}
		was.class(r)
		ns, no, share := 0, 0, full
		if r != runFar && !rp.ph.symmetrize {
			share = 0
		}
		e, m := was.next()
		for e >= 0 || len(run) > 0 {
			u, mu := e, m
			if len(run) > 0 && (e < 0 || rp.visit[run[0]] <= rp.visit[e]) {
				if run[0] == e {
					e, m = was.next()
				}
				u, mu, run = run[0], uint8(run[1]), run[2:]
			} else {
				e, m = was.next()
			}
			switch {
			case mu == 0:
			case mu == share && ns < len(shared[r]):
				shared[r][ns], ns = u, ns+1
			case mu != share && no < len(own.runs[r]):
				own.runs[r][no], own.masks[r][no], no = u, mu, no+1
			default:
				ns = len(shared[r]) + 1 // one past the runs counted
			}
		}
		if ns != len(shared[r]) || no != len(own.runs[r]) {
			panic(fmt.Sprintf("core: repaired tile %d %s runs: %d shared and %d own entries put back, %d and %d counted",
				x, runNames[r], ns, no, len(shared[r]), len(own.runs[r])))
		}
	}
}

// cachedRun walks, in visit order, the entries of one class that the rows of
// a tile held in the cache, each with the mask of those rows: the runs of
// the cached tiles they come from merged, an entry the update pruned left
// out.
type cachedRun struct {
	visit []int32
	n     int // sources in srcs
	srcs  [tileLanes]tileSource
}

// tileSource is a cached tile that rows of a tile come from — whole if they
// are its rows and the tile's, lane for lane: lanes holds
// their lanes in the tile, old the cached lanes they were and bit[li] the
// lane of the one that was its lane li — shift lanes on, where that is the
// same for all (the rows ascend in both lists, so it mostly is), else
// noShift; its runs, shared and own, and of the class walked what is left
// of them.
type tileSource struct {
	tile        int
	whole       bool
	lanes, old  uint8
	bit         [tileLanes]uint8
	shift       int
	runs        [runFar + 1][]int32
	ownRuns     laneRuns
	shared, own []int32
	masks       []uint8
}

// noShift is a tileSource's shift where its lanes moved unevenly.
const noShift = tileLanes

// cached sets c up for tile x: its rows with a cached row, by the cached
// tile they come from.
func (rp *listRepair) cached(c *cachedRun, x int) {
	c.visit, c.n = rp.visit, 0
	lo, hi := rp.il.tileRows(x)
	for l := range hi - lo {
		i := int(rp.prev[lo+l])
		if i < 0 {
			continue
		}
		f := int(rp.oldTile[i])
		k := 0
		for k < c.n && c.srcs[k].tile != f {
			k++
		}
		li := i - int(rp.old.TileOff[f])
		if k == c.n {
			c.srcs[k] = tileSource{tile: f, shift: l - li, runs: rp.old.tileRuns(f), ownRuns: rp.old.ownRuns(f)}
			c.n++
		}
		src := &c.srcs[k]
		src.lanes, src.old, src.bit[li] = src.lanes|1<<l, src.old|1<<li, 1<<l
		if l-li != src.shift {
			src.shift = noShift
		}
	}
	if s := &c.srcs[0]; c.n == 1 {
		flo, fhi := rp.old.tileRows(s.tile)
		s.whole = s.shift == 0 && s.lanes == uint8(1)<<(hi-lo)-1 && fhi-flo == hi-lo
	}
}

// whole returns the one cached tile c walks if it held the tile's rows,
// lane for lane, and no others; else nil.
func (c *cachedRun) whole() *tileSource {
	if c.n == 1 && c.srcs[0].whole {
		return &c.srcs[0]
	}
	return nil
}

// class starts c on class r (a class, or runFar).
func (c *cachedRun) class(r int) {
	for k := range c.n {
		s := &c.srcs[k]
		s.shared, s.own, s.masks = s.runs[r], s.ownRuns.runs[r], s.ownRuns.masks[r]
	}
}

// next returns the next entry and its mask, −1 past the last.
func (c *cachedRun) next() (e int32, m uint8) {
	if c.n == 1 { // the common case: a cached tile's shared and own runs
		s := &c.srcs[0]
		s.skip(c.visit)
		switch {
		case len(s.shared) > 0 && (len(s.own) == 0 || c.visit[s.shared[0]] < c.visit[s.own[0]]):
			e, m, s.shared = s.shared[0], s.lanes, s.shared[1:]
		case len(s.own) > 0:
			e, m = s.own[0], s.lanesOf(s.masks[0])
			s.own, s.masks = s.own[1:], s.masks[1:]
		default:
			return -1, 0
		}
		return e, m
	}
	v := int32(math.MaxInt32)
	for k := range c.n {
		s := &c.srcs[k]
		s.skip(c.visit)
		if len(s.shared) > 0 {
			v = min(v, c.visit[s.shared[0]])
		}
		if len(s.own) > 0 {
			v = min(v, c.visit[s.own[0]])
		}
	}
	if v == math.MaxInt32 {
		return -1, 0
	}
	for k := range c.n {
		s := &c.srcs[k]
		if len(s.shared) > 0 && c.visit[s.shared[0]] == v {
			e, m, s.shared = s.shared[0], m|s.lanes, s.shared[1:]
		}
		if len(s.own) > 0 && c.visit[s.own[0]] == v {
			e, m = s.own[0], m|s.lanesOf(s.masks[0])
			s.own, s.masks = s.own[1:], s.masks[1:]
		}
	}
	return e, m
}

// skip drops the heads of s's runs the tile walked does not hold: a node
// the update pruned, an own entry none of its rows took.
func (s *tileSource) skip(visit []int32) {
	for len(s.shared) > 0 && visit[s.shared[0]] < 0 {
		s.shared = s.shared[1:]
	}
	for len(s.own) > 0 && (visit[s.own[0]] < 0 || s.masks[0]&s.old == 0) {
		s.own, s.masks = s.own[1:], s.masks[1:]
	}
}

// lanesOf returns the lanes of the tile walked that a cached mask of s's
// names.
func (s *tileSource) lanesOf(mask uint8) (m uint8) {
	mask &= s.old
	switch {
	case s.shift == noShift:
		for ; mask != 0; mask &= mask - 1 {
			m |= s.bit[bits.TrailingZeros8(mask)]
		}
		return m
	case s.shift >= 0:
		return mask << s.shift
	}
	return mask >> -s.shift
}

// freshRun walks a classified tile's entries of one class in visit order,
// each with its mask: its shared run, every lane (full), and its own run.
type freshRun struct {
	shared, own []int32
	masks       []uint8
	full        uint8
}

// next returns the next entry and its mask, −1 past the last.
func (f *freshRun) next(visit []int32) (e int32, m uint8) {
	switch {
	case len(f.shared) > 0 && (len(f.own) == 0 || visit[f.shared[0]] < visit[f.own[0]]):
		e, m, f.shared = f.shared[0], f.full, f.shared[1:]
	case len(f.own) > 0:
		e, m, f.own, f.masks = f.own[0], f.masks[0], f.own[1:], f.masks[1:]
	default:
		return -1, 0
	}
	return e, m
}

// repair produces the phase's lists after an update from the cached ones:
// the tiles keptTiles carries over copy their cached runs, and the others —
// then the carried ones whose near entries changed (reclassed) — are
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
	rp := &listRepair{ph: ph, old: old, il: il, oldTile: oldTile, prev: prev, visit: d.visit, given: given}
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
	// Count: a kept tile brings its cached counts.
	ownArr, tileArr, oldOwn, oldTiles := il.ownCSR(), il.tileCSR(), old.ownCSR(), old.tileCSR()
	forRows(pool, len(kept), func(lo, hi, _ int) {
		for t := lo; t < hi; t++ {
			if f := int(kept[t]); f >= 0 {
				carryCount(&tileArr, &oldTiles, t, f)
				carryCount(&ownArr, &oldOwn, t, f)
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
			carryRuns(&tileArr, &oldTiles, t, end, int(kept[t]))
			carryRuns(&ownArr, &oldOwn, t, end, int(kept[t]))
			t = end - 1
		}
	})
	for _, cr := range crs {
		cr.fill(pool, rp.place)
	}
	return il, counts
}

// reclassed takes out of kept, to be classified too, the tiles with a row
// whose entries naming a changed row (dirty) are not what they were: the
// pair's mutuality flipped. A kept row K's descent is the one it was, so
// whether K reaches a changed row V is fixed, and only whether V reaches K
// can flip. Above V (K > V), K holds V in Near for a one-way pair and not at
// all for a mutual one, so its entry flips exactly when V gained or lost K's
// leaf in its Sym run, which keep saw (renamed): such a tile is classified
// again outright. Below V (K < V), K holds V in Sym or in Near, and each
// cached entry naming a changed leaf above a row of the tile is re-decided
// (reclasses).
func (rp *listRepair) reclassed(kept []int32, tilers []*tiler, pool *sched.Pool) (again []int32) {
	renamed := make([]uint64, (len(rp.dirty)+63)/64)
	for _, t := range tilers {
		for w := 0; t != nil && w < len(t.renamed); w++ {
			renamed[w] |= t.renamed[w]
		}
	}
	flag := make([]bool, len(kept))
	forRows(pool, len(kept), func(lo, hi, _ int) {
		var buf [chainBlocks]rowTile
		for t := lo; t < hi; t++ {
			flag[t] = kept[t] >= 0 && rp.reclasses(t, int(kept[t]), renamed, buf[:0])
		}
	})
	for t, f := range flag {
		if f {
			again, kept[t] = append(again, int32(t)), -1
		}
	}
	return again
}

// reclasses reports whether kept tile x, carried over from cached tile
// from, is to be classified again: a row of it is renamed, or a cached Near
// or Sym entry names a changed leaf above a row that holds it and is of the
// other class now (flips). chain is room for the tile's ancestors.
func (rp *listRepair) reclasses(x, from int, renamed []uint64, chain []rowTile) bool {
	rows := rp.il.Rows
	lo, hi := rp.il.tileRows(x)
	for _, r := range rows[lo:hi] {
		if renamed[r>>6]>>(r&63)&1 != 0 {
			return true
		}
	}
	shared, own := rp.old.tileRuns(from), rp.old.ownRuns(from)
	for was := range runFar {
		for e, u := range own.runs[was] {
			if rp.dirty[u] && rp.ph.rowOf[u] > int32(lo+bits.TrailingZeros8(own.masks[was][e])) &&
				rp.flips(was, u, &chain, rows[lo]) {
				return true
			}
		}
		for _, u := range shared[was] {
			if rp.dirty[u] && rp.ph.rowOf[u] > int32(lo) && rp.flips(was, u, &chain, rows[lo]) {
				return true
			}
		}
	}
	return false
}

// flips reports whether the entry u of class was that rows of leaf v's tile
// hold is of the other class now: whether u's row reaches v's leaf — the
// pair is mutual (listPhase.reaches, the rule a classification applies) —
// is not whether the entry is Sym. *chain holds v's ancestors, taken on
// first use.
func (rp *listRepair) flips(was int, u int32, chain *[]rowTile, v int32) bool {
	if len(*chain) == 0 {
		*chain = rp.ph.ancestors(*chain, v)
	}
	return rp.ph.reaches(*chain, u) != (was == kindSym)
}

// carryCount sets the count of run i of every array of to — its offset
// arrays still counts, before alloc — to the length of run j of from's.
func carryCount(to, from *[runFar + 1]csr, i, j int) {
	for r := range to {
		(*to[r].off)[i+1] = int32(len(from[r].run(j)))
	}
}

// carryRuns copies runs j, j+1, … of every array of from into runs [i0,
// i1) of to's, in one copy an array, and their masks alike.
func carryRuns(to, from *[runFar + 1]csr, i0, i1, j int) {
	for r := range to {
		toOff, fromOff := *to[r].off, *from[r].off
		a, b, c, d := toOff[i0], toOff[i1], fromOff[j], fromOff[j+i1-i0]
		copy((*to[r].ents)[a:b], (*from[r].ents)[c:d])
		if to[r].masks != nil {
			copy((*to[r].masks)[a:b], (*from[r].masks)[c:d])
		}
	}
}
