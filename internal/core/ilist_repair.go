package core

import (
	"fmt"
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
// repair re-runs each row's descent over the nodes that MOVED, on their
// geometry before the update and after it, and reclassifies the row — with
// the rest of its tile — only where the two descents part: exactly, not up
// to a bound. Kept tiles copy their cached entries; the result is
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
	// afresh with the rest of its tile — and RowsTotal all list rows, across
	// both phases (valid only when Repaired).
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
// per repair, "ilist.repair.{hot_nodes,rows_retested,rows_resplit}", the
// span "ilist.repair.delta" and, for each phase,
// "ilist.repair.{retest,classify,assemble}".
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

// keeps is the differential descent: whether the cached row of an unmoved
// cluster (center, radius) still stands below hot node n. It is the
// classification's walk (tiler.descend) for one row, taken on the old and the
// new geometry at once. While both verdicts
// say "open" it goes on — into hot children only, since the row's descent
// of a cold subtree is the one it was — and it gives the row up at the first
// node whose two verdicts differ, or that both
// descents open and the update restructured: a child gained or lost there
// is at least one entry gained or lost. So the test is exact both ways: a
// row it gives up has lists that changed, a row it keeps has the lists a
// fresh compile would give it.
func (ph *listPhase) keeps(n int32, center geom.Vec3, radius float64, d *treeDelta) bool {
	if int(n) >= len(d.before.r) {
		return false // a new node: the old descent had nothing here
	}
	node, wasLeaf := &ph.atoms.Nodes[n], d.before.leaf[n]
	if ph.leafFirst && (wasLeaf || node.IsLeaf) {
		return wasLeaf == node.IsLeaf // a near leaf, unless split since
	}
	farWas := ph.verdict(openingDist2(center, d.before.c[n]), radius, d.before.r[n])
	far := ph.verdict(openingDist2(center, node.Center), radius, node.Radius)
	switch {
	case far != farWas:
		return false
	case far:
		return true // the same aggregate, whatever is below
	case d.state[n] == restructuredNode:
		return false
	case node.IsLeaf:
		return true
	}
	for _, child := range node.Children {
		if child != octree.NoChild && d.state[child] != coldNode && !ph.keeps(child, center, radius, d) {
			return false
		}
	}
	return true
}

// repairCounts is what one phase's repair did, in rows: changed by the
// update (the re-test gave them up, or they are new — each classified
// afresh with the rest of its tile), re-tested over the hot nodes, and kept
// but split again.
type repairCounts struct{ changed, retested, resplit int }

// sources returns, for every current row, the cached row it carries over,
// or −1 for a row to classify: a new leaf's, an atom leaf's that moved
// itself (every test of its descent has a new operand), or one the re-test
// — whose runs it counts in retested — does not keep. Rows follow the
// rowTree's CURRENT leaves, so rows of dead leaves drop out here. It runs in
// parallel: a row's re-test reads only the tree and d.
func (ph *listPhase) sources(old *InteractionLists, rows []int32, d *treeDelta, pool *sched.Pool) (src []int32, retested int) {
	oldIdx := make([]int32, len(ph.rowTree.Nodes))
	for i := range oldIdx {
		oldIdx[i] = -1
	}
	for i, r := range old.Rows {
		oldIdx[r] = int32(i)
	}
	src = make([]int32, len(rows))
	var descents atomic.Int64
	forRows(pool, len(rows), func(lo, hi, _ int) {
		ran := 0
		for k, r := range rows[lo:hi] {
			i := oldIdx[r]
			switch {
			case i < 0:
			case ph.leafFirst && d.state[r] != coldNode:
				i = -1
			default:
				ran++
				if rn := &ph.rowTree.Nodes[r]; !ph.keeps(ph.atoms.Root(), rn.Center, rn.Radius, d) {
					i = -1
				}
			}
			src[lo+k] = i
		}
		descents.Add(int64(ran))
	})
	return src, int(descents.Load())
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
// whole: its rows are the rows of one tile of old, in their order, and
// every one of them is kept (src). Any other tile is classified whole, in
// one shared descent.
func keptTiles(old, il *InteractionLists, oldTile, src []int32) []int32 {
	kept := make([]int32, il.tiles())
	for t := range kept {
		kept[t] = -1
		lo, hi := il.tileRows(t)
		i := src[lo]
		if i < 0 {
			continue
		}
		olo, ohi := old.tileRows(int(oldTile[i]))
		keep := int(i) == olo && ohi-olo == hi-lo
		for k := lo; keep && k < hi; k++ {
			keep = src[k] == i+int32(k-lo)
		}
		if keep {
			kept[t] = oldTile[i]
		}
	}
	return kept
}

// repair produces the phase's lists after an update from the cached ones:
// the tiles keptTiles carries over copy their cached runs, shared and own,
// the others are classified afresh (classifyRows), and in a symmetrized
// phase a kept tile's near entries whose class can have changed — those
// naming a reclassified row — are split again by nearSplit. The steps are
// the compile's: count every row's and tile's entries, size the arrays
// once, fill them in place, in parallel throughout. o (may be nil) receives
// the spans.
func (ph *listPhase) repair(old *InteractionLists, d *treeDelta, pool *sched.Pool, o *obs.Obs) (*InteractionLists, repairCounts) {
	il := ph.newLists()
	rows := il.Rows

	sp := o.Begin(0, "ilist", "ilist.repair.retest", obs.NoVirtual)
	src, retested := ph.sources(old, rows, d, pool)
	counts := repairCounts{retested: retested}
	for _, i := range src {
		if i < 0 {
			counts.changed++
		}
	}
	oldTile := old.tileOf()
	kept := keptTiles(old, il, oldTile, src)
	sp.End(obs.NoVirtual)

	sp = o.Begin(0, "ilist", "ilist.repair.classify", obs.NoVirtual)
	var dirty []int32
	for t, f := range kept {
		if f < 0 {
			dirty = append(dirty, int32(t))
		}
	}
	// Classify the dirty tiles twice — to count, then in place — rather than
	// keep what they hold in arenas beside the lists being built: a
	// whole-tile repair of a local move reclassifies a third of the rows, and
	// their arenas would take it past what a compile allocates per list byte
	// (EXPERIMENTS.md, "What a tile of sibling rows takes").
	cr := ph.classifyRows(il, dirty, pool, false)
	sp.End(obs.NoVirtual)

	sp = o.Begin(0, "ilist", "ilist.repair.assemble", obs.NoVirtual)
	defer sp.End(obs.NoVirtual)
	var split *nearSplit
	var resplit []bool // kept rows whose near runs must be split again
	if ph.symmetrize {
		split = &nearSplit{ph: ph, d: d, rows: rows, dirty: make([]bool, len(ph.atoms.Nodes))}
		for k, i := range src {
			if i < 0 {
				split.dirty[rows[k]] = true
			}
		}
		resplit = make([]bool, len(rows))
	}

	// Count: a kept tile brings its cached counts, the tile's shared runs'
	// and its rows' own, less and plus the entries that change class.
	rowArr, tileArr, oldRow, oldTiles := il.rowCSR(), il.tileCSR(), old.rowCSR(), old.tileCSR()
	forRows(pool, len(kept), func(lo, hi, _ int) {
		for t := lo; t < hi; t++ {
			f := int(kept[t])
			if f < 0 {
				continue
			}
			carryCount(&tileArr, &oldTiles, t, f)
			rlo, rhi := il.tileRows(t)
			shared := false
			if split != nil {
				// The lanes of one tile agree on the class of an entry they
				// all take: its first row speaks for the shared runs.
				runs := old.tileRuns(f)
				shared = split.recount(&tileArr, t, &runs, int32(rlo))
			}
			for k := rlo; k < rhi; k++ {
				carryCount(&rowArr, &oldRow, k, int(src[k]))
				if split != nil {
					runs := old.rowRuns(int(src[k]))
					resplit[k] = split.recount(&rowArr, k, &runs, int32(k)) || shared
				}
			}
		}
	})
	for _, again := range resplit {
		if again {
			counts.resplit++
		}
	}

	// Size.
	ph.alloc(il, pool)

	// Fill.
	forRows(pool, len(kept), func(lo, hi, _ int) {
		for t := lo; t < hi; t++ {
			f := int(kept[t])
			if f < 0 {
				continue
			}
			rlo, rhi := il.tileRows(t)
			if split == nil || !resplit[rlo] {
				carryRun(&tileArr, &oldTiles, t, f)
			} else {
				split.merge(&tileArr, t, old.tileRuns(f), int32(rlo))
			}
			for k := rlo; k < rhi; k++ {
				if i := int(src[k]); split == nil || !resplit[k] {
					carryRun(&rowArr, &oldRow, k, i)
				} else {
					split.merge(&rowArr, k, old.rowRuns(i), int32(k))
				}
			}
		}
	})
	cr.fill(il, pool)
	return il, counts
}

// carryCount sets the count of run i of every array of to — its offset
// arrays still counts, before alloc — to the length of run j of from's.
func carryCount(to, from *[runFar + 1]csr, i, j int) {
	for r := range to {
		(*to[r].off)[i+1] = int32(len(from[r].run(j)))
	}
}

// carryRun copies run j of every array of from into run i of to's.
func carryRun(to, from *[runFar + 1]csr, i, j int) {
	for r := range to {
		copy(to[r].run(i), from[r].run(j))
	}
}

// nearSplit classes the near entries of a KEPT tile of a symmetrized phase
// whose class an update can have changed. Row V's entry U is mutual iff row
// U's descent reaches leaf V — iff no strict ancestor of V is far from
// cluster U (listPhase.reaches, the rule a classification applies a tile at
// a time). A kept row's pre-symmetrization list is what it was, so only an
// entry naming a RECLASSIFIED row can change class; and surviving leaves
// keep their relative order, so a pair's lower row stays the lower. Nor can
// an entry move between a tile's shared runs and its rows' own: the tile's
// rows share their ancestors, so they agree on whether the pair is mutual,
// and a row of the tile itself is reclassified only with the tile.
type nearSplit struct {
	ph *listPhase
	d  *treeDelta
	// rows are the current rows' leaves; dirty marks the leaves whose rows
	// were reclassified.
	rows  []int32
	dirty []bool
}

// kindOf classes entry u of row k, whose leaf's ancestors are chain.
func (s *nearSplit) kindOf(k int32, chain []rowTile, u int32) int {
	j := s.ph.rowOf[u]
	return nearKind(k, j, j != k && s.ph.reaches(chain, u))
}

// recount re-decides the entries of cached runs — row k's own, or its
// tile's shared ones — that name a reclassified row, adjusts the counts of
// run i of arr for those that changed class, and reports whether any did.
func (s *nearSplit) recount(arr *[runFar + 1]csr, i int, runs *[runFar + 1][]int32, k int32) (changed bool) {
	var buf [chainBlocks]rowTile
	var chain []rowTile
	for was, run := range runs[:runFar] {
		for _, u := range run {
			if !s.dirty[u] {
				continue
			}
			if chain == nil {
				chain = s.ph.ancestors(buf[:0], s.rows[k])
			}
			if now := s.kindOf(k, chain, u); now != was {
				(*arr[was].off)[i+1]--
				(*arr[now].off)[i+1]++
				changed = true
			}
		}
	}
	return changed
}

// merge writes cached runs — row k's own, or its tile's shared ones — to
// run i of arr with the entries naming a reclassified row classed anew: a
// 3-way merge of the near runs back into classification visit order, each
// entry going to the run of its class, and the far run as it was. Each
// cached run is already in that order — symmetrization split the emission
// into three order-preserving subsequences, and surviving nodes keep their
// relative pre-order under materializations, prunes and splits — so every
// run comes out as a fresh compile would emit it.
func (s *nearSplit) merge(arr *[runFar + 1]csr, i int, runs [runFar + 1][]int32, k int32) {
	var buf [chainBlocks]rowTile
	chain := s.ph.ancestors(buf[:0], s.rows[k])
	var at [runFar]int32
	for r := range at {
		at[r] = (*arr[r].off)[i]
	}
	for {
		b := -1
		for r := range at {
			if len(runs[r]) > 0 && (b < 0 || s.d.visit[runs[r][0]] < s.d.visit[runs[b][0]]) {
				b = r
			}
		}
		if b < 0 {
			break
		}
		u, kd := runs[b][0], b
		runs[b] = runs[b][1:]
		if s.dirty[u] {
			kd = s.kindOf(k, chain, u)
		}
		(*arr[kd].ents)[at[kd]] = u
		at[kd]++
	}
	copy(arr[runFar].run(i), runs[runFar])
}
