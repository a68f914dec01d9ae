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
// geometry before the update and after it, and reclassifies the row only
// where the two descents part — exactly, not up to a bound. Kept rows copy
// their cached entries; the result is byte-for-byte a full recompile
// (RecheckLists verifies exactly that), and nothing is stored for the
// repair's sake: a list is its index.

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
	// afresh, a Born row with the rest of its tile — and RowsTotal all list
	// rows, across both phases (valid only when Repaired).
	RowsRepaired, RowsTotal int
}

// UpdateAtomsRepair moves the atoms to new positions (original atom
// order) like UpdateAtoms, but uses the tracked octree update and its
// structural-change report to repair the compiled interaction lists in
// place instead of discarding them. When repair is impossible it degrades
// to UpdateAtoms semantics (lists invalidated) and says why: o (may be nil)
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
		// What the octree returned when it made this check itself: a
		// keyless tree's update announces its rebuild even as it fails.
		return UpdateStats{Rebuilt: s.Atoms.Keys() == nil}, err
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
// molecule record, the slot-ordered payloads and the SoA mirrors —
// everything UpdateAtoms does after the octree call except list
// invalidation, which the callers decide.
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
	// order once tracked updates materialize leaves, so a row's near runs
	// merge on visit.
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
// afresh, a tileFar phase's with the rest of its tile), re-tested over the
// hot nodes, and kept but split again.
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

// wholeTiles widens a tileFar phase's rows to classify — src's −1s — to
// whole tiles. A tile's shared run is a function of all of its rows, so a
// tile is carried over only whole: every row kept, and kept in its place
// (the Born rows are q-point leaves, which an atom update leaves as they
// were). Any other tile is classified whole, in one shared descent.
func wholeTiles(src []int32) {
	for lo := 0; lo < len(src); lo += tileLanes {
		hi := min(lo+tileLanes, len(src))
		keep := true
		for k := lo; keep && k < hi; k++ {
			keep = src[k] == int32(k)
		}
		for k := lo; !keep && k < hi; k++ {
			src[k] = -1
		}
	}
}

// repair produces the phase's lists after an update from the cached ones:
// the rows sources keeps copy their cached runs (in a tileFar phase, whole
// tiles of them with their shared runs: wholeTiles), the others are
// classified afresh (classifyRows), and in a symmetrized phase a kept row's
// near entries whose class can have changed — those naming a reclassified
// row — are split again by nearSplit. The steps are the compile's: count
// every row's entries, size the arrays once, fill them in place, in
// parallel throughout. o (may be nil) receives the spans.
func (ph *listPhase) repair(old *InteractionLists, d *treeDelta, pool *sched.Pool, o *obs.Obs) (*InteractionLists, repairCounts) {
	il := ph.newLists()
	rows, n := il.Rows, len(il.Rows)

	sp := o.Begin(0, "ilist", "ilist.repair.retest", obs.NoVirtual)
	src, retested := ph.sources(old, rows, d, pool)
	changed := 0
	for _, i := range src {
		if i < 0 {
			changed++
		}
	}
	if ph.tileFar {
		wholeTiles(src)
	}
	sp.End(obs.NoVirtual)

	sp = o.Begin(0, "ilist", "ilist.repair.classify", obs.NoVirtual)
	var dirty []int32
	for k, i := range src {
		if i < 0 {
			dirty = append(dirty, int32(k))
		}
	}
	cr := ph.classifyRows(il, dirty, pool)
	sp.End(obs.NoVirtual)

	sp = o.Begin(0, "ilist", "ilist.repair.assemble", obs.NoVirtual)
	defer sp.End(obs.NoVirtual)
	counts := repairCounts{changed: changed, retested: retested}
	var split *nearSplit
	var resplit []bool // kept rows whose near runs must be split again
	if ph.symmetrize {
		split = &nearSplit{ph: ph, d: d, rows: rows, dirty: make([]bool, len(ph.atoms.Nodes))}
		for _, k := range dirty {
			split.dirty[rows[k]] = true
		}
		resplit = make([]bool, n)
	}

	// Count: classified rows have their counts already; kept rows bring their
	// cached ones, less and plus the entries that change class, and a kept
	// tile its shared run's.
	forRows(pool, n, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			i := src[k]
			if i < 0 {
				continue
			}
			if t := k / tileLanes; il.TileFarOff != nil && k%tileLanes == 0 { // kept whole, in place
				il.TileFarOff[t+1] = old.TileFarOff[t+1] - old.TileFarOff[t]
			}
			il.FarOff[k+1] = old.FarOff[i+1] - old.FarOff[i]
			runs := old.nearRuns(i)
			cnt := [3]int32{int32(len(runs[kindNear])), int32(len(runs[kindSym])), int32(len(runs[kindCede]))}
			if split != nil {
				resplit[k] = split.recount(int32(k), &runs, &cnt)
			}
			il.NearOff[k+1], il.SymOff[k+1], il.CedeOff[k+1] = cnt[kindNear], cnt[kindSym], cnt[kindCede]
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
	forRows(pool, n, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			i := src[k]
			if i < 0 {
				continue
			}
			if t := k / tileLanes; il.TileFarOff != nil && k%tileLanes == 0 {
				copy(il.TileFar[il.TileFarOff[t]:], old.tileFar(t))
			}
			copy(il.Far[il.FarOff[k]:], old.Far[old.FarOff[i]:old.FarOff[i+1]])
			runs := old.nearRuns(i)
			if split != nil && resplit[k] {
				split.merge(il, int32(k), runs)
				continue
			}
			copy(il.Near[il.NearOff[k]:], runs[kindNear])
			copy(il.Sym[il.SymOff[k]:], runs[kindSym])
			copy(il.Cede[il.CedeOff[k]:], runs[kindCede])
		}
	})
	cr.fill(il, pool)
	return il, counts
}

// nearRuns returns cached row i's Near, Sym and Cede runs, indexed by
// class — together, its pre-symmetrization near list.
func (il *InteractionLists) nearRuns(i int32) [3][]int32 {
	return [3][]int32{
		kindNear: il.Near[il.NearOff[i]:il.NearOff[i+1]],
		kindSym:  il.Sym[il.SymOff[i]:il.SymOff[i+1]],
		kindCede: il.Cede[il.CedeOff[i]:il.CedeOff[i+1]],
	}
}

// nearSplit classes the near entries of a KEPT row of a symmetrized phase
// whose class an update can have changed. Row V's entry U is mutual iff row
// U's descent reaches leaf V — iff no strict ancestor of V is far from
// cluster U (listPhase.reaches, the rule a classification applies a tile at
// a time). A kept row's pre-symmetrization list is what it was, so only an
// entry naming a RECLASSIFIED row can change class; and surviving leaves
// keep their relative order, so a pair's lower row stays the lower.
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

// recount re-decides the entries of kept row k that name a reclassified
// row, adjusts the cached counts cnt for those that changed class, and
// reports whether any did.
func (s *nearSplit) recount(k int32, runs *[3][]int32, cnt *[3]int32) (changed bool) {
	var buf [chainBlocks]rowTile
	var chain []rowTile
	for was, run := range runs {
		for _, u := range run {
			if !s.dirty[u] {
				continue
			}
			if chain == nil {
				chain = s.ph.ancestors(buf[:0], s.rows[k])
			}
			if now := s.kindOf(k, chain, u); now != was {
				cnt[was]--
				cnt[now]++
				changed = true
			}
		}
	}
	return changed
}

// merge writes kept row k's near entries to il with the entries naming a
// reclassified row classed anew: a 3-way merge of the cached runs back into
// classification visit order, each entry going to the run of its class.
// Each cached run is already in that order — symmetrization split the
// row's emission into three order-preserving subsequences, and surviving
// nodes keep their relative pre-order under materializations, prunes and
// splits — so every run comes out as a fresh compile would emit it.
func (s *nearSplit) merge(il *InteractionLists, k int32, runs [3][]int32) {
	var buf [chainBlocks]rowTile
	chain := s.ph.ancestors(buf[:0], s.rows[k])
	dst := [3][]int32{il.Near, il.Sym, il.Cede}
	at := [3]int32{il.NearOff[k], il.SymOff[k], il.CedeOff[k]}
	for {
		b := -1
		for r := range runs {
			if len(runs[r]) > 0 && (b < 0 || s.d.visit[runs[r][0]] < s.d.visit[runs[b][0]]) {
				b = r
			}
		}
		if b < 0 {
			return
		}
		u, kd := runs[b][0], b
		runs[b] = runs[b][1:]
		if s.dirty[u] {
			kd = s.kindOf(k, chain, u)
		}
		dst[kd][at[kd]] = u
		at[kd]++
	}
}
