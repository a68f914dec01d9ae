package core

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file is the incremental interaction-list repair — the warm-path
// companion to the tracked octree update (octree/tracked.go). A compiled
// list row is a pure function of the opening tests its classification
// evaluated, and a certified list records the slack each of those tests
// had (the margin arrays of InteractionLists — built by the first repair,
// System.materialize, not by the compile: an evaluation never reads them).
// After an update the repair measures, per node, how far the
// center and radius ACTUALLY moved relative to the snapshot the lists
// were certified against; a row whose margin dominates the worst drift
// along every path it descended — and whose paths saw no structural
// change (child materialized, child pruned, leaf split) — provably
// classifies identically against the moved geometry, so its cached
// entries ARE what a fresh compile would produce. Only the remaining
// rows are recomputed, and the result is structurally byte-for-byte a
// full recompile (RecheckLists verifies exactly that) at O(dirty rows)
// cost. Measuring drift per node rather than bounding it by the fastest
// atom is what makes the certificate bite: an opening test's operands
// move with a node's centroid, which for an n-point node drifts ~1/n of
// the per-atom displacement.

// repairSlop absorbs floating-point evaluation noise in the margin/drift
// comparison: the drift bound is exact over the reals, and the opening
// test's FP rounding is ~1e-13 at molecular coordinate scales, so a
// conservative absolute guard keeps the certificate sound without
// recomputing measurably more rows.
const repairSlop = 1e-9

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
	// RowsRepaired and RowsTotal count recompiled vs total list rows
	// across both phases (valid only when Repaired).
	RowsRepaired, RowsTotal int
}

// UpdateAtomsRepair moves the atoms to new positions (original atom
// order) like UpdateAtoms, but uses the tracked octree update and its
// structural-change report to repair the compiled interaction lists in
// place instead of discarding them. When repair is impossible — the
// octree rebuilt, or there were no cached lists — it degrades to
// UpdateAtoms semantics (lists invalidated). The pool parallelizes every
// step of the repair; o (may be nil) receives the "octree.keys.moved",
// "ilist.rows.repaired", "ilist.repair.fallbacks" and
// "ilist.certificates.materialized" counters and, per call, the sub-phase
// spans "ilist.repair.certificate" (only on the call that materialises
// it), "ilist.repair.cert" and, for each phase,
// "ilist.repair.{certify,classify,assemble,symmetrize}".
//
// Compiled lists carry no repair certificate until a repair asks for one,
// so the first call on them builds it (System.materialize) — from the
// geometry the lists were compiled on, hence before the tracked update
// moves the tree, and only once everything that can be decided without it
// has been: a rejected update, or one already known to end with the lists
// dropped, never pays for a certified compile.
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
	cached := s.lists
	// The lists can be repaired only if they are the current parameters'
	// and the octree update keeps its node ids — not without Morton keys (a
	// recursive build), after a re-pose, or when an atom leaves the root
	// cube. Nothing else needs a certificate.
	var cl *CompiledLists
	if cached.matches(s) && s.Atoms.Tracks(newPositions) {
		var err error
		if cl, err = s.materialize(cached, pool, o); err != nil {
			s.lists = nil
			return UpdateStats{}, fmt.Errorf("core: UpdateAtomsRepair: cached lists are not a compile of the current geometry: %w", err)
		}
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
	if cl == nil || res.Rebuilt {
		// Node ids are not stable across a rebuild (or there is nothing
		// to repair): full recompile on next use.
		s.lists = nil
		if o != nil && cached != nil {
			o.Counter("ilist.repair.fallbacks").Add(1)
		}
		return stats, nil
	}
	sp := o.Begin(0, "ilist", "ilist.repair.cert", obs.NoVirtual)
	cert := buildRepairCert(s.Atoms, cl.nodeC, cl.nodeR, res.Struct)
	sp.End(obs.NoVirtual)
	bornPh, epolPh := s.listPhases(cl)
	born, nb := bornPh.build(cl.Born, cert, pool, o)
	epol, ne := epolPh.build(cl.Epol, cert, pool, o)
	nc, nr := snapshotNodes(s.Atoms)
	s.lists = &CompiledLists{
		bornMAC: cl.bornMAC, epolFar: cl.epolFar, farOrder: cl.farOrder,
		Born: born, Epol: epol,
		nodeC: nc, nodeR: nr,
	}
	stats.Repaired = true
	stats.RowsRepaired = nb + ne
	stats.RowsTotal = len(born.Rows) + len(epol.Rows)
	if o != nil {
		o.Counter("ilist.rows.repaired").Add(int64(stats.RowsRepaired))
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

// repairCert holds the per-node certification state one tracked update
// induces on the atoms tree, shared by both phases' repairs.
type repairCert struct {
	// bad[id] is true unless id is reachable from the root AND no node on
	// root→id (inclusive) changed structure: an entry referencing a pruned
	// node is gone, and a classification descending a restructured path
	// cannot be trusted to revisit the same children. Either fails the
	// row's certificate.
	bad []bool
	// dc/dr are the node's own center/radius drift vs the snapshot;
	// upDc/upDr are the maxima over the STRICT ancestors root→parent(id)
	// — the nodes a classification descended through (and tested) on its
	// way to id. Keeping the entry's own drift out of the path maximum is
	// the point: the node a moved atom left or joined can jump by its
	// whole cell size, and only the rows for which THAT node's own test
	// was tight need recomputing, not every row that descended past it.
	dc, dr, upDc, upDr []float64
	// dfsIdx numbers nodes in classification visit order (pre-order,
	// children in octant order) — node IDS stop being in visit order once
	// tracked updates materialize leaves, so reassembling a row's
	// pre-symmetrization near list must merge by this, not by id.
	dfsIdx []int32
}

// buildRepairCert measures every reachable node's drift against the
// snapshot and folds in the tracked update's structural-change report
// (nil strct means no structural change).
func buildRepairCert(atoms *octree.Tree, snapC []geom.Vec3, snapR []float64, strct []bool) *repairCert {
	nn := len(atoms.Nodes)
	c := &repairCert{
		bad:    make([]bool, nn),
		dc:     make([]float64, nn),
		dr:     make([]float64, nn),
		upDc:   make([]float64, nn),
		upDr:   make([]float64, nn),
		dfsIdx: make([]int32, nn),
	}
	for i := range c.bad {
		c.bad[i] = true // until the walk reaches it
	}
	var next int32
	var walk func(id int32, bad bool, mdc, mdr float64)
	walk = func(id int32, bad bool, mdc, mdr float64) {
		nd := &atoms.Nodes[id]
		dc, dr := math.Inf(1), math.Inf(1)
		if int(id) < len(snapC) {
			dc = nd.Center.Dist(snapC[id])
			dr = math.Abs(nd.Radius - snapR[id])
		} else {
			bad = true // new node: no snapshot to certify against
		}
		if strct != nil && int(id) < len(strct) && strct[id] {
			bad = true
		}
		c.bad[id] = bad
		c.dc[id], c.dr[id] = dc, dr
		c.upDc[id], c.upDr[id] = mdc, mdr
		c.dfsIdx[id] = next
		next++
		if nd.IsLeaf {
			return
		}
		// The recursion's running maxima include this node: it is a
		// strict ancestor of (and an internal test for) everything below.
		if dc > mdc {
			mdc = dc
		}
		if dr > mdr {
			mdr = dr
		}
		for _, ch := range nd.Children {
			if ch != octree.NoChild {
				walk(ch, bad, mdc, mdr)
			}
		}
	}
	walk(atoms.Root(), false, 0, 0)
	return c
}

// The repair half of listPhase.build. Rows follow the rowTree's CURRENT
// leaves: rows whose leaf survived reuse their certificate, rows for new
// leaves (materializations, splits) classify fresh, rows for dead leaves
// drop. A surviving row is certified clean iff every cached entry is
// still reachable, no visited path changed structure, and every opening
// test's recorded slack dominates the drift of ITS operands: for the test
// that admitted entry e, the entry's own dc[e] + mac·dr[e]; for the
// internal tests on e's root path, the path minimum slack
// (FarPath/NearPath/…) against the ancestor drift maxima
// upDc[e] + mac·upDr[e] — each plus the row cluster's own drift when the
// rows are atom leaves (E_pol; Born rows are static q-point leaves).
// Keeping the internal certificate per entry matters as much as the
// per-entry own-test margins: one hot node (a leaf that lost an atom
// drifts by its cell size) sits on only a few entries' paths, and only
// those entries' rows need recomputing.
//
// Under an opening-multiplier ladder (pmax > 0) the certificate is
// unchanged: all drift scaling keeps the BASE multiplier mac = macs[0],
// the largest rung, which upper-bounds how much any rung's test operand
// (r_a+r_b)·macs[k] can move — conservative for k ≥ 1 — while the
// margins themselves were recorded against the nearest reclassification
// boundary of each entry's admitted order (classify), so a certified
// row's FarOrd annotations are exactly what a fresh classification would
// emit.

// rowDrift is the drift bound of row leaf r's own cluster.
func (ph *listPhase) rowDrift(cert *repairCert, r int32) float64 {
	if !ph.leafFirst {
		return 0
	}
	return cert.dc[r] + ph.macs[0]*cert.dr[r]
}

// certify fills src (see build): the cached row of every current row
// whose leaf survived and whose certificate holds. It runs in parallel — a
// row's certificate reads only the cached lists and cert.
func (ph *listPhase) certify(old *InteractionLists, cert *repairCert, rows, src []int32, pool *sched.Pool) {
	oldIdx := make([]int32, len(ph.rowTree.Nodes))
	for i := range oldIdx {
		oldIdx[i] = -1
	}
	for i, r := range old.Rows {
		oldIdx[r] = int32(i)
	}
	forRows(pool, len(rows), func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			i := oldIdx[rows[k]] // −1 for a new leaf: no cached row
			if i >= 0 && !cert.rowClean(old, i, ph.rowDrift(cert, rows[k]), ph.macs[0]) {
				i = -1
			}
			src[k] = i
		}
	})
}

// rowClean certifies cached row i against the drift (drow is the row
// cluster's own).
func (c *repairCert) rowClean(il *InteractionLists, i int32, drow, mac float64) bool {
	for fi := il.FarOff[i]; fi < il.FarOff[i+1]; fi++ {
		e := il.Far[fi]
		if c.bad[e] ||
			il.FarMargin[fi] <= drow+c.dc[e]+mac*c.dr[e]+repairSlop ||
			il.FarPath[fi] <= drow+c.upDc[e]+mac*c.upDr[e]+repairSlop {
			return false
		}
	}
	for _, run := range il.nearRuns(i) {
		for x, e := range run.es {
			if c.bad[e] || run.ps[x] <= drow+c.upDc[e]+mac*c.upDr[e]+repairSlop {
				return false
			}
		}
	}
	// Born near leaves were admitted by a failed far test of their own;
	// E_pol's leaf-first near entries were never tested (NearMargin nil)
	// and need only the path checks.
	if il.NearMargin != nil {
		for x := il.NearOff[i]; x < il.NearOff[i+1]; x++ {
			if e := il.Near[x]; il.NearMargin[x] <= drow+c.dc[e]+mac*c.dr[e]+repairSlop {
				return false
			}
		}
	}
	return true
}

// decay carries the margins src of entries es into dst, each reduced by
// the drift bound its test was just certified under (dC/dR select the
// entry's own drift or its ancestors') — a lower bound on the true slack
// from here on; once one dips under the next drift the row recomputes and
// refreshes them all. It writes straight into the output arrays: a clean
// row allocates nothing.
func decay(dst, src []float64, es []int32, drow, mac float64, dC, dR []float64) {
	for x, e := range es {
		dst[x] = src[x] - (drow + dC[e] + mac*dR[e])
	}
}

// carryRow copies certified-clean cached row i into row k of il and pre:
// the far entries and the pre-symmetrization near list, which for a
// symmetrized phase is the cached Near, Sym and Cede runs merged back into
// classification visit order.
func (ph *listPhase) carryRow(il *InteractionLists, pre *nearLists, old *InteractionLists, c *repairCert, k int, i int32) {
	drow, mac := ph.rowDrift(c, il.Rows[k]), ph.macs[0]
	at, lo, hi := il.FarOff[k], old.FarOff[i], old.FarOff[i+1]
	es := old.Far[lo:hi]
	copy(il.Far[at:], es)
	if il.FarOrd != nil {
		copy(il.FarOrd[at:], old.FarOrd[lo:hi])
	}
	decay(il.FarMargin[at:], old.FarMargin[lo:hi], es, drow, mac, c.dc, c.dr)
	decay(il.FarPath[at:], old.FarPath[lo:hi], es, drow, mac, c.upDc, c.upDr)
	at = pre.off[k]
	if ph.symmetrize {
		c.mergeNear(pre.n[at:pre.off[k+1]], pre.p[at:], old.nearRuns(i), drow, mac)
		return
	}
	lo, hi = old.NearOff[i], old.NearOff[i+1]
	es = old.Near[lo:hi]
	copy(pre.n[at:], es)
	decay(pre.m[at:], old.NearMargin[lo:hi], es, drow, mac, c.dc, c.dr)
	decay(pre.p[at:], old.NearPath[lo:hi], es, drow, mac, c.upDc, c.upDr)
}

// nearRun is one of a row's Near, Sym and Cede runs with its path margins.
type nearRun struct {
	es []int32
	ps []float64
}

// nearRuns returns row i's three runs — together, its pre-symmetrization
// near list.
func (il *InteractionLists) nearRuns(i int32) [3]nearRun {
	return [3]nearRun{
		{il.Near[il.NearOff[i]:il.NearOff[i+1]], il.NearPath[il.NearOff[i]:il.NearOff[i+1]]},
		{il.Sym[il.SymOff[i]:il.SymOff[i+1]], il.SymPath[il.SymOff[i]:il.SymOff[i+1]]},
		{il.Cede[il.CedeOff[i]:il.CedeOff[i+1]], il.CedePath[il.CedeOff[i]:il.CedeOff[i+1]]},
	}
}

// mergeNear rebuilds a cached row's pre-symmetrization near list into
// dstN/dstP (path margins decayed) by a 3-way merge of its runs on dfsIdx.
// Each run is already in that order: symmetrization split the row's
// emission into three order-preserving subsequences, the emission was in
// visit order when the row was classified, and surviving nodes keep their
// relative pre-order under materializations, prunes and splits (any
// structural change on a visited path has failed the row's certificate).
// So the merge reproduces exactly what a fresh classification would emit,
// without sorting.
func (c *repairCert) mergeNear(dstN []int32, dstP []float64, runs [3]nearRun, drow, mac float64) {
	for x := range dstN {
		b := -1
		for r := range runs {
			if len(runs[r].es) > 0 && (b < 0 || c.dfsIdx[runs[r].es[0]] < c.dfsIdx[runs[b].es[0]]) {
				b = r
			}
		}
		e := runs[b].es[0]
		dstN[x] = e
		dstP[x] = runs[b].ps[0] - (drow + c.upDc[e] + mac*c.upDr[e])
		runs[b].es, runs[b].ps = runs[b].es[1:], runs[b].ps[1:]
	}
}
