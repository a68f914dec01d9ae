package core

import (
	"fmt"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file implements the interaction-list compilation layer: a one-time
// traversal that records, per leaf, exactly which far-field aggregates
// and which near-field leaf pairs the recursive algorithms of Figures 2
// and 3 would evaluate. Production FMM codes (DASHMM, arXiv:1710.06316;
// Multibody Multipole Methods, arXiv:1105.2769) separate list
// construction from kernel evaluation for the same reason this repo does:
// the near–far decomposition depends only on geometry and the opening
// criterion, so it can be built once and swept repeatedly by flat,
// cache-friendly batch kernels (kernels.go) — with zero recursion,
// pointer chasing or opening tests in the steady state.
//
// The lists survive rigid motion: Engine.Repose applies one rigid
// transform to every point and node center, which preserves all pairwise
// distances while node radii are invariant, so every farSeparated verdict
// is unchanged. Docking pose scans therefore pay the traversal cost once
// per complex, not once per pose. Non-rigid changes (UpdateAtoms) and
// parameter changes invalidate the cache (System.InvalidateLists and the
// signature check in Lists).

// InteractionLists is a compiled traversal over the atoms octree for one
// phase, in CSR form. Row i describes the leaf Rows[i] (in tree Leaves()
// order): Far[FarOff[i]:FarOff[i+1]] holds the atoms-octree nodes whose
// far-field aggregate the leaf interacts with, and
// Near[NearOff[i]:NearOff[i+1]] the atom leaves needing exact pairwise
// evaluation.
//
// A list is its index — Rows, the four offset arrays, Far, Near, Sym, Cede
// and, under a ladder, FarOrd: 4 bytes an entry — which is all an evaluation
// reads, and all the incremental repair (ilist_repair.go) reads too: it
// re-tests the nodes an update moved instead of keeping a bound per entry.
type InteractionLists struct {
	Rows    []int32
	FarOff  []int32
	Far     []int32
	NearOff []int32
	Near    []int32
	// Sym holds MUTUAL near leaf pairs, stored once on the lower-indexed
	// row and evaluated with double weight: the per-pair GB terms are
	// bitwise symmetric (r², R_u·R_v and f_GB are commutative in u,v), so
	// one swept block stands for both ordered blocks of the recursion.
	// This halves the dominant near-field work. Pairs the classification
	// reaches in only one direction (the epol ordering can be asymmetric:
	// a leaf U is always exact for row V, while row U may see V's
	// ancestors as far) stay in Near with single weight, as does the
	// diagonal U == V, whose ordered double-count is inherent in the
	// block sweep. Born lists never populate Sym (q-leaf rows against the
	// atoms tree have no transpose).
	SymOff []int32
	Sym    []int32
	// Cede holds the mutual near pairs this row's classification DID
	// reach but symmetrization handed to a lower-indexed row's Sym list.
	// The entries contribute nothing to evaluation (the partner sweeps
	// the pair with double weight); they are recorded so the incremental
	// repair can put a row's full pre-symmetrization near list back
	// together — to re-split it when a partner row changed — without
	// scanning every other row's Sym.
	CedeOff []int32
	Cede    []int32
	// FarOrd[k] is the expansion order the ladder admitted Far[k] at
	// (farorder.go): the batch kernels dispatch the moment corrections on
	// it without re-testing geometry. nil when compiled at FarOrder = 0,
	// where every far entry is order 0.
	FarOrd []uint8
}

// NumFar returns the total far-field entry count.
func (il *InteractionLists) NumFar() int { return len(il.Far) }

// NumNear returns the total near leaf-pair count.
func (il *InteractionLists) NumNear() int { return len(il.Near) }

// MemoryBytes reports the footprint of the list's arrays.
func (il *InteractionLists) MemoryBytes() int64 {
	return int64(len(il.Rows)+len(il.FarOff)+len(il.Far)+
		len(il.NearOff)+len(il.Near)+len(il.SymOff)+len(il.Sym)+
		len(il.CedeOff)+len(il.Cede))*4 + int64(len(il.FarOrd))
}

// CompiledLists bundles the per-phase lists with the opening-criterion
// signature they were compiled under, so parameter changes trigger a
// recompile instead of silently evaluating stale classifications.
type CompiledLists struct {
	// bornMAC and epolFar are the base opening multipliers at compile
	// time; farOrder is the Params.FarOrder the ladder was derived from.
	bornMAC, epolFar float64
	farOrder         int
	// Born rows are q-point leaves (Figure 2); Epol rows are atom leaves
	// (Figure 3).
	Born, Epol *InteractionLists
}

// matches reports whether the cached lists were compiled under the
// system's current opening criteria.
func (cl *CompiledLists) matches(sys *System) bool {
	return cl != nil && cl.bornMAC == sys.bornMAC() && cl.epolFar == epolFarFactor(sys.Params.EpsEpol) &&
		cl.farOrder == sys.Params.FarOrder
}

// MemoryBytes reports the footprint of both phases' lists: what a system
// holds for them, compiled or repaired.
func (cl *CompiledLists) MemoryBytes() int64 { return cl.Born.MemoryBytes() + cl.Epol.MemoryBytes() }

// listPhase is one phase's classification problem, shared by the full
// compile and the incremental repair (ilist_repair.go): the row clusters
// are rowTree's leaves in Leaves() order, each classified against the
// atoms octree under the opening-multiplier ladder macs/pmax
// (farorder.go; macs[0] is the base multiplier, and pmax = 0 degenerates
// to the original single-multiplier classification bit for bit).
// leafFirst selects the traversal ordering (see classify) and says the
// rows are atom leaves, which move under an update; symmetrize moves
// mutual near leaf pairs into the Sym list of the lower-indexed row (valid
// only when rowTree == atoms, i.e. the E_pol phase).
type listPhase struct {
	atoms, rowTree *octree.Tree
	macs           [maxFarOrder + 1]float64
	pmax           int
	leafFirst      bool
	symmetrize     bool
}

// listPhases returns the Born phase (q-point leaf rows, Figure 2) and the
// E_pol phase (atom leaf rows, Figure 3) under cl's opening criteria.
func (s *System) listPhases(cl *CompiledLists) (born, epol listPhase) {
	born = listPhase{atoms: s.Atoms, rowTree: s.QPts, pmax: cl.farOrder,
		macs: macLadder(cl.bornMAC, cl.farOrder, bornLadderDeg(s.Params.Kernel))}
	epol = listPhase{atoms: s.Atoms, rowTree: s.Atoms, pmax: cl.farOrder,
		macs: macLadder(cl.epolFar, cl.farOrder, epolLadderDeg), leafFirst: true, symmetrize: true}
	return born, epol
}

// nearLists is a CSR of near leaves in classification emission order: the
// PRE-symmetrization lists. For an unsymmetrized phase they are the final
// Near arrays.
type nearLists struct {
	off []int32
	n   []int32
	// rows, when set, holds each row's entries in place of n: the compile
	// leaves a symmetrized phase's near entries in the chunk arenas that
	// collected them, since symmetrization reads them once, row by row, and
	// throws them away.
	rows [][]int32
}

// row returns row k's entries.
func (nl *nearLists) row(k int) []int32 {
	if nl.rows != nil {
		return nl.rows[k]
	}
	return nl.n[nl.off[k]:nl.off[k+1]]
}

// rowSink receives one row's classification: it counts the verdicts from
// where the cursors nf/nn stand and, when it holds an arena, appends each
// verdict's node id there.
type rowSink struct {
	nf, nn int32
	idx    *listArena
}

// listArena collects the entries of one contiguous block of rows in
// classification order: far nodes and near leaves, and under a ladder —
// where reserve makes ord non-nil — the far nodes' admitted orders.
type listArena struct {
	far, near []int32
	ord       []uint8
}

func (out *rowSink) farVerdict(n int32, ord int) {
	if a := out.idx; a != nil {
		a.far = append(a.far, n)
		if a.ord != nil {
			a.ord = append(a.ord, uint8(ord))
		}
	}
	out.nf++
}

func (out *rowSink) nearVerdict(n int32) {
	if a := out.idx; a != nil {
		a.near = append(a.near, n)
	}
	out.nn++
}

// verdict is the phase's ONE opening test: whether a row cluster of the
// given radius takes a node of the given radius, their centers d2 =
// openingDist2 apart, as a far aggregate, and at which of the ladder's
// first rungs+1 orders. The classification, the repair's re-test of moved
// nodes — on their old and their new geometry — and its decision whether a
// near pair is mutual all ask it, with these operands in this order, so
// they cannot disagree by a rounding. (It comes in three pieces so that
// all of it inlines into classify.)
func (ph *listPhase) verdict(d2, radius, nodeRadius float64, rungs int) (ord int, far bool) {
	return farOrderOf(d2, nodeRadius, radius, &ph.macs, rungs)
}

// openingDist2 is verdict's squared distance from a row cluster's center to
// a node's.
func openingDist2(center, node geom.Vec3) float64 { return center.Sub(node).Norm2() }

// rungs is the highest order verdict may admit a node at. Loosened rungs
// admit INTERNAL nodes only: admitting a leaf pair early has nothing to
// consolidate — it would trade an exact near block for an approximate far
// entry, spending error budget while GROWING the far list. A leaf
// therefore classifies by the base multiplier alone (identical to
// pre-ladder), and rungs ≥ 1 fire exactly where they pay: a rung admission
// at an internal node replaces its subtree's whole far/near expansion with
// one entry.
func (ph *listPhase) rungs(leaf bool) int {
	if leaf {
		return 0
	}
	return ph.pmax
}

// classify descends the atoms octree from node n against a row cluster
// (center, radius), splitting the subtree into far nodes and near
// leaves. It mirrors the recursive kernels exactly — including their one
// structural difference: APPROX-EPOL tests u.IsLeaf BEFORE the opening
// test (a leaf U is always evaluated exactly), while APPROX-INTEGRALS
// tests openness first (a far leaf uses the pseudo-q-point shortcut).
func (ph *listPhase) classify(n int32, center geom.Vec3, radius float64, out *rowSink) {
	node := &ph.atoms.Nodes[n]
	if ph.leafFirst && node.IsLeaf {
		out.nearVerdict(n)
		return
	}
	ord, far := ph.verdict(openingDist2(center, node.Center), radius, node.Radius, ph.rungs(node.IsLeaf))
	switch {
	case far:
		out.farVerdict(n, ord)
	case node.IsLeaf:
		out.nearVerdict(n)
	default:
		for _, child := range node.Children {
			if child != octree.NoChild {
				ph.classify(child, center, radius, out)
			}
		}
	}
}

// classifyRow classifies the row cluster of rowTree leaf r from the root.
func (ph *listPhase) classifyRow(r int32, out *rowSink) {
	rn := &ph.rowTree.Nodes[r]
	ph.classify(ph.atoms.Root(), rn.Center, rn.Radius, out)
}

// forRows runs fn over [0, n) in ranges on the pool's workers, or as
// worker 0 over the whole range when pool is nil.
func forRows(pool *sched.Pool, n int, fn func(lo, hi, worker int)) {
	if pool == nil {
		fn(0, n, 0)
		return
	}
	sched.ParallelFor(pool, n, n/(8*pool.NumWorkers())+1, fn)
}

// allocAll runs the given allocations on the pool's workers (in order on
// the caller when pool is nil). A list array is tens of megabytes, and
// make hands it over zeroed: on one goroutine that memclr is a fifth of a
// compile during which every worker sleeps; spread out, each array is also
// first touched by one of the workers that go on to fill it.
func allocAll(pool *sched.Pool, allocs ...func()) {
	forRows(pool, len(allocs), func(lo, hi, _ int) {
		for _, alloc := range allocs[lo:hi] {
			alloc()
		}
	})
}

// prefixSum turns per-row counts stored at off[k+1] into CSR offsets and
// returns the total.
func prefixSum(off []int32) int32 {
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	return off[len(off)-1]
}

// classified is what classifyRows leaves behind: the rows it classified,
// cut into contiguous chunks, and each chunk's verdicts in an arena of its
// own, row after row.
type classified struct {
	// which holds the positions in il.Rows of the rows classified, in
	// order.
	which  []int32
	arenas []listArena
}

// bound is the first row (an index into which) of chunk c.
func (cr *classified) bound(c int) int { return c * len(cr.which) / len(cr.arenas) }

// classifyRows classifies the rows of il at positions which in ONE descent
// each. Nobody knows a row's entry counts before classifying it, so the
// rows are cut into contiguous chunks — a few per worker — and each chunk's
// verdicts are appended to an arena of its own; each row's counts land at
// il.FarOff[k+1] and pre.off[k+1], for the prefix sum that sizes the final
// CSR arrays exactly.
func (ph *listPhase) classifyRows(il *InteractionLists, pre *nearLists, which []int32, pool *sched.Pool) *classified {
	cr := &classified{which: which}
	chunks := listChunksPerWorker
	if pool != nil {
		chunks *= pool.NumWorkers()
	}
	cr.arenas = make([]listArena, chunks)
	forRows(pool, chunks, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			a, first, end := &cr.arenas[c], cr.bound(c), cr.bound(c+1)
			ph.reserve(a, il.Rows, which[first:end])
			sink := rowSink{idx: a}
			for _, k := range which[first:end] {
				sink.nf, sink.nn = 0, 0
				ph.classifyRow(il.Rows[k], &sink)
				il.FarOff[k+1], pre.off[k+1] = sink.nf, sink.nn
			}
		}
	})
	return cr
}

// index compiles the phase's lists: classifyRows over every row, one
// prefix sum over the per-row counts, and the chunks copy themselves into
// place in parallel, in row order.
func (ph *listPhase) index(pool *sched.Pool) *InteractionLists {
	il, pre := ph.newLists()
	every := make([]int32, len(il.Rows))
	for k := range every {
		every[k] = int32(k)
	}
	cr := ph.classifyRows(il, &pre, every, pool)
	if ph.symmetrize { // the near entries stay where they were collected
		pre.rows = make([][]int32, len(il.Rows))
		for c := range cr.arenas {
			at := int32(0)
			for k := cr.bound(c); k < cr.bound(c+1); k++ {
				pre.rows[k] = cr.arenas[c].near[at : at+pre.off[k+1]]
				at += pre.off[k+1]
			}
		}
	}
	nf, nn := prefixSum(il.FarOff), prefixSum(pre.off)
	allocAll(pool,
		func() { il.Far = make([]int32, nf) },
		func() { il.FarOrd = ph.newFarOrd(nf) },
		func() {
			if pre.rows == nil {
				pre.n = make([]int32, nn)
			}
		})
	forRows(pool, len(cr.arenas), func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			a, k := &cr.arenas[c], cr.bound(c)
			copy(il.Far[il.FarOff[k]:], a.far)
			if il.FarOrd != nil {
				copy(il.FarOrd[il.FarOff[k]:], a.ord)
			}
			if pre.rows == nil {
				copy(pre.n[pre.off[k]:], a.near)
			}
			*a = listArena{} // garbage from here on, not from the end of the call
		}
	})
	if ph.symmetrize {
		symmetrizeNear(il, &pre, len(ph.atoms.Nodes), pool)
	} else {
		il.Near, il.Sym, il.Cede = pre.n, []int32{}, []int32{}
	}
	return il
}

// listChunksPerWorker is the number of row chunks classifyRows cuts per
// worker: enough that a worker that drew dense rows can hand chunks on,
// few enough that the arenas are a few dozen objects.
const listChunksPerWorker = 8

// arenaSamples is the number of a chunk's rows reserve classifies to size
// the chunk's arena: at 32 the estimate is within a few percent for far
// entries and about a tenth for near leaves (whose count follows the local
// density), for 2 % more descents at 20 000 atoms.
const arenaSamples = 32

// reserve sizes a's arrays for one chunk — the rows at positions chunk of
// rows — from rows already classified: it counts the verdicts of a few
// evenly spaced ones and scales them to the chunk, plus a sixteenth. A
// chunk that turns out denser than its sample grows by append; a
// worst-case reservation would be several times the lists.
func (ph *listPhase) reserve(a *listArena, rows, chunk []int32) {
	var probe rowSink
	step := len(chunk)/arenaSamples + 1
	for x := 0; x < len(chunk); x += step {
		ph.classifyRow(rows[chunk[x]], &probe)
	}
	size := func(sampled int32) int { return int(sampled) * step * 17 / 16 }
	a.far = make([]int32, 0, size(probe.nf))
	a.near = make([]int32, 0, size(probe.nn))
	if ph.pmax > 0 { // every far entry carries its order
		a.ord = make([]uint8, 0, size(probe.nf))
	}
}

// newLists returns the phase's lists with their rows and zeroed offset
// arrays, and the pre-symmetrization near lists over the same rows.
func (ph *listPhase) newLists() (*InteractionLists, nearLists) {
	// The lists own their row ids: rowTree's live leaf slice is rewritten
	// in place by a later tracked update (rebuildLeafList), and an aliased
	// cache would silently renumber.
	rows := append([]int32(nil), ph.rowTree.Leaves()...)
	n := len(rows)
	il := &InteractionLists{Rows: rows, FarOff: make([]int32, n+1), NearOff: make([]int32, n+1),
		SymOff: make([]int32, n+1), CedeOff: make([]int32, n+1)}
	pre := nearLists{off: il.NearOff}
	if ph.symmetrize {
		pre.off = make([]int32, n+1)
	}
	return il, pre
}

// newFarOrd allocates the admitted orders of nf far entries: nil without a
// ladder, where every far entry is order 0.
func (ph *listPhase) newFarOrd(nf int32) []uint8 {
	if ph.pmax == 0 || nf == 0 {
		return nil
	}
	return make([]uint8, nf)
}

// Split classes of a pre-symmetrization near entry.
const (
	kindNear = iota // one-directional or diagonal: stays in Near
	kindSym         // mutual and this row is the lower-indexed: swept here, with double weight
	kindCede        // mutual and the lower-indexed partner sweeps it

	// kindShift places an entry's class in the two bits above its node id,
	// which are free: CSR offsets are int32, so a tree the lists can index
	// has far fewer than 2³⁰ nodes.
	kindShift = 30
	kindMask  = 1<<kindShift - 1
)

// symmetrizeNear splits each row's pre-symmetrization near list (pre, over
// il's rows, entries indexing a tree of numNodes nodes) into mutual pairs
// — moved to the lower row's Sym list, swept once with double weight, and
// recorded in the higher row's Cede list — and one-directional entries,
// kept in Near. Mutuality must be checked against the ORIGINAL near sets:
// the leaf-first ordering of APPROX-EPOL can classify U near V while row U
// resolves V's subtree through an ancestor's far aggregate, and such
// one-way blocks must keep their single-direction exact evaluation to
// match the recursion.
//
// The check is linear in entries: one counting sort builds the transpose
// of the near relation (T(k) = the rows whose list holds rows[k]); each
// row then stamps T(k) into its worker's array and reads its partners'
// stamps. Rows run in parallel and race-free, since a row reads only pre
// and T and writes only its own ranges: a first pass classes and counts
// the entries, a second scatters them into the arrays the counts sized.
// pre's entries are scratch from here on: the first pass leaves each one's
// class in its top bits for the second. This is the compile's split, of
// every row at once; a repair, which re-splits a few rows, asks the
// opening test instead (nearSplit, ilist_repair.go).
func symmetrizeNear(il *InteractionLists, pre *nearLists, numNodes int, pool *sched.Pool) {
	n := len(il.Rows)
	rowOf := make([]int32, numNodes)
	for k, r := range il.Rows {
		rowOf[r] = int32(k)
	}
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	// The counting sort runs one contiguous block of rows per worker:
	// next[b·n+j] first counts block b's entries naming row j, then —
	// after the scan over (j, b) — is the slot in T(j) where block b writes
	// its next one.
	tOff, next := make([]int32, n+1), make([]int32, workers*n)
	bound := func(b int) int { return b * n / workers }
	forRows(pool, workers, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			for k := bound(b); k < bound(b+1); k++ {
				for _, u := range pre.row(k) {
					next[b*n+int(rowOf[u])]++
				}
			}
		}
	})
	for j := 0; j < n; j++ {
		at := tOff[j]
		for b := 0; b < workers; b++ {
			next[b*n+j], at = at, at+next[b*n+j]
		}
		tOff[j+1] = at
	}
	tr := make([]int32, pre.off[n])
	forRows(pool, workers, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			for k := bound(b); k < bound(b+1); k++ {
				for _, u := range pre.row(k) {
					slot := &next[b*n+int(rowOf[u])]
					tr[*slot] = int32(k)
					*slot++
				}
			}
		}
	})

	stamps := make([][]int32, workers)
	forRows(pool, n, func(lo, hi, w int) {
		if stamps[w] == nil {
			stamps[w] = make([]int32, n)
		}
		stamp := stamps[w]
		for k := lo; k < hi; k++ {
			mark := int32(k + 1)
			for _, j := range tr[tOff[k]:tOff[k+1]] {
				stamp[j] = mark
			}
			var cnt [3]int32
			row := pre.row(k)
			for i, u := range row {
				kd := kindNear
				if j := int(rowOf[u]); j != k && stamp[j] == mark {
					kd = kindSym
					if j < k {
						kd = kindCede
					}
				}
				row[i] = u | int32(kd)<<kindShift
				cnt[kd]++
			}
			il.NearOff[k+1], il.SymOff[k+1], il.CedeOff[k+1] = cnt[kindNear], cnt[kindSym], cnt[kindCede]
		}
	})
	il.allocNear(pool)
	forRows(pool, n, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			il.scatterNear(k, pre.row(k))
		}
	})
}

// allocNear turns the per-row counts in il's three near offset arrays into
// offsets and allocates Near, Sym and Cede to their totals.
func (il *InteractionLists) allocNear(pool *sched.Pool) {
	nn, ns, nc := prefixSum(il.NearOff), prefixSum(il.SymOff), prefixSum(il.CedeOff)
	allocAll(pool,
		func() { il.Near = make([]int32, nn) },
		func() { il.Sym = make([]int32, ns) },
		func() { il.Cede = make([]int32, nc) })
}

// scatterNear writes row k's classed near entries (the class in each one's
// top bits) to the row's ranges of Near, Sym and Cede, in order.
func (il *InteractionLists) scatterNear(k int, classed []int32) {
	dst := [3][]int32{il.Near, il.Sym, il.Cede}
	at := [3]int32{il.NearOff[k], il.SymOff[k], il.CedeOff[k]}
	for _, e := range classed {
		kd := uint32(e) >> kindShift
		dst[kd][at[kd]] = e & kindMask
		at[kd]++
	}
}

// compile builds both phases' lists from the system's current geometry and
// parameters.
func (s *System) compile(pool *sched.Pool) *CompiledLists {
	cl := &CompiledLists{
		bornMAC:  s.bornMAC(),
		epolFar:  epolFarFactor(s.Params.EpsEpol),
		farOrder: s.Params.FarOrder,
	}
	born, epol := s.listPhases(cl)
	cl.Born = born.index(pool)
	cl.Epol = epol.index(pool)
	return cl
}

// RecordMetrics publishes the lists' static structure to the observer:
// total row/near/far/sym entry counts per phase plus per-row batch-size
// histograms (the sizes the SoA batch kernels sweep), and what the lists
// hold in bytes — the gauge mem.lists.index_bytes, in total and as
// mem.lists.{born,epol}.index_bytes per phase. Everything here is derivable
// from the compiled lists alone, so the hot loops in kernels.go carry no
// instrumentation at all — the counts are recorded once per run, off the
// critical path. No-op when o is nil.
func (cl *CompiledLists) RecordMetrics(o *obs.Obs) {
	if cl == nil || o == nil {
		return
	}
	rec := func(phase string, il *InteractionLists) {
		prefix := "ilist." + phase
		o.Counter(prefix + ".rows").Add(int64(len(il.Rows)))
		o.Counter(prefix + ".far_entries").Add(int64(il.NumFar()))
		// Split by admitted expansion order: without a ladder every far
		// entry is order 0, so the .p0 counter always equals the total at
		// FarOrder = 0 and the three orders always sum to far_entries.
		var perOrd [maxFarOrder + 1]int64
		if il.FarOrd == nil {
			perOrd[0] = int64(il.NumFar())
		} else {
			for _, fo := range il.FarOrd {
				perOrd[fo]++
			}
		}
		for p, n := range perOrd {
			o.Counter(fmt.Sprintf("%s.far_entries.p%d", prefix, p)).Add(n)
		}
		o.Counter(prefix + ".near_pairs").Add(int64(il.NumNear()))
		o.Counter(prefix + ".sym_pairs").Add(int64(len(il.Sym)))
		rowFar := o.Histogram(prefix + ".row_far")
		rowNear := o.Histogram(prefix + ".row_near")
		for i := range il.Rows {
			rowFar.Observe(int64(il.FarOff[i+1] - il.FarOff[i]))
			near := il.NearOff[i+1] - il.NearOff[i]
			if il.SymOff != nil {
				near += il.SymOff[i+1] - il.SymOff[i]
			}
			rowNear.Observe(int64(near))
		}
		o.Gauge("mem.lists." + phase + ".index_bytes").Set(float64(il.MemoryBytes()))
	}
	rec("born", cl.Born)
	rec("epol", cl.Epol)
	o.Gauge("mem.lists.index_bytes").Set(float64(cl.MemoryBytes()))
}

// Lists returns the system's compiled interaction lists, building them on
// first use (or after invalidation / parameter change) with the given
// pool (nil compiles serially). Safe for concurrent use: distributed
// ranks sharing the System compile once and reuse.
func (s *System) Lists(pool *sched.Pool) *CompiledLists {
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	if !s.lists.matches(s) {
		s.lists = s.compile(pool)
	}
	return s.lists
}

// RecheckLists recompiles the interaction lists from the current geometry
// and verifies the cached ones are identical — the debug recheck backing
// the rigid-transform reuse invariant. With no cached lists it is a
// no-op. It returns a descriptive error on the first divergence.
func (s *System) RecheckLists(pool *sched.Pool) error {
	// The lane-padding invariant of the SoA arrays is part of the same
	// "nothing drifted" contract the list recheck guards.
	if err := s.checkSoAPadding(); err != nil {
		return err
	}
	s.listsMu.Lock()
	cached := s.lists
	s.listsMu.Unlock()
	if cached == nil {
		return nil
	}
	if !cached.matches(s) {
		return fmt.Errorf("core: cached lists compiled under bornMAC=%g epolFar=%g farOrder=%d, system now wants %g/%g/%d",
			cached.bornMAC, cached.epolFar, cached.farOrder,
			s.bornMAC(), epolFarFactor(s.Params.EpsEpol), s.Params.FarOrder)
	}
	fresh := s.compile(pool)
	if err := diffLists("born", cached.Born, fresh.Born); err != nil {
		return err
	}
	return diffLists("epol", cached.Epol, fresh.Epol)
}

// diffLists reports the first divergence between two compiled lists.
func diffLists(phase string, a, b *InteractionLists) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("core: %s lists row count drifted: %d -> %d", phase, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Errorf("core: %s list row %d leaf drifted: %d -> %d", phase, i, a.Rows[i], b.Rows[i])
		}
		af, bf := a.Far[a.FarOff[i]:a.FarOff[i+1]], b.Far[b.FarOff[i]:b.FarOff[i+1]]
		an, bn := a.Near[a.NearOff[i]:a.NearOff[i+1]], b.Near[b.NearOff[i]:b.NearOff[i+1]]
		as, bs := a.Sym[a.SymOff[i]:a.SymOff[i+1]], b.Sym[b.SymOff[i]:b.SymOff[i+1]]
		if !equalInt32(af, bf) {
			return fmt.Errorf("core: %s list row %d (leaf %d) far set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(af), len(bf))
		}
		if !equalInt32(an, bn) {
			return fmt.Errorf("core: %s list row %d (leaf %d) near set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(an), len(bn))
		}
		if !equalInt32(as, bs) {
			return fmt.Errorf("core: %s list row %d (leaf %d) sym set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(as), len(bs))
		}
		if ac, bc := a.Cede[a.CedeOff[i]:a.CedeOff[i+1]], b.Cede[b.CedeOff[i]:b.CedeOff[i+1]]; !equalInt32(ac, bc) {
			return fmt.Errorf("core: %s list row %d (leaf %d) ceded set drifted: %d -> %d entries",
				phase, i, a.Rows[i], len(ac), len(bc))
		}
		if (a.FarOrd == nil) != (b.FarOrd == nil) {
			return fmt.Errorf("core: %s lists disagree on order annotations (%v -> %v)",
				phase, a.FarOrd != nil, b.FarOrd != nil)
		}
		if a.FarOrd != nil {
			ao := a.FarOrd[a.FarOff[i]:a.FarOff[i+1]]
			bo := b.FarOrd[b.FarOff[i]:b.FarOff[i+1]]
			for k := range ao {
				if ao[k] != bo[k] {
					return fmt.Errorf("core: %s list row %d (leaf %d) far entry %d admitted order drifted: %d -> %d",
						phase, i, a.Rows[i], k, ao[k], bo[k])
				}
			}
		}
	}
	return nil
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
