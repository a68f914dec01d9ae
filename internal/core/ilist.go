package core

import (
	"fmt"
	"math"

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
// A list is two things of very different weight. The INDEX — Rows, the
// four offset arrays, Far, Near, Sym, Cede and, under a ladder, FarOrd:
// 4 bytes an entry — is all an evaluation reads. The CERTIFICATE — the six
// margin arrays below, 16 bytes an entry, with CompiledLists.nodeC/nodeR —
// is read only by the incremental repair (ilist_repair.go), so a compile
// leaves it out (every margin array nil) and the first repair builds it
// (System.materialize); from then on each repair hands it on. All of it is
// present or none of it.
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
	// repair (ilist_repair.go) can reconstruct the row's full
	// pre-symmetrization near list — and certify its verdicts — without
	// scanning every other row's Sym.
	CedeOff []int32
	Cede    []int32
	// The certificate. Margins record each opening test's distance to
	// reclassification,
	// |dist(centers) − (r_a+r_b)·mac| — the slack the incremental repair
	// certifies cached verdicts against. FarMargin[k] is the slack of
	// the test that classified Far[k]; NearMargin[k] likewise for
	// Near[k] (nil for E_pol lists, whose leaf-first ordering reaches
	// near leaves without testing them). The *Path arrays carry, per
	// entry, the minimum slack over the INTERNAL tests on the entry's
	// root path — the nodes the classification descended through to
	// reach it, which appear in no list (+Inf for root-level entries).
	// As long as the geometry drifts less than a test's slack, that
	// verdict cannot flip; all certificates are per ENTRY because drift
	// is wildly non-uniform (a two-atom leaf losing an atom jumps ~1 Å
	// while every other node barely moves), so any row-level coupling —
	// one min slack against one max drift — taints every row that can
	// see a moved leaf somewhere in its lists.
	FarMargin  []float64
	FarPath    []float64
	NearMargin []float64
	NearPath   []float64
	SymPath    []float64
	CedePath   []float64
	// FarOrd[k] is the expansion order the ladder admitted Far[k] at
	// (farorder.go): the batch kernels dispatch the moment corrections on
	// it without re-testing geometry. nil when compiled at FarOrder = 0,
	// where every far entry is order 0 — the margin semantics are then
	// exactly the pre-ladder ones. Under a ladder the margins change
	// meaning slightly: an entry's FarMargin is its distance to the
	// nearest ORDER boundary (drifting across one reclassifies the entry
	// even if it stays far), and near/path margins measure to the loosest
	// rung, macs[FarOrder].
	FarOrd []uint8
}

// NumFar returns the total far-field entry count.
func (il *InteractionLists) NumFar() int { return len(il.Far) }

// NumNear returns the total near leaf-pair count.
func (il *InteractionLists) NumNear() int { return len(il.Near) }

// IndexBytes is the footprint of the index arrays — what an evaluation
// reads.
func (il *InteractionLists) IndexBytes() int64 {
	return int64(len(il.Rows)+len(il.FarOff)+len(il.Far)+
		len(il.NearOff)+len(il.Near)+len(il.SymOff)+len(il.Sym)+
		len(il.CedeOff)+len(il.Cede))*4 + int64(len(il.FarOrd))
}

// CertificateBytes is the footprint of the margin arrays: 0 until the
// first repair materialises them.
func (il *InteractionLists) CertificateBytes() int64 {
	return int64(len(il.FarMargin)+len(il.FarPath)+len(il.NearMargin)+
		len(il.NearPath)+len(il.SymPath)+len(il.CedePath)) * 8
}

// MemoryBytes reports the footprint of what the list holds now.
func (il *InteractionLists) MemoryBytes() int64 { return il.IndexBytes() + il.CertificateBytes() }

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
	// nodeC/nodeR snapshot the atoms-octree node centers and radii the
	// lists were certified against (at materialisation or at the last
	// repair); nil while the lists carry no certificate. The incremental
	// repair compares them to the post-update geometry to measure each
	// node's ACTUAL drift — far tighter than any a-priori displacement
	// bound, since an opening test's operands move with a node's centroid
	// and radius, not with the fastest atom.
	nodeC []geom.Vec3
	nodeR []float64
}

// certified reports whether the lists carry their repair certificate.
func (cl *CompiledLists) certified() bool { return cl.nodeR != nil }

// matches reports whether the cached lists were compiled under the
// system's current opening criteria.
func (cl *CompiledLists) matches(sys *System) bool {
	return cl != nil && cl.bornMAC == sys.bornMAC() && cl.epolFar == epolFarFactor(sys.Params.EpsEpol) &&
		cl.farOrder == sys.Params.FarOrder
}

// IndexBytes is both phases' index footprint.
func (cl *CompiledLists) IndexBytes() int64 { return cl.Born.IndexBytes() + cl.Epol.IndexBytes() }

// CertificateBytes is the footprint of the repair certificate — both
// phases' margins and the node snapshot — and 0 until a repair has
// materialised it.
func (cl *CompiledLists) CertificateBytes() int64 {
	return cl.Born.CertificateBytes() + cl.Epol.CertificateBytes() +
		int64(len(cl.nodeC))*24 + int64(len(cl.nodeR))*8
}

// MemoryBytes reports the footprint of what the compiled lists hold now:
// the index alone after a compile, index and certificate once a repair has
// happened.
func (cl *CompiledLists) MemoryBytes() int64 { return cl.IndexBytes() + cl.CertificateBytes() }

// listPhase is one phase's classification problem, shared by the full
// compile and the incremental repair (ilist_repair.go): the row clusters
// are rowTree's leaves in Leaves() order, each classified against the
// atoms octree under the opening-multiplier ladder macs/pmax
// (farorder.go; macs[0] is the base multiplier, and pmax = 0 degenerates
// to the original single-multiplier classification, margins included, bit
// for bit). leafFirst selects the traversal ordering (see classify) and
// says the rows are atom leaves, which drift under an update; symmetrize
// moves mutual near leaf pairs into the Sym list of the lower-indexed row
// (valid only when rowTree == atoms, i.e. the E_pol phase).
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

// nearLists is a CSR of near leaves with their margins, in classification
// emission order: the PRE-symmetrization lists. For an unsymmetrized
// phase they are the final Near arrays.
type nearLists struct {
	off  []int32
	n    []int32
	m, p []float64 // own-test slack (nil for leaf-first rows), path minimum
	// rows, when set, holds each row's entries in place of n: the index
	// build leaves a symmetrized phase's near entries in the chunk arenas
	// that collected them, since symmetrization reads them once, row by
	// row, and throws them away.
	rows [][]int32
}

// row returns row k's entries.
func (nl *nearLists) row(k int) []int32 {
	if nl.rows != nil {
		return nl.rows[k]
	}
	return nl.n[nl.off[k]:nl.off[k+1]]
}

// rowSink receives one row's classification. A filling sink (fill set)
// starts the cursors nf/nn at the row's offsets and writes each entry with
// its margins into the final arrays, which all rows share at disjoint
// ranges. Any other sink takes the verdicts alone and advances the cursors
// from where they stand — the counting half of the certified build's
// count-then-fill — and, when it holds an arena, also appends each
// verdict's node id there: the one descent of the index build.
type rowSink struct {
	fill   bool
	nf, nn int32
	il     *InteractionLists
	near   *nearLists
	idx    *listArena
}

// listArena collects the index entries of one contiguous block of rows in
// classification order: far nodes and near leaves, and under a ladder —
// where reserve makes ord non-nil — the far nodes' admitted orders.
type listArena struct {
	far, near []int32
	ord       []uint8
}

// farVerdict and nearVerdict record a verdict-only classification.
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

// classify descends the atoms octree from node n against a row cluster
// (center, radius), splitting the subtree into far nodes and near
// leaves. It mirrors the recursive kernels exactly — including their one
// structural difference: APPROX-EPOL tests u.IsLeaf BEFORE the opening
// test (a leaf U is always evaluated exactly), while APPROX-INTEGRALS
// tests openness first (a far leaf uses the pseudo-q-point shortcut).
// pmin is the minimum internal-test slack accumulated on the root path so
// far (math.Inf(1) at the root): every emitted entry records it, so the
// repair can check each entry's path against the drift on THAT path
// alone.
func (ph *listPhase) classify(n int32, center geom.Vec3, radius, pmin float64, out *rowSink) {
	node := &ph.atoms.Nodes[n]
	if ph.leafFirst && node.IsLeaf {
		if !out.fill {
			out.nearVerdict(n)
			return
		}
		out.near.n[out.nn], out.near.p[out.nn] = n, pmin
		out.nn++
		return
	}
	d2 := center.Sub(node.Center).Norm2()
	// Loosened rungs admit INTERNAL nodes only: admitting a leaf pair
	// early has nothing to consolidate — it would trade an exact near
	// block for an approximate far entry, spending error budget while
	// GROWING the far list. A leaf therefore classifies by the base
	// multiplier alone (identical to pre-ladder), and rungs ≥ 1 fire
	// exactly where they pay: a rung admission at an internal node
	// replaces its subtree's whole far/near expansion with one entry.
	p := ph.pmax
	if node.IsLeaf {
		p = 0
	}
	macs := &ph.macs
	ord, far := farOrderOf(d2, node.Radius, radius, macs, p)
	if !out.fill {
		// The verdicts alone: no margins, so no square root.
		switch {
		case far:
			out.farVerdict(n, ord)
		case node.IsLeaf:
			out.nearVerdict(n)
		default:
			for _, child := range node.Children {
				if child != octree.NoChild {
					ph.classify(child, center, radius, pmin, out)
				}
			}
		}
		return
	}
	dist := math.Sqrt(d2)
	if far {
		// The slack is the distance to the nearest boundary that would
		// RECLASSIFY the entry. For an order-0 entry that is the base
		// multiplier (one-sided under a ladder: drifting below macs[0]
		// demotes the entry to order 1 — or to near for a leaf — so the
		// absolute value matches the pre-ladder expression bitwise). An
		// order-k entry sits between rungs k and k−1 and can flip either
		// way.
		m := math.Abs(dist - (node.Radius+radius)*macs[0])
		if ord > 0 {
			m = dist - (node.Radius+radius)*macs[ord]
			if up := (node.Radius+radius)*macs[ord-1] - dist; up < m {
				m = up
			}
		}
		il := out.il
		il.Far[out.nf], il.FarMargin[out.nf], il.FarPath[out.nf] = n, m, pmin
		if il.FarOrd != nil {
			il.FarOrd[out.nf] = uint8(ord)
		}
		out.nf++
		return
	}
	// Not admitted at any order: the nearest boundary is the loosest
	// rung the node is ELIGIBLE for — macs[pmax] for internal nodes,
	// macs[0] for leaves (== pre-ladder, where math.Abs of the negated
	// difference yields the same bits).
	m := (node.Radius+radius)*macs[p] - dist
	if node.IsLeaf {
		out.near.n[out.nn], out.near.m[out.nn], out.near.p[out.nn] = n, m, pmin
		out.nn++
		return
	}
	// Descending: an internal test, owned by the row (the node appears
	// in no list) — it joins the path minimum of everything below.
	if m < pmin {
		pmin = m
	}
	for _, child := range node.Children {
		if child != octree.NoChild {
			ph.classify(child, center, radius, pmin, out)
		}
	}
}

// classifyRow classifies the row cluster of rowTree leaf r from the root.
func (ph *listPhase) classifyRow(r int32, out *rowSink) {
	rn := &ph.rowTree.Nodes[r]
	ph.classify(ph.atoms.Root(), rn.Center, rn.Radius, math.Inf(1), out)
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

// index compiles the phase's index lists in ONE descent per row. Nobody
// knows a row's entry counts before classifying it, so the rows are cut
// into contiguous chunks — a few per worker — and each chunk's verdicts are
// appended to an arena of its own; one prefix sum over the per-row counts
// then sizes the final CSR arrays exactly and the chunks copy themselves
// into place in parallel, in row order. The entries and their order are
// those of the certified build below, which RecheckLists and
// System.materialize hold it to.
func (ph *listPhase) index(pool *sched.Pool) *InteractionLists {
	il, pre := ph.newLists()
	rows, n := il.Rows, len(il.Rows)
	chunks := listChunksPerWorker
	if pool != nil {
		chunks *= pool.NumWorkers()
	}
	bound := func(c int) int { return c * n / chunks }
	arenas := make([]listArena, chunks)
	if ph.symmetrize {
		pre.rows = make([][]int32, n)
	}
	forRows(pool, chunks, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			a, first := &arenas[c], bound(c)
			chunk := rows[first:bound(c+1)]
			ph.reserve(a, chunk)
			sink := rowSink{idx: a}
			for i, r := range chunk {
				sink.nf, sink.nn = 0, 0
				ph.classifyRow(r, &sink)
				il.FarOff[first+i+1], pre.off[first+i+1] = sink.nf, sink.nn
			}
			if pre.rows != nil { // now that a.near has stopped growing
				at := int32(0)
				for k := first; k < first+len(chunk); k++ {
					pre.rows[k] = a.near[at : at+pre.off[k+1]]
					at += pre.off[k+1]
				}
			}
		}
	})
	nf, nn := prefixSum(il.FarOff), prefixSum(pre.off)
	allocAll(pool,
		func() { il.Far = make([]int32, nf) },
		func() { il.FarOrd = ph.newFarOrd(nf) },
		func() {
			if pre.rows == nil {
				pre.n = make([]int32, nn)
			}
		})
	forRows(pool, chunks, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			a, k := &arenas[c], bound(c)
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
	ph.splitNear(il, &pre, pool, nil)
	return il
}

// listChunksPerWorker is the number of row chunks the index build cuts per
// worker: enough that a worker that drew dense rows can hand chunks on,
// few enough that the arenas are a few dozen objects.
const listChunksPerWorker = 8

// arenaSamples is the number of a chunk's rows reserve classifies to size
// the chunk's arena: at 32 the estimate is within a few percent for far
// entries and about a tenth for near leaves (whose count follows the local
// density), for 2 % more descents at 20 000 atoms.
const arenaSamples = 32

// reserve sizes a's arrays for the rows of one chunk from rows already
// classified: it counts the verdicts of a few evenly spaced ones and
// scales them to the chunk, plus a sixteenth. A chunk that turns out
// denser than its sample grows by append; a worst-case reservation would
// be several times the lists.
func (ph *listPhase) reserve(a *listArena, chunk []int32) {
	var probe rowSink
	step := len(chunk)/arenaSamples + 1
	for i := 0; i < len(chunk); i += step {
		ph.classifyRow(chunk[i], &probe)
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

// splitNear turns the pre-symmetrization near lists into il's Near, Sym
// and Cede: split by mutuality for a symmetrized phase, as they are
// otherwise. The path margins follow their entries when pre carries them.
func (ph *listPhase) splitNear(il *InteractionLists, pre *nearLists, pool *sched.Pool, o *obs.Obs) {
	if ph.symmetrize {
		sp := o.Begin(0, "ilist", "ilist.repair.symmetrize", obs.NoVirtual)
		symmetrizeNear(il, pre, len(ph.atoms.Nodes), pool)
		sp.End(obs.NoVirtual)
		return
	}
	il.Near, il.NearMargin, il.NearPath = pre.n, pre.m, pre.p
	il.Sym, il.Cede = []int32{}, []int32{}
	if pre.p != nil {
		il.SymPath, il.CedePath = []float64{}, []float64{}
	}
}

// build produces the phase's CERTIFIED lists, index and margins: a full
// compile when old is nil (System.materialize), otherwise the repair of
// old against the updated atoms tree, in which the rows cert certifies
// clean carry their cached entries over (ilist_repair.go). Both run the
// same linear, pool-parallel steps, so a repaired list is byte-for-byte
// what a fresh compile produces: count every row's entries (rows to
// classify descend once without writing), size the final arrays once, fill
// them in place (those rows descend again, now writing at their offsets),
// and split the near lists into near/sym/cede. It stays count-then-fill
// where index appends: an entry here is 20 bytes in up to four arrays, a
// repair classifies an eighth of the rows, and carried rows need their
// offsets before anything is written — an arena would copy what the second
// descent writes in place. Nothing is appended to, so nothing grows or is
// copied, and the only transient arrays — the E_pol phase's
// pre-symmetrization lists and their transpose — die with the call. It
// returns the lists and the number of rows classified. o (nil for a
// compile) receives the repair's sub-phase spans.
func (ph *listPhase) build(old *InteractionLists, cert *repairCert, pool *sched.Pool, o *obs.Obs) (il *InteractionLists, classified int) {
	il, pre := ph.newLists()
	rows, n := il.Rows, len(il.Rows)
	// src[k] is the cached row that row k carries over, −1 for a row to
	// classify.
	src := make([]int32, n)
	if old == nil {
		for k := range src {
			src[k] = -1
		}
	} else {
		sp := o.Begin(0, "ilist", "ilist.repair.certify", obs.NoVirtual)
		ph.certify(old, cert, rows, src, pool)
		sp.End(obs.NoVirtual)
	}

	sp := o.Begin(0, "ilist", "ilist.repair.classify", obs.NoVirtual)
	dirty := make([]int32, 0, n)
	for k, i := range src {
		if i < 0 {
			dirty = append(dirty, int32(k))
			continue
		}
		il.FarOff[k+1] = old.FarOff[i+1] - old.FarOff[i]
		pre.off[k+1] = old.NearOff[i+1] - old.NearOff[i] + old.SymOff[i+1] - old.SymOff[i] + old.CedeOff[i+1] - old.CedeOff[i]
	}
	forRows(pool, len(dirty), func(lo, hi, _ int) {
		for _, k := range dirty[lo:hi] {
			var sink rowSink
			ph.classifyRow(rows[k], &sink)
			il.FarOff[k+1], pre.off[k+1] = sink.nf, sink.nn
		}
	})
	nf, nn := prefixSum(il.FarOff), prefixSum(pre.off)
	allocAll(pool,
		func() { il.Far = make([]int32, nf) },
		func() { il.FarMargin = make([]float64, nf) },
		func() { il.FarPath = make([]float64, nf) },
		func() { il.FarOrd = ph.newFarOrd(nf) },
		func() { pre.n = make([]int32, nn) },
		func() { pre.p = make([]float64, nn) },
		func() {
			if !ph.leafFirst && nn > 0 { // Born lists; E_pol's leaf-first rows carry no near tests
				pre.m = make([]float64, nn)
			}
		})
	forRows(pool, len(dirty), func(lo, hi, _ int) {
		for _, k := range dirty[lo:hi] {
			sink := rowSink{fill: true, nf: il.FarOff[k], nn: pre.off[k], il: il, near: &pre}
			ph.classifyRow(rows[k], &sink)
		}
	})
	sp.End(obs.NoVirtual)

	if old != nil {
		sp = o.Begin(0, "ilist", "ilist.repair.assemble", obs.NoVirtual)
		forRows(pool, n, func(lo, hi, _ int) {
			for k := lo; k < hi; k++ {
				if i := src[k]; i >= 0 {
					ph.carryRow(il, &pre, old, cert, k, i)
				}
			}
		})
		sp.End(obs.NoVirtual)
	}
	ph.splitNear(il, &pre, pool, o)
	return il, len(dirty)
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
// the entries, a second scatters them into the arrays the counts sized —
// with their path margins when pre carries them (a certified build), the
// ids alone otherwise. pre's entries are scratch from here on: the first
// pass leaves each one's class in its top bits for the second.
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
	nn, ns, nc := prefixSum(il.NearOff), prefixSum(il.SymOff), prefixSum(il.CedeOff)
	certified := pre.p != nil
	allocs := []func(){
		func() { il.Near = make([]int32, nn) },
		func() { il.Sym = make([]int32, ns) },
		func() { il.Cede = make([]int32, nc) },
	}
	if certified {
		allocs = append(allocs,
			func() { il.NearPath = make([]float64, nn) },
			func() { il.SymPath = make([]float64, ns) },
			func() { il.CedePath = make([]float64, nc) })
	}
	allocAll(pool, allocs...)
	forRows(pool, n, func(lo, hi, _ int) {
		dstN := [3][]int32{il.Near, il.Sym, il.Cede}
		dstP := [3][]float64{il.NearPath, il.SymPath, il.CedePath}
		for k := lo; k < hi; k++ {
			at := [3]int32{il.NearOff[k], il.SymOff[k], il.CedeOff[k]}
			for i, e := range pre.row(k) {
				kd := uint32(e) >> kindShift
				dstN[kd][at[kd]] = e & (1<<kindShift - 1)
				if certified {
					dstP[kd][at[kd]] = pre.p[int(pre.off[k])+i]
				}
				at[kd]++
			}
		}
	})
}

// newCompiledLists returns empty lists stamped with the system's current
// opening criteria.
func (s *System) newCompiledLists() *CompiledLists {
	return &CompiledLists{
		bornMAC:  s.bornMAC(),
		epolFar:  epolFarFactor(s.Params.EpsEpol),
		farOrder: s.Params.FarOrder,
	}
}

// compile builds both phases' index lists from the system's current
// geometry and parameters — all an evaluation needs.
func (s *System) compile(pool *sched.Pool) *CompiledLists {
	cl := s.newCompiledLists()
	born, epol := s.listPhases(cl)
	cl.Born = born.index(pool)
	cl.Epol = epol.index(pool)
	return cl
}

// compileCertified builds both phases' lists with their repair
// certificate: the margins of every opening test and the node geometry
// they were measured on.
func (s *System) compileCertified(pool *sched.Pool) *CompiledLists {
	cl := s.newCompiledLists()
	born, epol := s.listPhases(cl)
	cl.Born, _ = born.build(nil, nil, pool, nil)
	cl.Epol, _ = epol.build(nil, nil, pool, nil)
	cl.nodeC, cl.nodeR = snapshotNodes(s.Atoms)
	return cl
}

// materialize returns cl with its repair certificate: cl itself when it
// carries one, otherwise a certified compile of the current geometry —
// which must be the geometry cl was compiled on, so the caller runs it
// BEFORE a tracked update moves the tree. The certified build is an
// independent second classification, so its index is checked against cl's:
// a difference means cl was not a compile of this geometry, and repairing
// it would certify verdicts nobody took.
func (s *System) materialize(cl *CompiledLists, pool *sched.Pool, o *obs.Obs) (*CompiledLists, error) {
	if cl.certified() {
		return cl, nil
	}
	sp := o.Begin(0, "ilist", "ilist.repair.certificate", obs.NoVirtual)
	defer sp.End(obs.NoVirtual)
	cert := s.compileCertified(pool)
	if err := diffLists("born", cl.Born, cert.Born); err != nil {
		return nil, err
	}
	if err := diffLists("epol", cl.Epol, cert.Epol); err != nil {
		return nil, err
	}
	if o != nil {
		o.Counter("ilist.certificates.materialized").Add(1)
	}
	return cert, nil
}

// snapshotNodes copies the tree's node centers and radii (by node id) —
// the geometric state the repair certificates measure drift against.
func snapshotNodes(t *octree.Tree) ([]geom.Vec3, []float64) {
	c := make([]geom.Vec3, len(t.Nodes))
	r := make([]float64, len(t.Nodes))
	for i := range t.Nodes {
		c[i] = t.Nodes[i].Center
		r[i] = t.Nodes[i].Radius
	}
	return c, r
}

// RecordMetrics publishes the lists' static structure to the observer:
// total row/near/far/sym entry counts per phase plus per-row batch-size
// histograms (the sizes the SoA batch kernels sweep), and what the lists
// hold in bytes — the gauges mem.lists.index_bytes and
// mem.lists.certificate_bytes (0 until a repair materialises it), in total
// and as mem.lists.{born,epol}.* per phase. Everything here is derivable
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
		o.Gauge("mem.lists." + phase + ".index_bytes").Set(float64(il.IndexBytes()))
		o.Gauge("mem.lists." + phase + ".certificate_bytes").Set(float64(il.CertificateBytes()))
	}
	rec("born", cl.Born)
	rec("epol", cl.Epol)
	o.Gauge("mem.lists.index_bytes").Set(float64(cl.IndexBytes()))
	o.Gauge("mem.lists.certificate_bytes").Set(float64(cl.CertificateBytes()))
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
