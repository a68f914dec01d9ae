package core

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// strictMACFactor converts the paper's Section II far-field condition
//
//	r_AQ > (r_A+r_Q) · ((1+ε)^{1/6}+1)/((1+ε)^{1/6}−1)
//
// into a single multiplier: nodes are far enough when
// dist > (r_A+r_Q)·strictMACFactor(ε). This is the worst-case bound that
// keeps the per-pair 1/r⁶ kernel within relative error ε; at ε = 0.9 it
// is ≈18.7 — so strict far-field pairs are rare below ~10⁵ atoms.
// ε = 0 yields +Inf: nothing is ever far and the traversal is exact.
func strictMACFactor(eps float64) float64 {
	return strictMACFactorKernel(eps, R6)
}

// strictMACFactorKernel generalizes the worst-case opening bound to the
// kernel's decay power (1/6 for r⁶, 1/4 for r⁴).
func strictMACFactorKernel(eps float64, k BornKernel) float64 {
	if eps <= 0 {
		return math.Inf(1)
	}
	power := 1.0 / 6
	if k == R4 {
		power = 1.0 / 4
	}
	beta := math.Pow(1+eps, power)
	return (beta + 1) / (beta - 1)
}

// looseMACFactor is the opening criterion consistent with the paper's
// measured behaviour (and with Figure 3's E_pol test, whose (1 + 2/ε)
// threshold is exactly (β+1)/(β−1) with β = 1+ε): far when
// dist > (r_A+r_Q)·(1 + 2/ε). Because the pseudo-q-point sits at the
// centroid, the leading error term cancels and the observed energy error
// stays below 1% at ε = 0.9 while the Born phase drops from Θ(M·N) to
// O(M log M) — the paper's reported regime. See DESIGN.md §1 for the
// measured comparison of both criteria.
func looseMACFactor(eps float64) float64 {
	if eps <= 0 {
		return math.Inf(1)
	}
	return 1 + 2/eps
}

// bornMAC returns the system's Born-phase opening multiplier.
func (s *System) bornMAC() float64 {
	if s.Params.StrictBornMAC {
		return strictMACFactorKernel(s.Params.EpsBorn, s.Params.Kernel)
	}
	return looseMACFactor(s.Params.EpsBorn)
}

// bornMACs returns the Born-phase opening-multiplier ladder: slot 0 is
// bornMAC() exactly, slots 1..FarOrder the equal-error loosened
// multipliers of the higher-order expansions (farorder.go).
func (s *System) bornMACs() [maxFarOrder + 1]float64 {
	return macLadder(s.bornMAC(), s.Params.FarOrder, bornLadderDeg(s.Params.Kernel))
}

// farSeparated is THE far-field opening test, shared by every recursive
// traversal (ApproxIntegrals, DualTreeIntegrals, ApproxEpol, expandPairs)
// and by the interaction-list compiler (ilist.go), so the compiled lists
// cannot drift from the recursive reference paths. Two clusters with
// centers ca/cb and enclosing radii ra/rb are far enough to interact
// through their aggregates when dist(ca,cb) > (ra+rb)·mac. The center
// offset cb−ca and its squared norm are returned because the far-field
// kernels reuse both. Sqrt-free, like the traversals.
func farSeparated(ca, cb geom.Vec3, ra, rb, mac float64) (d geom.Vec3, d2 float64, far bool) {
	d = cb.Sub(ca)
	d2 = d.Norm2()
	s := (ra + rb) * mac
	return d, d2, d2 > s*s
}

// bornDenom returns the kernel denominator |r|⁶ or |r|⁴ from |r|².
func bornDenom(r2 float64, k BornKernel) float64 {
	if k == R4 {
		return r2 * r2
	}
	return r2 * r2 * r2
}

// bornAccum is one worker's private set of s-fields: s_A per atoms-octree
// node and s_a per atom slot (Figure 2). Workers accumulate privately and
// the runner merges, so the parallel traversal needs no atomics.
//
// The struct is kept at exactly 128 bytes (four slice headers + the
// meter + pad) so that each heap-allocated accumulator lands in the
// 128-byte size class and spans exactly two cache lines alone: the hot
// ops/maxTask updates of adjacent workers then never false-share
// (TestAccumulatorsCacheLineSized pins the size).
type bornAccum struct {
	node []float64
	atom []float64
	// grad/hess extend each node's far-field contribution to a receiver
	// expansion value(ξ) = s + g·ξ + ξᵀhξ in the offset ξ from the node
	// center, fed by the order-1/2 moment corrections (farorder.go) and
	// translated to the atoms by PushIntegralsToAtoms. Both are nil at
	// FarOrder = 0, where the downward pass reduces to the plain
	// ancestor-prefix sum, bit for bit.
	grad []geom.Vec3
	hess []geom.Sym3
	workMeter
	_ float64
}

// workMeter is the op bookkeeping every worker-private accumulator
// carries, so one row sweep (pipeline.go) can meter any phase: ops counts
// kernel evaluations, maxTask is the largest single-row count of the
// current sweep — the span term of the Brent-bound time model (see
// modelPhaseOps) — and mark is ops at the sweep's start.
type workMeter struct{ ops, maxTask, mark float64 }

func newBornAccum(sys *System) *bornAccum {
	b := &bornAccum{
		node: make([]float64, sys.Atoms.NumNodes()),
		atom: make([]float64, sys.Mol.NumAtoms()),
	}
	// Checked per call, not cached: FarOrder may be set after NewSystem
	// (engine options mutate Params before the first run).
	if sys.Params.FarOrder > 0 {
		b.grad = make([]geom.Vec3, sys.Atoms.NumNodes())
		b.hess = make([]geom.Sym3, sys.Atoms.NumNodes())
	}
	return b
}

func (b *bornAccum) add(o *bornAccum) {
	for i, v := range o.node {
		b.node[i] += v
	}
	for i, v := range o.atom {
		b.atom[i] += v
	}
	for i, v := range o.grad {
		b.grad[i] = b.grad[i].Add(v)
	}
	for i, v := range o.hess {
		b.hess[i] = b.hess[i].Add(v)
	}
	b.ops += o.ops
}

// vecLen is the length of the accumulator's cross-rank reduction vector:
// the node and atom scalars, plus — only when the far-order ladder is
// active (grad/hess allocated) — the per-node receiver-expansion gradient
// and Hessian components. Every field of value(ξ) = s + g·ξ + ξᵀhξ must
// cross ranks before PushIntegralsToAtoms, or each rank's push would see
// only its own rows' moment corrections. At FarOrder = 0 the layout (and
// so every collective's byte count) is exactly the pre-ladder nNodes+
// nAtoms.
func (b *bornAccum) vecLen() int {
	n := len(b.node) + len(b.atom)
	if b.grad != nil {
		n += 9 * len(b.grad)
	}
	return n
}

// appendVec flattens the reducible fields into vec (layout: node, atom,
// then per-node grad X/Y/Z and hess XX/YY/ZZ/XY/XZ/YZ when present).
func (b *bornAccum) appendVec(vec []float64) []float64 {
	vec = append(vec, b.node...)
	vec = append(vec, b.atom...)
	for _, g := range b.grad {
		vec = append(vec, g.X, g.Y, g.Z)
	}
	for _, h := range b.hess {
		vec = append(vec, h.XX, h.YY, h.ZZ, h.XY, h.XZ, h.YZ)
	}
	return vec
}

// readVec is the inverse of appendVec: it overwrites the reducible
// fields from a reduced vector (which must have length vecLen).
func (b *bornAccum) readVec(vec []float64) {
	nNodes := copy(b.node, vec)
	nAtoms := copy(b.atom, vec[nNodes:])
	rest := vec[nNodes+nAtoms:]
	for i := range b.grad {
		b.grad[i] = geom.V(rest[3*i], rest[3*i+1], rest[3*i+2])
	}
	rest = rest[3*len(b.grad):]
	for i := range b.hess {
		b.hess[i] = geom.Sym3{
			XX: rest[6*i], YY: rest[6*i+1], ZZ: rest[6*i+2],
			XY: rest[6*i+3], XZ: rest[6*i+4], YZ: rest[6*i+5],
		}
	}
}

// ApproxIntegrals runs Figure 2's APPROX-INTEGRALS for one leaf Q of the
// q-points octree against the subtree of T_A rooted at aNode,
// accumulating into acc. macs is System.bornMACs() — the opening
// multiplier ladder; with FarOrder = 0 it degenerates to the single
// bornMAC() multiplier and this reproduces the paper's traversal bit for
// bit.
//
// Far pairs contribute the pseudo-q-point term ñ_Q·(c_Q−c_A)/r_AQ⁶ to the
// node field s_A — plus, at admitted order ≥ 1, the moment corrections of
// farorder.go into the node's receiver expansion; near leaf pairs get the
// exact per-atom/per-q-point sums; everything else recurses. The order-0
// kernel is sqrt-free: both the openness test and the r⁻⁶ weights use
// squared distances only.
func ApproxIntegrals(sys *System, acc *bornAccum, aNode, qLeaf int32, macs *[maxFarOrder + 1]float64) {
	pmax := sys.Params.FarOrder
	var fm bornFarMoments
	if pmax > 0 {
		// The q-leaf's source moments, gathered once per row: the per-node
		// arrays may be reallocated by octree updates, so views never
		// outlive the call.
		fm = bornRowMoments(sys.QPts.MomentsOf(momentSetWN), qLeaf)
	}
	approxIntegralsRec(sys, acc, aNode, qLeaf, macs, pmax, &fm)
}

func approxIntegralsRec(sys *System, acc *bornAccum, aNode, qLeaf int32, macs *[maxFarOrder + 1]float64, pmax int, fm *bornFarMoments) {
	a := &sys.Atoms.Nodes[aNode]
	q := &sys.QPts.Nodes[qLeaf]
	d := q.Center.Sub(a.Center)
	d2 := d.Norm2()
	// Loosened rungs admit internal nodes only (see listPhase.rungs): a leaf
	// classifies by the base multiplier, keeping leaf-level near blocks
	// exact instead of migrating them into the far list.
	p := pmax
	if a.IsLeaf {
		p = 0
	}
	_, far := farOrderOf(d2, a.Radius, q.Radius, macs, p)
	acc.ops++ // node-pair visit

	kern := sys.Params.Kernel
	if far {
		// Far enough: treat Q as a single pseudo-q-point at its center.
		// Every far admission is corrected through the RUN order pmax —
		// the admitted rung decides admission only (farField's comment).
		acc.node[aNode] += sys.QNodeWN[qLeaf].Dot(d) / bornDenom(d2, kern)
		if pmax > 0 {
			ds, dg, dh := bornFarCorrection(fm, d.X, d.Y, d.Z, d2, kern == R4, pmax)
			acc.node[aNode] += ds
			acc.grad[aNode] = acc.grad[aNode].Add(dg)
			acc.hess[aNode] = acc.hess[aNode].Add(dh)
		}
		return
	}
	if a.IsLeaf {
		// Too close to approximate: exact contributions.
		for ai := a.Start; ai < a.End; ai++ {
			pa := sys.Atoms.Pts[ai]
			var s float64
			for qi := q.Start; qi < q.End; qi++ {
				dv := sys.QPts.Pts[qi].Sub(pa)
				r2 := dv.Norm2()
				if r2 == 0 {
					continue
				}
				s += sys.WN[qi].Dot(dv) / bornDenom(r2, kern)
			}
			acc.atom[ai] += s
		}
		acc.ops += float64(a.Count() * q.Count())
		return
	}
	for _, child := range a.Children {
		if child != octree.NoChild {
			approxIntegralsRec(sys, acc, child, qLeaf, macs, pmax, fm)
		}
	}
}

// PushIntegralsToAtoms implements Figure 2's downward pass: every atom's
// total integral is its own s_a plus the s_A of all ancestors; the Born
// radius follows from the r⁻³ inversion. Only slots in [loSlot, hiSlot)
// are written into out — the paper's atom-segment work division
// (s_id/e_id in Figure 2).
//
// Because the linearized tree stores parents before children, the
// ancestor prefix is a single forward sweep, not a recursion. When the
// accumulator carries receiver expansions (FarOrder > 0), the sweep is
// the L2L translation of the expansion value(ξ) = s + g·ξ + ξᵀhξ to each
// child center (Δ = c_child − c_parent):
//
//	s' = s + g·Δ + ΔᵀhΔ,  g' = g + 2hΔ,  h' = h
//
// and each atom finally evaluates the leaf expansion at its own offset.
// With nil grad/hess (FarOrder = 0) the pass is the plain prefix sum,
// bit for bit.
func PushIntegralsToAtoms(sys *System, acc *bornAccum, loSlot, hiSlot int, out []float64) float64 {
	t := sys.Atoms
	k := sys.kern()
	// The downward-inheritance vector is pure scratch: borrow it from the
	// System pool instead of allocating NumNodes floats on every call
	// (once per rank per run, and once per pose in warm-engine scans).
	inherit := sys.grabNodeScratch()
	defer sys.releaseNodeScratch(inherit)
	var gin []geom.Vec3
	var hin []geom.Sym3
	if acc.grad != nil {
		gin = make([]geom.Vec3, t.NumNodes())
		hin = make([]geom.Sym3, t.NumNodes())
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.IsLeaf {
			continue
		}
		down := inherit[i] + acc.node[i]
		if gin == nil {
			for _, c := range n.Children {
				if c != octree.NoChild {
					inherit[c] = down
				}
			}
			continue
		}
		g := gin[i].Add(acc.grad[i])
		h := hin[i].Add(acc.hess[i])
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			dl := t.Nodes[c].Center.Sub(n.Center)
			inherit[c] = down + g.Dot(dl) + h.Quad(dl)
			gin[c] = g.Add(h.MulVec(dl).Scale(2))
			hin[c] = h
		}
	}
	ops := float64(t.NumNodes())
	for _, li := range t.Leaves() {
		n := &t.Nodes[li]
		lo, hi := int(n.Start), int(n.End)
		if hi <= loSlot || lo >= hiSlot {
			continue
		}
		if lo < loSlot {
			lo = loSlot
		}
		if hi > hiSlot {
			hi = hiSlot
		}
		total := inherit[li] + acc.node[li]
		if gin == nil {
			for s := lo; s < hi; s++ {
				out[s] = bornFromIntegralKernel(acc.atom[s]+total, sys.Radius[s], k, sys.Params.Kernel)
			}
		} else {
			// Far entries can be leaves (the Born classification tests
			// openness before leafness), so the leaf's own expansion terms
			// join the inherited ones before the per-atom evaluation.
			g := gin[li].Add(acc.grad[li])
			h := hin[li].Add(acc.hess[li])
			for s := lo; s < hi; s++ {
				dl := t.Pts[s].Sub(n.Center)
				v := total + g.Dot(dl) + h.Quad(dl)
				out[s] = bornFromIntegralKernel(acc.atom[s]+v, sys.Radius[s], k, sys.Params.Kernel)
			}
		}
		ops += float64(hi - lo)
	}
	return ops
}
