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

// farSeparated is THE far-field opening test, shared by every recursive
// traversal (ApproxIntegrals, ApproxEpol) and by the interaction-list
// compiler (ilist.go), so the compiled lists
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
// near is the worker's buffer for a row's near leaves (bornTile).
//
// The struct is kept at exactly 128 bytes (three slice headers + the meter
// + pad) so that each heap-allocated accumulator lands in the 128-byte
// size class and spans exactly two cache lines alone: the hot ops/maxTask
// updates of adjacent workers then never false-share
// (TestAccumulatorsCacheLineSized pins the size).
type bornAccum struct {
	node []float64
	atom []float64
	near []int32
	_    [3]float64
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
	return &bornAccum{
		node: make([]float64, sys.Atoms.NumNodes()),
		atom: make([]float64, sys.Mol.NumAtoms()),
	}
}

func (b *bornAccum) add(o *bornAccum) {
	for i, v := range o.node {
		b.node[i] += v
	}
	for i, v := range o.atom {
		b.atom[i] += v
	}
	b.ops += o.ops
}

// vecLen is the length of the accumulator's cross-rank reduction vector:
// the node and atom scalars.
func (b *bornAccum) vecLen() int { return len(b.node) + len(b.atom) }

// appendVec flattens the reducible fields into vec: node, then atom.
func (b *bornAccum) appendVec(vec []float64) []float64 {
	vec = append(vec, b.node...)
	return append(vec, b.atom...)
}

// readVec is the inverse of appendVec: it overwrites the reducible
// fields from a reduced vector (which must have length vecLen).
func (b *bornAccum) readVec(vec []float64) {
	copy(b.atom, vec[copy(b.node, vec):])
}

// ApproxIntegrals runs Figure 2's APPROX-INTEGRALS for one leaf Q of the
// q-points octree against the subtree of T_A rooted at aNode,
// accumulating into acc. mac is System.bornMAC(), the opening multiplier.
//
// Far pairs contribute the pseudo-q-point term ñ_Q·(c_Q−c_A)/r_AQ⁶ to the
// node field s_A; near leaf pairs get the exact per-atom/per-q-point sums;
// everything else recurses. The kernel is sqrt-free: both the openness
// test and the r⁻⁶ weights use squared distances only.
func ApproxIntegrals(sys *System, acc *bornAccum, aNode, qLeaf int32, mac float64) {
	a := &sys.Atoms.Nodes[aNode]
	q := &sys.QPts.Nodes[qLeaf]
	d, d2, far := farSeparated(a.Center, q.Center, a.Radius, q.Radius, mac)
	acc.ops++ // node-pair visit

	kern := sys.Params.Kernel
	if far {
		// Far enough: treat Q as a single pseudo-q-point at its center.
		acc.node[aNode] += sys.QNodeWN[qLeaf].Dot(d) / bornDenom(d2, kern)
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
			ApproxIntegrals(sys, acc, child, qLeaf, mac)
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
// ancestor prefix is a single forward sweep, not a recursion.
func PushIntegralsToAtoms(sys *System, acc *bornAccum, loSlot, hiSlot int, out []float64) float64 {
	t := sys.Atoms
	k := sys.kern()
	// The downward-inheritance vector is pure scratch: borrow it from the
	// System's free list instead of allocating NumNodes floats on every call
	// (once per rank per run, and once per pose in warm-engine scans).
	inherit := sys.grabNodeScratch()
	defer sys.releaseNodeScratch(inherit)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.IsLeaf {
			continue
		}
		down := inherit[i] + acc.node[i]
		for _, c := range n.Children {
			if c != octree.NoChild {
				inherit[c] = down
			}
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
		for s := lo; s < hi; s++ {
			out[s] = bornFromIntegralKernel(acc.atom[s]+total, sys.Radius[s], k, sys.Params.Kernel)
		}
		ops += float64(hi - lo)
	}
	return ops
}
