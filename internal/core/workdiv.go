package core

import (
	"fmt"

	"gbpolar/internal/cluster"
	"gbpolar/internal/octree"
)

// Scheme selects how Figure 4's steps 2 and 6 divide work across ranks
// (Section IV.A, "Different Work Distribution Approaches").
type Scheme int

const (
	// NodeNode divides q-point leaves for the Born phase and atom leaves
	// for the energy phase — the paper's default and best performer. Its
	// error is independent of P because every rank always handles whole
	// tree nodes.
	NodeNode Scheme = iota
	// AtomNode divides atoms for the Born phase (each rank traverses
	// both octrees but only computes for its atom range) and leaves for
	// the energy phase. Division boundaries can split tree nodes, so the
	// error varies with P — the artifact the paper observes (and also
	// sees in Gromacs).
	AtomNode
	// AtomAtom divides atoms in both phases.
	AtomAtom
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case NodeNode:
		return "node-node"
	case AtomNode:
		return "atom-node"
	case AtomAtom:
		return "atom-atom"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ApproxIntegralsAtomRange is the atom-based variant of APPROX-INTEGRALS:
// only atoms with slot index in [lo, hi) receive contributions. The
// far-field shortcut applies only to nodes FULLY inside the range — a
// partially-owned node must recurse so the un-owned part is not
// contaminated, which is both the extra traversal cost and the
// P-dependent approximation error of atom-based division.
func ApproxIntegralsAtomRange(sys *System, acc *bornAccum, aNode, qLeaf int32, mac float64, lo, hi int32) {
	a := &sys.Atoms.Nodes[aNode]
	if a.End <= lo || a.Start >= hi {
		return
	}
	q := &sys.QPts.Nodes[qLeaf]
	d, d2, far := farSeparated(a.Center, q.Center, a.Radius, q.Radius, mac)
	acc.ops++

	kern := sys.Params.Kernel
	owned := a.Start >= lo && a.End <= hi
	if owned && far {
		acc.node[aNode] += sys.QNodeWN[qLeaf].Dot(d) / bornDenom(d2, kern)
		return
	}
	if a.IsLeaf {
		alo, ahi := a.Start, a.End
		if alo < lo {
			alo = lo
		}
		if ahi > hi {
			ahi = hi
		}
		for ai := alo; ai < ahi; ai++ {
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
		acc.ops += float64(int(ahi-alo) * q.Count())
		return
	}
	for _, child := range a.Children {
		if child != octree.NoChild {
			ApproxIntegralsAtomRange(sys, acc, child, qLeaf, mac, lo, hi)
		}
	}
}

// ApproxEpolAtomRange is the atom-based variant of APPROX-EPOL: the rank
// owns atoms [lo, hi) on the V side. Exact loops restrict v to owned
// atoms; far-field interactions use a histogram of only the owned part
// of V, built on the fly (V is a leaf, so this is cheap).
func ApproxEpolAtomRange(ctx *EpolContext, uNode, vLeaf int32, acc *epolAccum, lo, hi int32) {
	sys := ctx.sys
	t := sys.Atoms
	v := &t.Nodes[vLeaf]
	vlo, vhi := v.Start, v.End
	if vlo < lo {
		vlo = lo
	}
	if vhi > hi {
		vhi = hi
	}
	if vlo >= vhi {
		return
	}
	ctx.epolAtomRange(uNode, vLeaf, vlo, vhi, acc)
}

func (ctx *EpolContext) epolAtomRange(uNode, vLeaf, vlo, vhi int32, acc *epolAccum) {
	sys := ctx.sys
	t := sys.Atoms
	u := &t.Nodes[uNode]
	v := &t.Nodes[vLeaf]
	k := sys.kern()
	acc.ops++

	if u.IsLeaf {
		for ui := u.Start; ui < u.End; ui++ {
			pu := t.Pts[ui]
			qu := sys.Charge[ui]
			ru := ctx.Radii[ui]
			var s float64
			for vi := vlo; vi < vhi; vi++ {
				r2 := pu.Dist2(t.Pts[vi])
				rr := ru * ctx.Radii[vi]
				f2 := r2 + rr*k.Exp(-r2/(4*rr))
				s += sys.Charge[vi] * k.RSqrt(f2)
			}
			acc.energy += qu * s
		}
		acc.ops += float64(u.Count() * int(vhi-vlo))
		return
	}

	_, d2, far := farSeparated(v.Center, u.Center, v.Radius, u.Radius, ctx.farFactor)
	if far {
		// Histogram of the owned V sub-range, built on the fly.
		hv := make([]float64, ctx.MEps)
		for vi := vlo; vi < vhi; vi++ {
			hv[ctx.binOf(ctx.Radii[vi])] += sys.Charge[vi]
		}
		hu := ctx.hist[uNode]
		var s float64
		for i, qi := range hu {
			if qi == 0 {
				continue
			}
			for j, qj := range hv {
				if qj == 0 {
					continue
				}
				rr := ctx.rr[i+j]
				f2 := d2 + rr*k.Exp(-d2/(4*rr))
				s += qi * qj * k.RSqrt(f2)
				acc.ops++
			}
		}
		acc.energy += s
		return
	}
	for _, child := range u.Children {
		if child != octree.NoChild {
			ctx.epolAtomRange(child, vLeaf, vlo, vhi, acc)
		}
	}
}

// RunDistributedScheme is RunDistributed with an explicit work-division
// scheme (RunDistributed uses NodeNode): the same rank body with the
// atom-range traversals above as its phase kernel. Steps 4–5 are
// unchanged — atom segments are the only sensible split there.
func RunDistributedScheme(sys *System, cfg cluster.Config, scheme Scheme) (*Result, error) {
	switch scheme {
	case NodeNode:
		return RunDistributed(sys, cfg)
	case AtomNode:
		return runCluster(sys, cfg, phaseKernel{born: rowAtomRange, epol: rowRecursive}, false)
	case AtomAtom:
		return runCluster(sys, cfg, phaseKernel{born: rowAtomRange, epol: rowAtomRange}, false)
	}
	return nil, fmt.Errorf("core: unsupported scheme %v", scheme)
}
