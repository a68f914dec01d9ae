package core

import (
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file implements the TWO-octree Born-radius traversal of the
// paper's predecessor work (Chowdhury & Bajaj, SPM 2010 — reference [6]):
// T_A and T_Q are descended simultaneously, so the far-field shortcut can
// fire with a pseudo-q-point standing for an arbitrarily large T_Q
// subtree, not just a leaf. The paper's Section IV states "the major
// difference of our approach from [6] is that we only traverse one octree
// instead of two"; keeping both lets the ablation benchmarks quantify
// that design choice (single-tree: simpler node-based work division and
// P-independent error; dual-tree: fewer kernel evaluations).

// DualTreeIntegrals accumulates Born-radius integrals for all atoms under
// aNode against all q-points under qNode, recursing on whichever side has
// the larger radius when the pair is too close to approximate.
func DualTreeIntegrals(sys *System, acc *bornAccum, aNode, qNode int32, mac float64) {
	a := &sys.Atoms.Nodes[aNode]
	q := &sys.QPts.Nodes[qNode]
	d, d2, far := farSeparated(a.Center, q.Center, a.Radius, q.Radius, mac)
	acc.ops++

	kern := sys.Params.Kernel
	if far {
		acc.node[aNode] += sys.QNodeWN[qNode].Dot(d) / bornDenom(d2, kern)
		return
	}
	if a.IsLeaf && q.IsLeaf {
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
	// Split the side with the larger radius (leaves cannot split).
	splitA := !a.IsLeaf && (q.IsLeaf || a.Radius >= q.Radius)
	if splitA {
		for _, child := range a.Children {
			if child != octree.NoChild {
				DualTreeIntegrals(sys, acc, child, qNode, mac)
			}
		}
		return
	}
	for _, child := range q.Children {
		if child != octree.NoChild {
			DualTreeIntegrals(sys, acc, aNode, child, mac)
		}
	}
}

// treePair is one (A-node, Q-node) work unit of the parallel dual-tree
// traversal.
type treePair struct{ a, q int32 }

// expandPairs splits (root, root) breadth-first until at least minPairs
// independent near pairs exist (far pairs are emitted as-is; they are
// cheap). The result partitions the traversal exactly.
func expandPairs(sys *System, mac float64, minPairs int) []treePair {
	frontier := []treePair{{sys.Atoms.Root(), sys.QPts.Root()}}
	for len(frontier) < minPairs {
		var next []treePair
		split := false
		for _, pr := range frontier {
			a := &sys.Atoms.Nodes[pr.a]
			q := &sys.QPts.Nodes[pr.q]
			_, _, far := farSeparated(a.Center, q.Center, a.Radius, q.Radius, mac)
			if far || (a.IsLeaf && q.IsLeaf) {
				next = append(next, pr) // terminal: keep as one unit
				continue
			}
			split = true
			if !a.IsLeaf && (q.IsLeaf || a.Radius >= q.Radius) {
				for _, child := range a.Children {
					if child != octree.NoChild {
						next = append(next, treePair{child, pr.q})
					}
				}
			} else {
				for _, child := range q.Children {
					if child != octree.NoChild {
						next = append(next, treePair{pr.a, child})
					}
				}
			}
		}
		frontier = next
		if !split {
			break
		}
	}
	return frontier
}

// DualTreeBornRadii computes Born radii with the dual-tree traversal on
// a work-stealing pool, returning radii in tree-slot order plus the op
// count (for the ablation comparison with the single-tree phase).
func DualTreeBornRadii(sys *System, pool *sched.Pool) (radii []float64, ops float64) {
	p := pool.NumWorkers()
	mac := sys.bornMAC()
	accs := make([]*bornAccum, p)
	for i := range accs {
		accs[i] = newBornAccum(sys)
	}
	pairs := expandPairs(sys, mac, 8*p)
	sched.ParallelFor(pool, len(pairs), 1, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			DualTreeIntegrals(sys, accs[w], pairs[i].a, pairs[i].q, mac)
		}
	})
	merged := accs[0]
	for _, a := range accs[1:] {
		merged.add(a)
	}
	radii = make([]float64, sys.Mol.NumAtoms())
	ops = merged.ops + PushIntegralsToAtoms(sys, merged, 0, len(radii), radii)
	return radii, ops
}
