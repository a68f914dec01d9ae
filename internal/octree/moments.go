package octree

import (
	"fmt"

	"gbpolar/internal/geom"
	"gbpolar/internal/sched"
)

// This file adds per-node multipole moments to the tree: the total
// weight, the first moment (dipole) and the raw second moment
// (quadrupole) of one or more caller-supplied weight channels, all taken
// about each node's center. The far-field kernels in internal/core use
// them to correct the paper's zeroth-order pseudo-particle approximation
// so the opening criterion can loosen (Params.FarOrder, DESIGN.md §15).
//
// Moments are attached once (AttachMoments) with weights given in the
// ORIGINAL point order — the same order Build's input used — so they
// survive every slot permutation the incremental updates perform. They
// are recomputed bottom-up in one pass whenever node geometry refreshes
// (build finalize, Update, UpdateTracked, rebuildAll) and rotated in
// place under ApplyTransform, so they are always consistent with the
// node centers the kernels read.

// MomentChannel holds one weight channel's per-node moments. All three
// arrays are indexed by node id and sized len(Tree.Nodes); entries for
// orphaned (unreachable) nodes are stale but in-bounds.
type MomentChannel struct {
	// W is the total weight under each node: Σ w.
	W []float64
	// D is the first moment about the node center: Σ w·(p − Center).
	D []geom.Vec3
	// Q is the raw (NOT detraced) second moment about the node center:
	// Σ w·(p − Center) ⊗ (p − Center).
	Q []geom.Sym3

	// w holds the per-point weights in original point order.
	w []float64
}

// MomentSet is one named collection of channels attached to a tree.
type MomentSet struct {
	Name string
	// Vec marks the three channels as the components of one vector
	// density (e.g. area-weighted surface normals): under ApplyTransform
	// the per-point weight vectors rotate, which mixes the channels, in
	// addition to each channel's D/Q rotating as tensors.
	Vec bool
	Ch  []MomentChannel
}

// AttachMoments registers (or replaces) a named moment set. weights holds
// one slice per channel, each in the ORIGINAL point order and of length
// NumPoints. vec requires exactly three channels (the x/y/z components
// of a vector density). The moments are computed immediately and kept
// current by every subsequent update of the tree.
func (t *Tree) AttachMoments(name string, weights [][]float64, vec bool) error {
	if len(weights) == 0 {
		return fmt.Errorf("octree: AttachMoments(%q): no channels", name)
	}
	if vec && len(weights) != 3 {
		return fmt.Errorf("octree: AttachMoments(%q): vector set needs 3 channels, got %d", name, len(weights))
	}
	ms := &MomentSet{Name: name, Vec: vec, Ch: make([]MomentChannel, len(weights))}
	for c, w := range weights {
		if len(w) != t.NumPoints() {
			return fmt.Errorf("octree: AttachMoments(%q): channel %d has %d weights, tree has %d points",
				name, c, len(w), t.NumPoints())
		}
		ms.Ch[c].w = append([]float64(nil), w...)
	}
	for i, old := range t.moments {
		if old.Name == name {
			t.moments[i] = ms
			t.recomputeMomentSet(ms)
			return nil
		}
	}
	t.moments = append(t.moments, ms)
	t.recomputeMomentSet(ms)
	return nil
}

// MomentsOf returns the named moment set, or nil.
func (t *Tree) MomentsOf(name string) *MomentSet {
	for _, ms := range t.moments {
		if ms.Name == name {
			return ms
		}
	}
	return nil
}

// recomputeMoments refreshes every attached moment set. Called after any
// operation that changes node geometry or point placement.
func (t *Tree) recomputeMoments() {
	for _, ms := range t.moments {
		t.recomputeMomentSet(ms)
	}
}

// recomputeMomentSet recomputes one set bottom-up: leaves directly from
// their point ranges, internals by translating children's moments to the
// parent center (M2M). A leaf depends on nothing but its points, so the
// leaves — where the per-point work is — are split across the cores, each
// one computing all channels while its points are in cache. Children
// always carry a larger node id than their parent (Build appends children
// after the parent and every incremental path preserves that — the
// snapshot codec rejects trees violating it), so one descending-id pass
// per channel then visits children before parents, the same trick
// NewEpolContext's histogram aggregation uses; the channels run side by
// side. Orphaned nodes get values from stale geometry; they are never read.
func (t *Tree) recomputeMomentSet(ms *MomentSet) {
	nn := len(t.Nodes)
	for c := range ms.Ch {
		if ch := &ms.Ch[c]; len(ch.W) != nn {
			ch.W = make([]float64, nn)
			ch.D = make([]geom.Vec3, nn)
			ch.Q = make([]geom.Sym3, nn)
		}
	}
	sched.Fan(nn, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nd := &t.Nodes[i]
			if !nd.IsLeaf {
				continue
			}
			for c := range ms.Ch {
				ch := &ms.Ch[c]
				var w float64
				var d geom.Vec3
				var q geom.Sym3
				for s := nd.Start; s < nd.End; s++ {
					wt := ch.w[t.Index[s]]
					dl := t.Pts[s].Sub(nd.Center)
					w += wt
					d = d.Add(dl.Scale(wt))
					q = q.Add(geom.Outer(dl).Scale(wt))
				}
				ch.W[i], ch.D[i], ch.Q[i] = w, d, q
			}
		}
	})
	sched.Fan(len(ms.Ch), 1, func(c, _ int) {
		ch := &ms.Ch[c]
		for i := nn - 1; i >= 0; i-- {
			nd := &t.Nodes[i]
			if nd.IsLeaf {
				continue
			}
			var w float64
			var d geom.Vec3
			var q geom.Sym3
			for _, cc := range nd.Children {
				if cc == NoChild {
					continue
				}
				sh := t.Nodes[cc].Center.Sub(nd.Center)
				cw, cd, cq := ch.W[cc], ch.D[cc], ch.Q[cc]
				w += cw
				d = d.Add(cd).Add(sh.Scale(cw))
				q = q.Add(cq).Add(geom.SymOuter(cd, sh)).Add(geom.Outer(sh).Scale(cw))
			}
			ch.W[i], ch.D[i], ch.Q[i] = w, d, q
		}
	})
}

// rotateMoments applies a rigid transform to every attached set in place:
// each channel's D rotates as a vector and Q as a rank-2 tensor; vector
// sets additionally mix their channels (and rotate the stored per-point
// weight vectors), since the weight components themselves rotate.
func (t *Tree) rotateMoments(tr geom.Transform) {
	r := tr.R
	rot := func(v geom.Vec3) geom.Vec3 {
		return geom.Vec3{
			X: r[0][0]*v.X + r[0][1]*v.Y + r[0][2]*v.Z,
			Y: r[1][0]*v.X + r[1][1]*v.Y + r[1][2]*v.Z,
			Z: r[2][0]*v.X + r[2][1]*v.Y + r[2][2]*v.Z,
		}
	}
	for _, ms := range t.moments {
		// Tensor rotation of every channel's moments.
		for c := range ms.Ch {
			ch := &ms.Ch[c]
			sched.Fan(len(ch.D), fanGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ch.D[i] = rot(ch.D[i])
					ch.Q[i] = ch.Q[i].Rotated(r)
				}
			})
		}
		if !ms.Vec {
			continue
		}
		// Channel mixing: the new component a is Σ_b R[a][b] · channel b,
		// applied to the per-node moments and to the per-point weights.
		chans := [3]*MomentChannel{&ms.Ch[0], &ms.Ch[1], &ms.Ch[2]}
		x, y, z := chans[0], chans[1], chans[2]
		sched.Fan(len(x.W), fanGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w := [3]float64{x.W[i], y.W[i], z.W[i]}
				d := [3]geom.Vec3{x.D[i], y.D[i], z.D[i]}
				q := [3]geom.Sym3{x.Q[i], y.Q[i], z.Q[i]}
				for a, ch := range chans {
					ch.W[i] = r[a][0]*w[0] + r[a][1]*w[1] + r[a][2]*w[2]
					ch.D[i] = d[0].Scale(r[a][0]).Add(d[1].Scale(r[a][1])).Add(d[2].Scale(r[a][2]))
					ch.Q[i] = q[0].Scale(r[a][0]).Add(q[1].Scale(r[a][1])).Add(q[2].Scale(r[a][2]))
				}
			}
		})
		sched.Fan(len(x.w), fanGrain, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				w := [3]float64{x.w[p], y.w[p], z.w[p]}
				for a, ch := range chans {
					ch.w[p] = r[a][0]*w[0] + r[a][1]*w[1] + r[a][2]*w[2]
				}
			}
		})
	}
}

// remapMoments rewrites per-node moment arrays after CompactNodes: order
// lists the surviving old node ids in their new order.
func (t *Tree) remapMoments(order []int32) {
	for _, ms := range t.moments {
		for c := range ms.Ch {
			ch := &ms.Ch[c]
			w := make([]float64, len(order))
			d := make([]geom.Vec3, len(order))
			q := make([]geom.Sym3, len(order))
			for newID, oldID := range order {
				w[newID], d[newID], q[newID] = ch.W[oldID], ch.D[oldID], ch.Q[oldID]
			}
			ch.W, ch.D, ch.Q = w, d, q
		}
	}
}
