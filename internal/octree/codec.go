package octree

import (
	"fmt"

	"gbpolar/internal/geom"
	"gbpolar/internal/wire"
)

// This file serializes a Tree for the checkpoint/snapshot format
// (internal/core snapshot codec). The encoding captures everything Build
// produced — nodes, the slot permutation, the reordered points, the root
// box, the leaf capacity, the builder kind and (for Morton trees) the
// per-slot keys — so a decoded tree is node-for-node identical to the
// original and immediately usable by the kernels and the incremental
// update machinery, with no rebuild. The scheduling pool is runtime
// state and is not serialized.

// AppendTo encodes the tree onto w.
func (t *Tree) AppendTo(w *wire.Writer) {
	w.U32(uint32(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		w.F64(n.Center.X)
		w.F64(n.Center.Y)
		w.F64(n.Center.Z)
		w.F64(n.Radius)
		for _, c := range n.Children {
			w.I32(c)
		}
		w.I32(n.Start)
		w.I32(n.End)
		w.I32(int32(n.Depth))
		w.Bool(n.IsLeaf)
	}
	w.I32s(t.Index)
	w.U32(uint32(len(t.Pts)))
	wire.PutF64Run(w, t.Pts)
	w.U32(uint32(t.leafCap))
	for _, v := range []float64{t.rootBox.Min.X, t.rootBox.Min.Y, t.rootBox.Min.Z,
		t.rootBox.Max.X, t.rootBox.Max.Y, t.rootBox.Max.Z} {
		w.F64(v)
	}
	w.U8(uint8(t.builder))
	w.U64s(t.keys)
}

// encodedNodeBytes is the fixed per-node size of the encoding above,
// used to validate the node count against the remaining input before
// allocating.
const encodedNodeBytes = 3*8 + 8 + 8*4 + 4 + 4 + 4 + 1

// DecodeTree reads a tree encoded by AppendTo and re-validates every
// structural invariant, so a corrupted input yields an error rather than
// a tree that panics inside a kernel sweep. The leaf list is recomputed
// instead of trusted, the way the live tree derives it: the leaves
// reachable from the root in slot order. For a built tree that is
// ascending node order; after tracked updates it is not — materialized
// leaves sit at the end of Nodes and pruned ones stay in it, unreachable —
// and the compiled lists' rows follow the live order.
func DecodeTree(r *wire.Reader) (*Tree, error) {
	nNodes := int(r.U32())
	if r.Err() != nil || nNodes <= 0 || nNodes > r.Remaining()/encodedNodeBytes {
		return nil, fmt.Errorf("octree: decode: bad node count %d", nNodes)
	}
	t := &Tree{Nodes: make([]Node, nNodes)}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.Center = geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
		n.Radius = r.F64()
		for j := range n.Children {
			n.Children[j] = r.I32()
		}
		n.Start = r.I32()
		n.End = r.I32()
		n.Depth = int16(r.I32())
		n.IsLeaf = r.Bool()
	}
	t.Index = r.I32s()
	nPts := int(r.U32())
	if r.Err() != nil || nPts <= 0 || nPts > r.Remaining()/24 {
		return nil, fmt.Errorf("octree: decode: bad point count %d", nPts)
	}
	t.Pts = wire.F64Run[geom.Vec3](r, nPts)
	t.leafCap = int(r.U32())
	t.rootBox.Min = geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
	t.rootBox.Max = geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
	b := Builder(r.U8())
	t.keys = r.U64s()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("octree: decode: %w", err)
	}
	if b != BuilderRecursive && b != BuilderMorton {
		return nil, fmt.Errorf("octree: decode: unknown builder %d", int(b))
	}
	t.builder = b
	if len(t.Index) != nPts {
		return nil, fmt.Errorf("octree: decode: %d index entries for %d points", len(t.Index), nPts)
	}
	if t.leafCap <= 0 {
		return nil, fmt.Errorf("octree: decode: leaf capacity %d", t.leafCap)
	}
	if t.keys != nil && len(t.keys) != nPts {
		return nil, fmt.Errorf("octree: decode: %d keys for %d points", len(t.keys), nPts)
	}
	// Children must point strictly forward (Build appends children after
	// their parent), and no node may have two parents: this bounds every
	// child index AND makes the node graph a tree before Validate walks it
	// (a node shared by several parents would be walked once per path,
	// exponentially many times).
	hasParent := make([]bool, nNodes)
	for i := range t.Nodes {
		for _, c := range t.Nodes[i].Children {
			if c == NoChild {
				continue
			}
			if c <= int32(i) || int(c) >= nNodes || hasParent[c] {
				return nil, fmt.Errorf("octree: decode: node %d has invalid child %d", i, c)
			}
			hasParent[c] = true
		}
		if t.Nodes[i].Start < 0 || t.Nodes[i].End > int32(nPts) {
			return nil, fmt.Errorf("octree: decode: node %d range [%d,%d) out of bounds",
				i, t.Nodes[i].Start, t.Nodes[i].End)
		}
	}
	t.rebuildLeafList()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
