package octree

import (
	"encoding/binary"
	"fmt"
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/wire"
)

// This file serializes a Tree for the checkpoint/snapshot format
// (internal/core snapshot codec). The encoding captures everything Build
// produced but the points — the slot permutation, the leaf capacity, the
// root box, the builder kind, for Morton trees the per-slot keys, and the
// nodes — so a decoded tree is node-for-node identical to the original and
// immediately usable by the kernels and the incremental update machinery,
// with no rebuild. The points are the caller's, in input order, and the
// decoder gathers them through the decoded permutation: slot s holds input
// point Index[s]. The scheduling pool is runtime state and is not
// serialized.

// The nodes travel as one block of columns, each value once: the centers'
// X, Y and Z, the radii (float64 each), the eight children (int32 each,
// node after node), Start and End (int32), Depth (int16) and IsLeaf (one
// byte, 0 or 1), all little-endian. nodeBytes is one node's share of it.
const nodeBytes = 4*8 + 8*4 + 2*4 + 2 + 1

// nodeWidths are the node block's columns' widths, in block order.
var nodeWidths = [...]int{8, 8, 8, 8, 32, 4, 4, 2, 1}

// nodeColumns cuts a block of n nodes into its columns.
func nodeColumns(b []byte, n int) (x, y, z, r, children, start, end, depth, leaf []byte) {
	var c [len(nodeWidths)][]byte
	for i, width := range nodeWidths {
		c[i], b = b[:n*width], b[n*width:]
	}
	return c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8]
}

// AppendTo encodes the tree onto w: the slot permutation, the leaf
// capacity, the root box, the builder, the Morton keys, then the node count
// and the node block. The block goes out column by column, each column in
// pieces a stream Writer's buffer holds (wire.ReserveMax), so saving a tree
// to a stream allocates nothing.
func (t *Tree) AppendTo(w *wire.Writer) {
	w.I32s(t.Index)
	w.U32(uint32(t.leafCap))
	for _, v := range []float64{t.rootBox.Min.X, t.rootBox.Min.Y, t.rootBox.Min.Z,
		t.rootBox.Max.X, t.rootBox.Max.Y, t.rootBox.Max.Z} {
		w.F64(v)
	}
	w.U8(uint8(t.builder))
	w.U64s(t.keys)
	w.U32(uint32(len(t.Nodes)))
	for col, width := range nodeWidths {
		for lo := 0; lo < len(t.Nodes); {
			hi := min(len(t.Nodes), lo+wire.ReserveMax/width)
			putColumn(w.Reserve((hi-lo)*width), t.Nodes[lo:hi], col)
			lo = hi
		}
	}
}

// putColumn writes column col (nodeWidths' index) of nodes into b.
func putColumn(b []byte, nodes []Node, col int) {
	le := binary.LittleEndian
	switch col {
	case 0:
		for i := range nodes {
			le.PutUint64(b[8*i:], math.Float64bits(nodes[i].Center.X))
		}
	case 1:
		for i := range nodes {
			le.PutUint64(b[8*i:], math.Float64bits(nodes[i].Center.Y))
		}
	case 2:
		for i := range nodes {
			le.PutUint64(b[8*i:], math.Float64bits(nodes[i].Center.Z))
		}
	case 3:
		for i := range nodes {
			le.PutUint64(b[8*i:], math.Float64bits(nodes[i].Radius))
		}
	case 4:
		for i := range nodes {
			kids := b[32*i:][:32]
			for j, c := range nodes[i].Children {
				le.PutUint32(kids[4*j:], uint32(c))
			}
		}
	case 5:
		for i := range nodes {
			le.PutUint32(b[4*i:], uint32(nodes[i].Start))
		}
	case 6:
		for i := range nodes {
			le.PutUint32(b[4*i:], uint32(nodes[i].End))
		}
	case 7:
		for i := range nodes {
			le.PutUint16(b[2*i:], uint16(nodes[i].Depth))
		}
	case 8:
		for i := range nodes {
			b[i] = 0
			if nodes[i].IsLeaf {
				b[i] = 1
			}
		}
	}
}

// SkipTree steps over a tree encoded by AppendTo, reading only its lengths —
// the permutation's, the keys' and the node count — each checked against
// the bytes remaining: one that runs past the end leaves r failed with
// wire.ErrTruncated. Nothing is allocated and nothing validated.
func SkipTree(r *wire.Reader) {
	r.SkipArray(4)         // the permutation
	r.Next(4 + 6*8 + 1)    // the leaf capacity, the root box, the builder
	r.SkipArray(8)         // the Morton keys
	r.SkipArray(nodeBytes) // the node count and the node block
}

// DecodeTree reads a tree encoded by AppendTo over the caller's n points,
// point i at pos(i), and re-validates every structural invariant, so a
// corrupted input yields an error rather than a tree that panics inside a
// kernel sweep. The permutation is checked as the points are gathered
// through it, and a node's children and range as it is filled from the
// columns; then every reachable node's range, ball and children
// (validateNodes). The leaf list is recomputed instead of trusted, the way
// the live tree derives it: the leaves reachable from the root in slot
// order. For a built tree that is ascending node order; after tracked
// updates it is not — materialized leaves sit at the end of Nodes and
// pruned ones stay in it, unreachable — and the compiled lists' rows follow
// the live order.
func DecodeTree(r *wire.Reader, n int, pos func(i int) geom.Vec3) (*Tree, error) {
	t := &Tree{Index: r.I32s()}
	t.leafCap = int(r.U32())
	t.rootBox.Min = geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
	t.rootBox.Max = geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
	b := Builder(r.U8())
	t.keys = r.U64s()
	nNodes := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("octree: decode: %w", err)
	}
	if b != BuilderRecursive && b != BuilderMorton {
		return nil, fmt.Errorf("octree: decode: unknown builder %d", int(b))
	}
	t.builder = b
	if n <= 0 || len(t.Index) != n {
		return nil, fmt.Errorf("octree: decode: %d index entries for %d points", len(t.Index), n)
	}
	if t.leafCap <= 0 {
		return nil, fmt.Errorf("octree: decode: leaf capacity %d", t.leafCap)
	}
	if t.keys != nil && len(t.keys) != n {
		return nil, fmt.Errorf("octree: decode: %d keys for %d points", len(t.keys), n)
	}
	if nNodes <= 0 || nNodes > r.Remaining()/nodeBytes {
		return nil, fmt.Errorf("octree: decode: bad node count %d", nNodes)
	}
	seen := make([]bool, n)
	t.Pts = make([]geom.Vec3, n)
	for slot, orig := range t.Index {
		if orig < 0 || int(orig) >= n || seen[orig] {
			return nil, fmt.Errorf("octree: decode: index is not a permutation (slot %d holds %d)", slot, orig)
		}
		seen[orig] = true
		t.Pts[slot] = pos(int(orig))
	}
	t.Nodes = make([]Node, nNodes)
	x, y, z, rad, children, start, end, depth, leaf := nodeColumns(r.Next(nNodes*nodeBytes), nNodes)
	le := binary.LittleEndian
	// Children must point strictly forward (Build appends children after
	// their parent), and no node, reachable or not, may have two parents:
	// this bounds every child index and makes the node graph a tree.
	hasParent := make([]bool, nNodes)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		nd.Center = geom.Vec3{X: math.Float64frombits(le.Uint64(x[8*i:])),
			Y: math.Float64frombits(le.Uint64(y[8*i:])), Z: math.Float64frombits(le.Uint64(z[8*i:]))}
		nd.Radius = math.Float64frombits(le.Uint64(rad[8*i:]))
		kids := children[32*i:][:32]
		for j := range nd.Children {
			c := int32(le.Uint32(kids[4*j:]))
			nd.Children[j] = c
			if c == NoChild {
				continue
			}
			if c <= int32(i) || int(c) >= nNodes || hasParent[c] {
				return nil, fmt.Errorf("octree: decode: node %d has invalid child %d", i, c)
			}
			hasParent[c] = true
		}
		nd.Start, nd.End = int32(le.Uint32(start[4*i:])), int32(le.Uint32(end[4*i:]))
		if nd.Start < 0 || nd.End > int32(n) {
			return nil, fmt.Errorf("octree: decode: node %d range [%d,%d) out of bounds", i, nd.Start, nd.End)
		}
		nd.Depth = int16(le.Uint16(depth[2*i:]))
		nd.IsLeaf = leaf[i] != 0
	}
	leaves, err := t.validateNodes()
	if err != nil {
		return nil, err
	}
	t.setLeaves(leaves)
	return t, nil
}
