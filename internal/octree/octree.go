// Package octree implements the adaptive, linearized octree the paper
// builds over atoms and surface quadrature points (Section II,
// "Octrees vs. Nblists").
//
// The tree is stored as a flat node array, and the point set is
// re-ordered so that every subtree owns one contiguous range — the
// cache-friendly layout the paper credits for part of its speedup. Space
// is linear in the number of points and independent of any approximation
// parameter, unlike the nonbonded lists used by the baseline MD packages
// (internal/nblist).
package octree

import (
	"fmt"
	"math"
	"unsafe"

	"gbpolar/internal/geom"
	"gbpolar/internal/sched"
)

// NoChild marks an absent child slot.
const NoChild int32 = -1

// Node is one octree node. Points under a node occupy the contiguous
// range Index[Start:End] (and the parallel Pts slice, if kept).
type Node struct {
	// Center is the geometric center (centroid) of the points under the
	// node — where the paper places the pseudo-atom / pseudo-q-point of
	// the far-field approximation.
	Center geom.Vec3
	// Radius is the radius of the smallest ball centered at Center that
	// encloses every point under the node (r_A / r_Q in the paper).
	Radius float64
	// Children holds node indices of the (up to 8) non-empty octants;
	// absent slots are NoChild.
	Children [8]int32
	// Start and End delimit the node's range in Tree.Index / Tree.Pts.
	Start, End int32
	// Depth is the node's depth (root = 0).
	Depth int16
	// IsLeaf reports whether the node has no children.
	IsLeaf bool
}

// Count returns the number of points under the node.
func (n *Node) Count() int { return int(n.End - n.Start) }

// Tree is a linearized octree over a fixed point set.
type Tree struct {
	// Nodes is the flat node array; Nodes[0] is the root.
	Nodes []Node
	// Index maps tree order to the caller's original point order:
	// tree slot i holds original point Index[i].
	Index []int32
	// Pts holds the point positions in tree order (Pts[i] is the
	// position of original point Index[i]). Kernels iterate leaf ranges
	// of Pts directly for locality. nil once DropPoints has run.
	Pts []geom.Vec3

	leaves  []int32
	leafCap int
	rootBox geom.AABB

	// keys holds the Morton key of each slot of a Morton-built tree that
	// keeps its points; UpdateTracked keeps it current. builder/pool let
	// incremental rebuilds reconstruct with the same algorithm and
	// parallelism as Build.
	keys    []uint64
	builder Builder
	pool    *sched.Pool
}

// Options configures construction.
type Options struct {
	// LeafCap is the maximum number of points in a leaf (default 8).
	LeafCap int
	// MaxDepth bounds the recursion for degenerate (coincident) inputs
	// (default 32). BuilderMorton caps it at geom.MortonBits, the key
	// lattice resolution.
	MaxDepth int
	// Builder selects the construction algorithm (default
	// BuilderRecursive, the reference implementation).
	Builder Builder
	// Pool, when non-nil, parallelizes BuilderMorton's key computation,
	// radix sort and permutation. A nil Pool runs serially. The
	// recursive builder ignores it.
	Pool *sched.Pool
}

func (o Options) withDefaults() Options {
	if o.LeafCap <= 0 {
		o.LeafCap = 8
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 32
	}
	return o
}

// Build constructs the octree over the given points. The input slice is
// not modified. Build is deterministic.
func Build(pts []geom.Vec3, opts Options) (*Tree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("octree: empty point set")
	}
	opts = opts.withDefaults()
	t := &Tree{
		Index:   make([]int32, len(pts)),
		Pts:     make([]geom.Vec3, len(pts)),
		leafCap: opts.LeafCap,
	}
	for i := range t.Index {
		t.Index[i] = int32(i)
		if !pts[i].IsFinite() {
			return nil, fmt.Errorf("octree: point %d is not finite: %v", i, pts[i])
		}
	}
	// Nodes ≈ 2·len/leafCap is a reasonable first guess; append grows it,
	// and the tree keeps an array of exactly its nodes (below).
	t.Nodes = make([]Node, 0, 2+2*len(pts)/opts.LeafCap)
	// The root cube is inflated a little beyond the points so that
	// incremental updates (tracked.go) have headroom: without the
	// margin, any outward motion of a hull point would force a full
	// rebuild.
	root := inflate(geom.Bound(pts).Cube(), 1.25)
	t.rootBox = root
	t.builder = opts.Builder
	t.pool = opts.Pool
	if opts.Builder == BuilderMorton {
		t.buildMorton(pts, root, opts)
	} else {
		copy(t.Pts, pts)
		t.build(root, 0, int32(len(pts)), 0, opts)
	}
	t.finalize()
	if cap(t.Nodes) > len(t.Nodes) {
		t.Nodes = append(make([]Node, 0, len(t.Nodes)), t.Nodes...)
	}
	return t, nil
}

// build recursively partitions the range [start,end) of t.Index/t.Pts
// that lies inside box, appending the created node (and its subtree) to
// t.Nodes and returning its index.
func (t *Tree) build(box geom.AABB, start, end int32, depth int, opts Options) int32 {
	id := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{Start: start, End: end, Depth: int16(depth)})
	for i := range t.Nodes[id].Children {
		t.Nodes[id].Children[i] = NoChild
	}
	if int(end-start) <= opts.LeafCap || depth >= opts.MaxDepth {
		t.Nodes[id].IsLeaf = true
		return id
	}
	// Partition the range into the eight octants with a counting sort
	// (stable enough for our purposes; determinism only needs a fixed
	// rule, not stability).
	var counts [8]int32
	for i := start; i < end; i++ {
		counts[box.OctantIndex(t.Pts[i])]++
	}
	var offsets, next [8]int32
	off := start
	for o := 0; o < 8; o++ {
		offsets[o] = off
		next[o] = off
		off += counts[o]
	}
	// In-place cycle sort into octant buckets.
	for o := 0; o < 8; o++ {
		for next[o] < offsets[o]+counts[o] {
			i := next[o]
			oct := box.OctantIndex(t.Pts[i])
			if oct == o {
				next[o]++
				continue
			}
			j := next[oct]
			next[oct]++
			t.Pts[i], t.Pts[j] = t.Pts[j], t.Pts[i]
			t.Index[i], t.Index[j] = t.Index[j], t.Index[i]
		}
	}
	// All points in one octant and depth budget left: still recurse —
	// the octant box is smaller, so coincident-ish clusters terminate
	// via MaxDepth.
	for o := 0; o < 8; o++ {
		if counts[o] == 0 {
			continue
		}
		child := t.build(box.Octant(o), offsets[o], offsets[o]+counts[o], depth+1, opts)
		t.Nodes[id].Children[o] = child
	}
	return id
}

// finalize computes centers, radii and the leaf list. Children appear
// after their parent in t.Nodes, so one reverse pass aggregates bottom-up
// — except centers need point sums; we do a direct pass per node over its
// range for radii (O(n log n) total work since each point is scanned once
// per level).
func (t *Tree) finalize() {
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := &t.Nodes[i]
		var c geom.Vec3
		for j := n.Start; j < n.End; j++ {
			c = c.Add(t.Pts[j])
		}
		n.Center = c.Scale(1 / float64(n.Count()))
		r2 := 0.0
		for j := n.Start; j < n.End; j++ {
			if d2 := n.Center.Dist2(t.Pts[j]); d2 > r2 {
				r2 = d2
			}
		}
		n.Radius = math.Sqrt(r2)
		if n.IsLeaf {
			t.leaves = append(t.leaves, int32(i))
		}
	}
	// leaves were collected in reverse; restore ascending node order so
	// leaf segments follow the tree-order (spatial) layout.
	for l, r := 0, len(t.leaves)-1; l < r; l, r = l+1, r-1 {
		t.leaves[l], t.leaves[r] = t.leaves[r], t.leaves[l]
	}
}

// inflate scales a box about its center.
func inflate(b geom.AABB, f float64) geom.AABB {
	c := b.Center()
	h := b.Size().Scale(f / 2)
	return geom.AABB{Min: c.Sub(h), Max: c.Add(h)}
}

// Root returns the root node index (always 0).
func (t *Tree) Root() int32 { return 0 }

// NumPoints returns the number of points in the tree.
func (t *Tree) NumPoints() int { return len(t.Index) }

// DropPoints makes the tree an index over points its caller keeps in slot
// order: nodes, permutation and leaf list, no points and no Morton keys
// (ApplyTransform moves the nodes alone; an update rebuilds).
func (t *Tree) DropPoints() { t.Pts, t.keys = nil, nil }

// NumNodes returns the number of nodes.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// Leaves returns the leaf node indices in tree (spatial) order. The
// returned slice is shared; callers must not modify it.
func (t *Tree) Leaves() []int32 { return t.leaves }

// LeafCap returns the leaf capacity the tree was built with.
func (t *Tree) LeafCap() int { return t.leafCap }

// Depth returns the maximum node depth.
func (t *Tree) Depth() int {
	d := 0
	for i := range t.Nodes {
		if int(t.Nodes[i].Depth) > d {
			d = int(t.Nodes[i].Depth)
		}
	}
	return d
}

// MemoryBytes is the heap the tree holds, each array at its capacity:
// nodes, permutation, leaf list, points and Morton keys.
func (t *Tree) MemoryBytes() int64 {
	return int64(cap(t.Nodes))*int64(unsafe.Sizeof(Node{})) + int64(cap(t.Index)+cap(t.leaves))*4 +
		int64(cap(t.Pts))*24 + int64(cap(t.keys))*8
}

// fanGrain is the chunk of the element-wise loops ApplyTransform splits
// across the cores with sched.Fan.
const fanGrain = 4096

// ApplyTransform rigidly re-poses the whole tree: every stored point and
// every node center moves; radii are invariant under rigid motion, so no
// rebuild is needed. This is the paper's "move the same octree to
// different positions or rotate it ... by multiplying with proper
// transformation matrices" (Section IV.C, Step 1).
//
// The cells themselves are not carried: the root cube and the Morton keys
// belong to the frame the tree was built in, and a rotated cube is no
// longer axis-aligned. The cube is therefore emptied — it contains no
// point, so the next UpdateTracked takes its rebuild path and
// re-derives cells and keys in the new frame instead of routing the moved
// points through the old one.
func (t *Tree) ApplyTransform(tr geom.Transform) {
	sched.Fan(len(t.Pts), fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.Pts[i] = tr.Apply(t.Pts[i])
		}
	})
	sched.Fan(len(t.Nodes), fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.Nodes[i].Center = tr.Apply(t.Nodes[i].Center)
		}
	})
	t.rootBox = geom.Empty()
}

// Validate checks the structural invariants: the index is a permutation,
// children exactly partition their parent's range, each node's ball
// contains its points, and leaves respect the capacity (unless the depth
// cap forced a larger leaf). It is used by tests and available to callers
// that construct trees from untrusted inputs, against the tree's own
// points: a tree without them (DropPoints) fails.
func (t *Tree) Validate() error {
	seen := make([]bool, len(t.Index))
	for _, idx := range t.Index {
		if idx < 0 || int(idx) >= len(seen) || seen[idx] {
			return fmt.Errorf("octree: index is not a permutation (at %d)", idx)
		}
		seen[idx] = true
	}
	_, err := t.validateNodes(t.Pts)
	return err
}

// validateNodes is Validate's check of the nodes against pts, the points in
// slot order, and returns the reachable leaves in id order. Only nodes
// reachable from the root are checked: incremental updates (see
// dynamic.go) can orphan old entries until CompactNodes runs. A node's
// children follow it in Nodes (Build appends them after it, an update
// appends a split leaf's after it too), so one pass in id order reaches
// them all, and a child that does not follow its parent, or has a second
// parent, is invalid.
func (t *Tree) validateNodes(pts []geom.Vec3) (leaves []int32, err error) {
	reach := make([]bool, len(t.Nodes))
	reach[0] = true
	const slack = 1 + 1e-9
	for i := range t.Nodes {
		if !reach[i] {
			continue
		}
		n := &t.Nodes[i]
		if n.Start < 0 || n.Start > n.End || n.End > int32(len(pts)) {
			return nil, fmt.Errorf("octree: node %d has bad range [%d,%d)", i, n.Start, n.End)
		}
		if n.Count() == 0 {
			return nil, fmt.Errorf("octree: node %d is empty", i)
		}
		// A point is outside when its distance exceeds the bound: compared
		// squared, so no point costs a square root.
		bound := n.Radius*slack + 1e-12
		for j, p := range pts[n.Start:n.End] {
			if d2 := n.Center.Dist2(p); bound < 0 || d2 > bound*bound {
				return nil, fmt.Errorf("octree: node %d point %d outside ball (%g > %g)", i, int(n.Start)+j, math.Sqrt(d2), n.Radius)
			}
		}
		if n.IsLeaf {
			leaves = append(leaves, int32(i))
			continue
		}
		// Children must exactly tile [Start, End) in order.
		at := n.Start
		for _, c := range n.Children {
			if c == NoChild {
				continue
			}
			if c <= int32(i) || int(c) >= len(t.Nodes) || reach[c] {
				return nil, fmt.Errorf("octree: node %d has invalid child %d", i, c)
			}
			reach[c] = true
			child := &t.Nodes[c]
			if child.Start != at {
				return nil, fmt.Errorf("octree: node %d children do not tile range (gap at %d)", i, at)
			}
			at = child.End
		}
		if at != n.End {
			return nil, fmt.Errorf("octree: node %d children end at %d, want %d", i, at, n.End)
		}
	}
	return leaves, nil
}
