package octree

import (
	"fmt"

	"gbpolar/internal/geom"
)

// This file is the untracked update, kept as the oracle the tracked one
// (tracked.go) is checked against. It needs no Morton keys, keeps the
// existing cell structure and RELOCATES points:
//
//  1. every point is routed down the existing tree to its target leaf
//     (creating a leaf when it moves into an empty octant);
//  2. points are permuted into the new leaf order in one linear pass and
//     all node ranges are recomputed;
//  3. leaves that now exceed the capacity split in place; emptied cells
//     are pruned;
//  4. centers and radii are refreshed.
//
// If any point leaves the (slightly inflated) root cube, Update degrades
// to a full rebuild — it never fails.

// Update moves the tree's points to newPts (given in the ORIGINAL point
// order, like Build's input) and repairs the structure, returning the
// number of points that changed leaf.
func (t *Tree) Update(newPts []geom.Vec3) (moved int, err error) {
	if len(newPts) != len(t.Pts) {
		return 0, fmt.Errorf("octree: Update with %d points, tree has %d", len(newPts), len(t.Pts))
	}
	if err := CheckFinite(newPts); err != nil {
		return 0, err
	}
	// The untracked path does not maintain Morton keys; drop them so a
	// later tracked update recomputes rather than trusting stale keys.
	t.keys = nil
	for slot, orig := range t.Index {
		t.Pts[slot] = newPts[orig]
	}
	for _, p := range t.Pts {
		if !t.rootBox.Contains(p) {
			return t.NumPoints(), t.rebuild(newPts)
		}
	}

	// --- 1. route every point to its target leaf ---------------------
	// oldLeaf[slot] from the current ranges, target[slot] by descending
	// the structure (materializing leaves for newly-occupied octants).
	// All bookkeeping is slice-indexed by node id — no maps in the hot
	// path.
	n := len(t.Pts)
	oldLeaf := make([]int32, n)
	for _, li := range t.leaves {
		nd := &t.Nodes[li]
		for s := nd.Start; s < nd.End; s++ {
			oldLeaf[s] = li
		}
	}
	boxes := make([]geom.AABB, len(t.Nodes), len(t.Nodes)+len(t.leaves))
	boxes[0] = t.rootBox
	target := make([]int32, n)
	for s := 0; s < n; s++ {
		leaf, bs := t.route(t.Pts[s], boxes)
		boxes = bs
		target[s] = leaf
		if leaf != oldLeaf[s] {
			moved++
		}
	}
	if moved == 0 {
		// Fast path: only geometry changed.
		t.refreshGeometryAll()
		return 0, nil
	}

	// --- 2. permute points into the new leaf order --------------------
	counts := make([]int32, len(t.Nodes))
	for _, li := range target {
		counts[li]++
	}
	t.pruneEmpty(0, counts, make([]bool, len(t.Nodes)))

	// Structural leaf order (children visited in octant order) defines
	// the new slot layout.
	newLeaves := newLeaves(t)
	starts := make([]int32, len(t.Nodes))
	at := int32(0)
	for _, li := range newLeaves {
		starts[li] = at
		at += counts[li]
	}
	if at != int32(n) {
		return moved, fmt.Errorf("octree: internal error: relocation lost points (%d != %d)", at, n)
	}
	fill := make([]int32, len(t.Nodes))
	newPtsArr := make([]geom.Vec3, n)
	newIdx := make([]int32, n)
	for s := 0; s < n; s++ {
		li := target[s]
		pos := starts[li] + fill[li]
		fill[li]++
		newPtsArr[pos] = t.Pts[s]
		newIdx[pos] = t.Index[s]
	}
	t.Pts = newPtsArr
	t.Index = newIdx
	for _, li := range newLeaves {
		nd := &t.Nodes[li]
		nd.Start = starts[li]
		nd.End = starts[li] + counts[li]
	}
	t.recomputeInternalRanges(0)

	// --- 3. split overfull leaves -------------------------------------
	opts := Options{LeafCap: t.leafCap, MaxDepth: 32}
	for _, li := range newLeaves {
		nd := t.Nodes[li]
		if nd.Count() > t.leafCap && int(nd.Depth) < opts.MaxDepth {
			t.buildRange(boxes[li], nd.Start, nd.End, int(nd.Depth), opts, li)
		}
	}

	// --- 4. refresh ----------------------------------------------------
	t.refreshGeometryAll()
	t.rebuildLeafList()
	return moved, nil
}

// route descends the existing structure to the leaf cell containing p,
// creating a leaf when p enters an octant with no child. boxes records
// visited node boxes (slice indexed by node id, grown for created
// leaves) and is returned because appends may reallocate it.
func (t *Tree) route(p geom.Vec3, boxes []geom.AABB) (int32, []geom.AABB) {
	node := int32(0)
	box := t.rootBox
	for {
		nd := &t.Nodes[node]
		if nd.IsLeaf {
			boxes[node] = box
			return node, boxes
		}
		o := box.OctantIndex(p)
		child := nd.Children[o]
		if child == NoChild {
			// Materialize an empty leaf for the newly occupied octant.
			child = int32(len(t.Nodes))
			t.Nodes = append(t.Nodes, Node{Depth: nd.Depth + 1, IsLeaf: true})
			for i := range t.Nodes[child].Children {
				t.Nodes[child].Children[i] = NoChild
			}
			t.Nodes[node].Children[o] = child
			boxes = append(boxes, geom.AABB{})
		}
		node = child
		box = box.Octant(o)
		boxes[node] = box
	}
}

// newLeaves lists leaves in structural (octant) order.
func newLeaves(t *Tree) []int32 {
	var out []int32
	t.walkReachable(func(id int32) {
		if t.Nodes[id].IsLeaf {
			out = append(out, id)
		}
	})
	return out
}

// buildRange mirrors build but can reuse an existing node index for the
// subtree root (reuse ≥ 0).
func (t *Tree) buildRange(box geom.AABB, start, end int32, depth int, opts Options, reuse int32) int32 {
	id := reuse
	if id < 0 {
		id = int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{})
	}
	nd := Node{Start: start, End: end, Depth: int16(depth)}
	for i := range nd.Children {
		nd.Children[i] = NoChild
	}
	if int(end-start) <= opts.LeafCap || depth >= opts.MaxDepth {
		nd.IsLeaf = true
		t.Nodes[id] = nd
		return id
	}
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
	for o := 0; o < 8; o++ {
		if counts[o] == 0 {
			continue
		}
		nd.Children[o] = t.buildRange(box.Octant(o), offsets[o], offsets[o]+counts[o], depth+1, opts, -1)
	}
	t.Nodes[id] = nd
	return id
}
