package octree

import (
	"fmt"
	"math"
	"slices"

	"gbpolar/internal/geom"
)

// This file adds incremental updates for moving points — the capability
// of the paper's companion work on dynamic octrees for flexible
// molecules (reference [8], "Space-efficient maintenance of nonbonded
// lists for flexible molecules using dynamic octrees") that underpins the
// Section II claim that octrees are "update-efficient" compared to
// nonbonded lists.
//
// Update keeps the existing cell structure and RELOCATES points:
//
//  1. every point is routed down the existing tree to its target leaf
//     (creating a leaf when it moves into an empty octant);
//  2. points are permuted into the new leaf order in one linear pass and
//     all node ranges are recomputed;
//  3. leaves that now exceed the capacity split in place; emptied cells
//     are pruned;
//  4. centers and radii are refreshed.
//
// Structural churn is therefore proportional to actual cell-occupancy
// changes, not to how high in the tree a crossed boundary sits. For an
// MD-step-sized jiggle nothing splits and the cost is one O(M log M)
// routing pass. If any point leaves the (slightly inflated) root cube,
// Update degrades to a full rebuild — it never fails.

// CheckFinite reports the first point with a NaN or infinite coordinate —
// the check every update starts with, exported so a caller can settle it
// before paying for anything the update needs.
func CheckFinite(pts []geom.Vec3) error {
	for i, p := range pts {
		if !p.IsFinite() {
			return fmt.Errorf("octree: point %d is not finite: %v", i, p)
		}
	}
	return nil
}

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
			return t.NumPoints(), t.rebuildAll()
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
	t.pruneEmpty(0, counts, nil)

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

// pruneEmpty removes children whose subtree holds no points anymore.
// It returns the subtree's total count. When strct is non-nil, nodes
// whose child set or leaf-ness changes are flagged (the tracked update's
// structural-change report).
func (t *Tree) pruneEmpty(node int32, counts []int32, strct []bool) int32 {
	nd := &t.Nodes[node]
	if nd.IsLeaf {
		return counts[node]
	}
	var total int32
	live := 0
	var lastLive int32 = NoChild
	for o := 0; o < 8; o++ {
		c := nd.Children[o]
		if c == NoChild {
			continue
		}
		sub := t.pruneEmpty(c, counts, strct)
		if sub == 0 {
			nd.Children[o] = NoChild
			if strct != nil {
				strct[node] = true
			}
			continue
		}
		total += sub
		live++
		lastLive = c
	}
	// An internal node with a single live child could be collapsed; keep
	// it (harmless, preserves depths) unless it has none — then it
	// becomes an empty leaf that the PARENT prunes (total == 0).
	_ = lastLive
	if live == 0 {
		nd.IsLeaf = true
		if strct != nil {
			strct[node] = true
		}
	}
	return total
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

// recomputeInternalRanges sets internal node ranges from their children
// (post-order) and returns the node's range.
func (t *Tree) recomputeInternalRanges(node int32) (int32, int32) {
	nd := &t.Nodes[node]
	if nd.IsLeaf {
		return nd.Start, nd.End
	}
	first := true
	var lo, hi int32
	for o := 0; o < 8; o++ {
		c := nd.Children[o]
		if c == NoChild {
			continue
		}
		clo, chi := t.recomputeInternalRanges(c)
		if first {
			lo, hi = clo, chi
			first = false
			continue
		}
		if clo < lo {
			lo = clo
		}
		if chi > hi {
			hi = chi
		}
	}
	nd.Start, nd.End = lo, hi
	return lo, hi
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

// refreshNodeGeometry recomputes one node's center and radius.
func (t *Tree) refreshNodeGeometry(n *Node) {
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
}

// refreshGeometryAll refreshes every reachable node. Every update path
// (Update, UpdateTracked, both fast paths) funnels through here.
func (t *Tree) refreshGeometryAll() {
	t.walkReachable(func(id int32) {
		t.refreshNodeGeometry(&t.Nodes[id])
	})
}

// walkReachable visits nodes reachable from the root in structural
// order (updates can orphan old entries in Nodes).
func (t *Tree) walkReachable(fn func(id int32)) {
	var rec func(id int32)
	rec = func(id int32) {
		fn(id)
		n := &t.Nodes[id]
		if n.IsLeaf {
			return
		}
		for _, c := range n.Children {
			if c != NoChild {
				rec(c)
			}
		}
	}
	rec(0)
}

// rebuildLeafList regenerates the leaf list in slot order.
func (t *Tree) rebuildLeafList() {
	t.leaves = t.leaves[:0]
	t.walkReachable(func(id int32) {
		if t.Nodes[id].IsLeaf {
			t.leaves = append(t.leaves, id)
		}
	})
	slices.SortFunc(t.leaves, func(a, b int32) int {
		return int(t.Nodes[a].Start) - int(t.Nodes[b].Start)
	})
}

// rebuildAll reconstructs the tree from the current (already updated)
// points.
func (t *Tree) rebuildAll() error {
	pts := make([]geom.Vec3, len(t.Pts))
	for slot, orig := range t.Index {
		pts[orig] = t.Pts[slot]
	}
	fresh, err := Build(pts, Options{LeafCap: t.leafCap, MaxDepth: 32, Builder: t.builder, Pool: t.pool})
	if err != nil {
		return err
	}
	*t = *fresh
	return nil
}

// NumReachableNodes counts nodes reachable from the root.
func (t *Tree) NumReachableNodes() int {
	n := 0
	t.walkReachable(func(int32) { n++ })
	return n
}

// CompactNodes drops unreachable node entries left behind by updates,
// re-indexing children. Call it after many updates to reclaim memory.
func (t *Tree) CompactNodes() {
	remap := make([]int32, len(t.Nodes))
	order := make([]int32, 0, len(t.Nodes))
	t.walkReachable(func(id int32) {
		remap[id] = int32(len(order))
		order = append(order, id)
	})
	fresh := make([]Node, len(order))
	for newID, oldID := range order {
		n := t.Nodes[oldID]
		for i, c := range n.Children {
			if c != NoChild {
				n.Children[i] = remap[c]
			}
		}
		fresh[newID] = n
	}
	t.Nodes = fresh
	t.rebuildLeafList()
}
