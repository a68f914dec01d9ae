package octree

import (
	"fmt"
	"math"
	"slices"

	"gbpolar/internal/geom"
)

// This file holds what every update of a moving point set shares — the
// capability of the paper's companion work on dynamic octrees for flexible
// molecules (reference [8], "Space-efficient maintenance of nonbonded
// lists for flexible molecules using dynamic octrees") that underpins the
// Section II claim that octrees are "update-efficient" compared to
// nonbonded lists. The update itself is the tracked one (tracked.go); a
// tree it cannot track is rebuilt (rebuild).

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

// pruneEmpty removes children whose subtree holds no points anymore.
// It returns the subtree's total count, and flags in strct the nodes whose
// child set or leaf-ness changes (the tracked update's structural-change
// report).
func (t *Tree) pruneEmpty(node int32, counts []int32, strct []bool) int32 {
	nd := &t.Nodes[node]
	if nd.IsLeaf {
		return counts[node]
	}
	var total int32
	live := 0
	for o := 0; o < 8; o++ {
		c := nd.Children[o]
		if c == NoChild {
			continue
		}
		sub := t.pruneEmpty(c, counts, strct)
		if sub == 0 {
			nd.Children[o] = NoChild
			strct[node] = true
			continue
		}
		total += sub
		live++
	}
	// An internal node with a single live child could be collapsed; keep
	// it (harmless, preserves depths) unless it has none — then it
	// becomes an empty leaf that the PARENT prunes (total == 0).
	if live == 0 {
		nd.IsLeaf = true
		strct[node] = true
	}
	return total
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
// funnels through here.
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
	leaves := t.leaves[:0]
	t.walkReachable(func(id int32) {
		if t.Nodes[id].IsLeaf {
			leaves = append(leaves, id)
		}
	})
	t.setLeaves(leaves)
}

// setLeaves makes leaves, every reachable leaf, the leaf list: sorted by
// their ranges unless they already are, as a built tree's are.
func (t *Tree) setLeaves(leaves []int32) {
	bySlot := func(a, b int32) int { return int(t.Nodes[a].Start) - int(t.Nodes[b].Start) }
	if !slices.IsSortedFunc(leaves, bySlot) {
		slices.SortFunc(leaves, bySlot)
	}
	t.leaves = leaves
}

// rebuild reconstructs the tree over pts (original point order, like
// Build), with its own builder: Build's one copy of the points is the only
// one.
func (t *Tree) rebuild(pts []geom.Vec3) error {
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
