package octree

import (
	"fmt"
	"math/bits"
	"slices"

	"gbpolar/internal/geom"
)

// This file is the tracked (Morton-keyed) incremental update — the warm
// path the cold-path builder (morton.go) pays for once. Where routing
// every point down the tree takes ~depth floating-point octant tests, the
// tracked update recomputes the 63-bit
// keys in one vectorizable sweep and detects a leaf change with a single
// integer prefix compare per point: a point left its leaf iff its key
// changed in the leading 3·depth bits. For an MD-step-sized jiggle
// almost nothing moves, so the structural work collapses to a windowed
// relocation over the few affected leaf ranges, and the update reports
// exactly WHICH nodes gained or lost points — the dirtiness the
// interaction-list repair (core/ilist_repair.go) consumes to avoid
// recompiling rows whose classification provably cannot have changed.

// TrackedUpdate reports what an UpdateTracked call did.
type TrackedUpdate struct {
	// Moved is the number of points that changed leaf (for the rebuild
	// paths, the total point count).
	Moved int
	// Rebuilt is set when the call fell back to a full reconstruction
	// (point outside the root cube, or no keys to track): node ids are
	// NOT stable across the call and Dirty is nil.
	Rebuilt bool
	// LeavesChanged is set when the leaf SET changed (a leaf was
	// created, emptied or split). Node ids of surviving nodes are still
	// stable, but consumers keyed to the leaf list must rebuild.
	LeavesChanged bool
	// Dirty[id] is true iff node id's point MEMBERSHIP changed: it
	// gained or lost at least one point. Ancestors above the
	// source/destination LCA of a move are unaffected and stay clean.
	// nil when Moved == 0 or Rebuilt.
	Dirty []bool
	// Struct[id] is true iff node id's STRUCTURE changed: it gained or
	// lost a child, its leaf-ness flipped, or the node is new. A consumer
	// that cached a traversal can keep any path whose nodes are all
	// Struct-clean (the descent revisits the same children) and re-derive
	// the rest. nil when Moved == 0 or Rebuilt.
	Struct []bool
}

// Tracks reports whether UpdateTracked(newPts) would keep the tree's node
// ids: the tree has Morton keys and every new point lies in its root cube
// (none does after ApplyTransform, which empties the cube). Otherwise the
// update is a rebuild — which a caller holding state keyed by node id may
// want to know before it prepares to repair that state.
func (t *Tree) Tracks(newPts []geom.Vec3) bool {
	if t.keys == nil {
		return false
	}
	for _, p := range newPts {
		if !t.rootBox.Contains(p) {
			return false
		}
	}
	return true
}

// UpdateTracked moves the tree's points to newPts (original point
// order, like Build) and repairs the structure using the Morton keys
// maintained by the sorted builder. A tree it cannot track (Tracks: no
// keys, as a recursive build has none, or a point outside the root cube)
// is rebuilt with its own builder.
func (t *Tree) UpdateTracked(newPts []geom.Vec3) (TrackedUpdate, error) {
	if len(newPts) != len(t.Pts) {
		return TrackedUpdate{}, fmt.Errorf("octree: UpdateTracked with %d points, tree has %d", len(newPts), len(t.Pts))
	}
	if err := CheckFinite(newPts); err != nil {
		return TrackedUpdate{}, err
	}
	n := len(t.Pts)
	if !t.Tracks(newPts) {
		return TrackedUpdate{Moved: n, Rebuilt: true}, t.rebuild(newPts)
	}
	for slot, orig := range t.Index {
		t.Pts[slot] = newPts[orig]
	}

	// --- 1. rekey and detect leaf changes by prefix compare -----------
	newKeys := make([]uint64, n)
	parallelRange(t.pool, n, 2048, func(lo, hi int) {
		geom.MortonKeys(t.rootBox, t.Pts[lo:hi], newKeys[lo:hi])
	})
	var movedSlots []int32
	for _, li := range t.leaves {
		nd := &t.Nodes[li]
		shift := uint(3 * (geom.MortonBits - int(nd.Depth)))
		for s := nd.Start; s < nd.End; s++ {
			if newKeys[s]>>shift != t.keys[s]>>shift {
				movedSlots = append(movedSlots, s)
			}
		}
	}
	if len(movedSlots) == 0 {
		t.keys = newKeys
		t.refreshGeometryAll()
		return TrackedUpdate{}, nil
	}

	// --- 2. route moved points by key digits, mark dirty nodes --------
	oldNumNodes := int32(len(t.Nodes))
	parent := make([]int32, len(t.Nodes), len(t.Nodes)+len(movedSlots))
	oldLeafOf := make([]int32, n)
	parent[0] = NoChild
	t.walkReachable(func(id int32) {
		nd := &t.Nodes[id]
		if nd.IsLeaf {
			for s := nd.Start; s < nd.End; s++ {
				oldLeafOf[s] = id
			}
			return
		}
		for _, c := range nd.Children {
			if c != NoChild {
				parent[c] = id
			}
		}
	})
	dirty := make([]bool, len(t.Nodes), len(t.Nodes)+len(movedSlots))
	strct := make([]bool, len(t.Nodes), len(t.Nodes)+len(movedSlots))
	leavesChanged := false
	// Window bounds over every leaf that loses or gains a point (plus
	// the parent range of any materialized leaf, whose siblings shift to
	// make room).
	winLo, winHi := int32(n), int32(0)
	widen := func(lo, hi int32) {
		if lo < winLo {
			winLo = lo
		}
		if hi > winHi {
			winHi = hi
		}
	}
	targetOf := make([]int32, n)
	for i := range targetOf {
		targetOf[i] = NoChild
	}
	markUp := func(leaf int32, lcaDepth int) {
		for id := leaf; id != NoChild && int(t.Nodes[id].Depth) > lcaDepth; id = parent[id] {
			dirty[id] = true
		}
	}
	for _, s := range movedSlots {
		src := oldLeafOf[s]
		// Descend by key digits; materialize a leaf when the key enters
		// an octant with no child.
		dst := int32(0)
		for !t.Nodes[dst].IsLeaf {
			o := geom.MortonOctant(newKeys[s], int(t.Nodes[dst].Depth))
			child := t.Nodes[dst].Children[o]
			if child == NoChild {
				child = int32(len(t.Nodes))
				t.Nodes = append(t.Nodes, Node{Depth: t.Nodes[dst].Depth + 1, IsLeaf: true})
				for i := range t.Nodes[child].Children {
					t.Nodes[child].Children[i] = NoChild
				}
				t.Nodes[dst].Children[o] = child
				parent = append(parent, dst)
				dirty = append(dirty, false)
				strct[dst] = true
				strct = append(strct, true)
				leavesChanged = true
				widen(t.Nodes[dst].Start, t.Nodes[dst].End)
			}
			dst = child
		}
		targetOf[s] = dst
		// Ancestors above the source/destination LCA keep their
		// membership; the LCA depth is the common key prefix length.
		lcaDepth := (63 - bits.Len64(t.keys[s]^newKeys[s])) / 3
		markUp(src, lcaDepth)
		markUp(dst, lcaDepth)
		widen(t.Nodes[src].Start, t.Nodes[src].End)
		if t.Nodes[dst].End > t.Nodes[dst].Start {
			widen(t.Nodes[dst].Start, t.Nodes[dst].End)
		}
	}
	t.keys = newKeys

	// --- 3. windowed relocation ---------------------------------------
	counts := make([]int32, len(t.Nodes))
	for _, li := range t.leaves {
		nd := &t.Nodes[li]
		counts[li] = nd.End - nd.Start
	}
	for _, s := range movedSlots {
		counts[oldLeafOf[s]]--
		counts[targetOf[s]]++
	}
	for _, li := range t.leaves {
		if counts[li] == 0 {
			leavesChanged = true // emptied: pruned below
		}
	}
	t.pruneEmpty(0, counts, strct)
	// Structural (octant-order) walk of the window's surviving and new
	// leaves assigns the post-move slot layout; leaves outside the
	// window keep their slots because the window's total count is
	// conserved.
	starts := make([]int32, len(t.Nodes))
	at := winLo
	var winLeaves []int32
	t.walkReachable(func(id int32) {
		if !t.Nodes[id].IsLeaf {
			return
		}
		nd := &t.Nodes[id]
		if id >= oldNumNodes || (nd.Start >= winLo && nd.End <= winHi) {
			winLeaves = append(winLeaves, id)
			starts[id] = at
			at += counts[id]
		}
	})
	if at != winHi {
		return TrackedUpdate{}, fmt.Errorf("octree: internal error: tracked relocation lost points (%d != %d)", at, winHi)
	}
	w := int(winHi - winLo)
	tmpP := make([]geom.Vec3, w)
	tmpI := make([]int32, w)
	tmpK := make([]uint64, w)
	copy(tmpP, t.Pts[winLo:winHi])
	copy(tmpI, t.Index[winLo:winHi])
	copy(tmpK, t.keys[winLo:winHi])
	fill := make([]int32, len(t.Nodes))
	for i := 0; i < w; i++ {
		s := winLo + int32(i)
		li := targetOf[s]
		if li == NoChild {
			li = oldLeafOf[s]
		}
		pos := starts[li] + fill[li]
		fill[li]++
		t.Pts[pos] = tmpP[i]
		t.Index[pos] = tmpI[i]
		t.keys[pos] = tmpK[i]
	}
	for _, li := range winLeaves {
		t.Nodes[li].Start = starts[li]
		t.Nodes[li].End = starts[li] + counts[li]
	}
	t.recomputeInternalRanges(0)

	// --- 4. split overfull leaves by their (re-sorted) keys -----------
	for _, li := range winLeaves {
		nd := t.Nodes[li]
		if nd.Count() > t.leafCap && int(nd.Depth) < geom.MortonBits {
			t.sortRangeByKey(nd.Start, nd.End)
			t.buildFromKeys(li, nd.Start, nd.End, int(nd.Depth), geom.MortonBits, t.leafCap)
			strct[li] = true // leaf became internal
			leavesChanged = true
		}
	}

	// --- 5. refresh ----------------------------------------------------
	t.refreshGeometryAll()
	t.rebuildLeafList()
	if len(dirty) < len(t.Nodes) {
		grown := make([]bool, len(t.Nodes)) // leaf splits appended nodes
		copy(grown, dirty)
		dirty = grown
	}
	for len(strct) < len(t.Nodes) {
		strct = append(strct, true) // split children are new nodes
	}
	return TrackedUpdate{Moved: len(movedSlots), LeavesChanged: leavesChanged, Dirty: dirty, Struct: strct}, nil
}

// sortRangeByKey sorts slots [lo,hi) ascending by key, permuting the
// point and index stores alongside — leaves stay unsorted internally
// after a tracked update (membership is a prefix property), so a leaf
// about to be split restores the order buildFromKeys needs.
func (t *Tree) sortRangeByKey(lo, hi int32) {
	type slot struct {
		key uint64
		idx int32
		pt  geom.Vec3
	}
	tmp := make([]slot, hi-lo)
	for i := range tmp {
		s := lo + int32(i)
		tmp[i] = slot{key: t.keys[s], idx: t.Index[s], pt: t.Pts[s]}
	}
	slices.SortStableFunc(tmp, func(a, b slot) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	for i, v := range tmp {
		s := lo + int32(i)
		t.keys[s], t.Index[s], t.Pts[s] = v.key, v.idx, v.pt
	}
}
