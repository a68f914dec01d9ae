package octree

import (
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/wire"
)

// checkKeyConsistency asserts the tracked-update invariants: every
// slot's stored key is the key of its point, and the key's octant path
// leads from the root to the leaf that owns the slot.
func checkKeyConsistency(t *testing.T, tr *Tree) {
	t.Helper()
	keys := tr.Keys()
	if keys == nil {
		t.Fatal("tree has no keys")
	}
	fresh := make([]uint64, len(tr.Pts))
	geom.MortonKeys(tr.rootBox, tr.Pts, fresh)
	for s := range keys {
		if keys[s] != fresh[s] {
			t.Fatalf("slot %d: stored key %#x, recomputed %#x", s, keys[s], fresh[s])
		}
	}
	for _, li := range tr.Leaves() {
		nd := &tr.Nodes[li]
		for s := nd.Start; s < nd.End; s++ {
			id := int32(0)
			for !tr.Nodes[id].IsLeaf {
				o := geom.MortonOctant(keys[s], int(tr.Nodes[id].Depth))
				id = tr.Nodes[id].Children[o]
				if id == NoChild {
					t.Fatalf("slot %d key %#x routes into a missing child", s, keys[s])
				}
			}
			if id != li {
				t.Fatalf("slot %d key %#x routes to leaf %d, owned by %d", s, keys[s], id, li)
			}
		}
	}
}

// memberSets returns, per node id, the sorted original point ids under
// the node's range (only reachable nodes).
func memberSets(tr *Tree) map[int32][]int32 {
	out := make(map[int32][]int32)
	tr.walkReachable(func(id int32) {
		nd := &tr.Nodes[id]
		set := slices.Clone(tr.Index[nd.Start:nd.End])
		slices.Sort(set)
		out[id] = set
	})
	return out
}

// TestUpdateTrackedMatchesUntracked: the tracked (key-prefix) update and
// the untracked (routing) update must agree on which points moved and on
// the resulting leaf decomposition — the key path replays the same
// verdicts through integer compares.
func TestUpdateTrackedMatchesUntracked(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sigma := range []float64{0.05, 0.5, 3.0} {
		pts := randPts(rng, 2500, 30)
		moved := jiggle(rng, pts, sigma)

		trk, err := Build(pts, Options{Builder: BuilderMorton})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(pts, Options{Builder: BuilderMorton})
		if err != nil {
			t.Fatal(err)
		}
		res, err := trk.UpdateTracked(moved)
		if err != nil {
			t.Fatal(err)
		}
		refMoved, err := ref.Update(moved)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilt != (refMoved == ref.NumPoints() && sigma >= 3) && res.Rebuilt {
			// Rebuild only when a point escaped the root cube; the
			// untracked path rebuilds under the same condition, so both
			// agree — checked implicitly by the comparisons below.
			t.Logf("sigma=%g: rebuilt", sigma)
		}
		if err := trk.Validate(); err != nil {
			t.Fatalf("sigma=%g: %v", sigma, err)
		}
		if !res.Rebuilt {
			if res.Moved != refMoved {
				t.Fatalf("sigma=%g: tracked moved %d, untracked %d", sigma, res.Moved, refMoved)
			}
			checkKeyConsistency(t, trk)
		}
		// Same leaf decomposition: leaf ranges (by start) and per-leaf
		// original-id sets.
		type leafKey struct{ start, end int32 }
		collect := func(tr *Tree) map[leafKey][]int32 {
			m := make(map[leafKey][]int32)
			for _, li := range tr.Leaves() {
				nd := &tr.Nodes[li]
				set := slices.Clone(tr.Index[nd.Start:nd.End])
				slices.Sort(set)
				m[leafKey{nd.Start, nd.End}] = set
			}
			return m
		}
		a, b := collect(trk), collect(ref)
		if len(a) != len(b) {
			t.Fatalf("sigma=%g: %d leaves tracked, %d untracked", sigma, len(a), len(b))
		}
		for k, av := range a {
			if !slices.Equal(av, b[k]) {
				t.Fatalf("sigma=%g: leaf [%d,%d) differs", sigma, k.start, k.end)
			}
		}
	}
}

// TestUpdateTrackedDirtyExact: Dirty must be exactly the set of
// surviving nodes whose point membership changed — no false negatives
// (soundness for the list repair) and no false positives above the LCA
// (the efficiency claim).
func TestUpdateTrackedDirtyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randPts(rng, 3000, 30)
	tr, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	before := memberSets(tr)
	oldNodes := int32(tr.NumNodes())
	res, err := tr.UpdateTracked(jiggle(rng, pts, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt {
		t.Fatal("unexpected rebuild")
	}
	if res.Moved == 0 {
		t.Fatal("jiggle moved nothing; test needs movement")
	}
	after := memberSets(tr)
	checked := 0
	for id, pre := range before {
		if id >= oldNodes {
			continue
		}
		post, alive := after[id]
		changed := !alive || !slices.Equal(pre, post)
		if changed != res.Dirty[id] {
			t.Errorf("node %d: membership changed=%v but Dirty=%v", id, changed, res.Dirty[id])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no nodes checked")
	}
	// The root must stay clean: points moved within the cube, so its
	// membership is the full set.
	if res.Dirty[0] {
		t.Error("root marked dirty by interior moves")
	}
}

// TestUpdateTrackedRepeated: invariants hold across a trajectory of
// tracked updates, including splits and prunes.
func TestUpdateTrackedRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randPts(rng, 1200, 20)
	tr, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	cur := pts
	for step := 0; step < 12; step++ {
		cur = jiggle(rng, cur, 0.3)
		res, err := tr.UpdateTracked(cur)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !res.Rebuilt {
			checkKeyConsistency(t, tr)
		}
	}
}

// TestUpdateTrackedFallbacks: trees without keys (recursive builds,
// post-untracked-update) degrade to the untracked path, and escapes
// from the root cube rebuild — with keys regenerated for Morton trees.
func TestUpdateTrackedFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := randPts(rng, 500, 15)

	rec, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.UpdateTracked(jiggle(rng, pts, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Error("recursive tree should report the untracked fallback")
	}

	mor, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	far := slices.Clone(pts)
	far[7] = far[7].Add(geom.V(1e4, 0, 0)) // escapes the root cube
	res, err = mor.UpdateTracked(far)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Error("escape should rebuild")
	}
	if mor.Keys() == nil {
		t.Error("rebuild of a Morton tree should regenerate keys")
	}
	if err := mor.Validate(); err != nil {
		t.Fatal(err)
	}
	checkKeyConsistency(t, mor)

	// An untracked Update invalidates keys; the next tracked call falls
	// back rather than trusting stale keys.
	mor2, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mor2.Update(jiggle(rng, pts, 0.1)); err != nil {
		t.Fatal(err)
	}
	if mor2.Keys() != nil {
		t.Fatal("untracked update should drop keys")
	}
	res, err = mor2.UpdateTracked(jiggle(rng, pts, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Error("stale-key tree should fall back")
	}
}

// TestUpdateAfterTransformRebuilds: ApplyTransform carries points and node
// centers into a new frame but not the root cube and the keys, so the
// next update — tracked or not — must rebuild in that frame, and leave
// the tree an in-frame build leaves: same cells, consistent keys.
func TestUpdateAfterTransformRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	// A ball rotated about its center stays inside the old cube, where
	// only the stale frame can force the rebuild.
	var pts []geom.Vec3
	for _, p := range randPts(rng, 1600, 15) {
		if p.Norm() < 7.5 {
			pts = append(pts, p)
		}
	}
	c := geom.Bound(pts).Center()
	tr := geom.Translate(c).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.7)).Compose(geom.Translate(c.Scale(-1)))
	posed := make([]geom.Vec3, len(pts))
	for i, p := range pts {
		posed[i] = tr.Apply(p)
	}
	want, err := Build(posed, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}

	tracked, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	tracked.ApplyTransform(tr)
	res, err := tracked.UpdateTracked(posed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Errorf("tracked update after a transform: %+v, want a rebuild", res)
	}
	checkKeyConsistency(t, tracked)

	plain, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	plain.ApplyTransform(tr)
	if moved, err := plain.Update(posed); err != nil || moved != len(pts) {
		t.Errorf("untracked update after a transform moved %d of %d (%v), want a rebuild", moved, len(pts), err)
	}
	for name, got := range map[string]*Tree{"tracked": tracked, "untracked": plain} {
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Leaves(), want.Leaves()) || !slices.Equal(got.Index, want.Index) {
			t.Errorf("%s: tree differs from a build in the new frame", name)
		}
	}
}

// TestCodecKeepsLeafOrderAfterTrackedUpdates: tracked updates append
// materialized leaves and orphan pruned ones, so the live leaf order is
// no longer ascending node order; a decoded tree must list the same
// leaves in the same order, since compiled list rows are keyed to it.
func TestCodecKeepsLeafOrderAfterTrackedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	pts := randPts(rng, 1500, 15)
	tr, err := Build(pts, Options{Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for step := 0; step < 6; step++ {
		pts = jiggle(rng, pts, 0.4)
		res, err := tr.UpdateTracked(pts)
		if err != nil {
			t.Fatal(err)
		}
		changed = changed || (res.LeavesChanged && !res.Rebuilt)
		var w wire.Writer
		tr.AppendTo(&w)
		got, err := DecodeTree(wire.NewReader(w.Bytes()), len(pts), func(i int) geom.Vec3 { return pts[i] })
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !slices.Equal(got.Leaves(), tr.Leaves()) {
			t.Fatalf("step %d: decoded leaf order differs from the live tree's", step)
		}
		if !slices.Equal(got.Pts, tr.Pts) || !slices.Equal(got.Nodes, tr.Nodes) {
			t.Fatalf("step %d: the decoded tree has other points or nodes", step)
		}
	}
	if !changed {
		t.Fatal("no update changed the leaf set; test exercised nothing")
	}
}
