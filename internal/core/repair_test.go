package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

func mortonParams() Params {
	p := DefaultParams()
	p.Builder = octree.BuilderMorton
	return p
}

func jigglePositions(rng *rand.Rand, pos []geom.Vec3, sigma float64) []geom.Vec3 {
	out := make([]geom.Vec3, len(pos))
	for i, p := range pos {
		out[i] = p.Add(geom.V(
			rng.NormFloat64()*sigma, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma))
	}
	return out
}

// TestUpdateAtomsRepairExact: after a repair, the cached lists must be
// byte-for-byte what a fresh compile over the moved geometry produces
// (RecheckLists diffs every row's far/near/sym entries in order), and
// the repaired system's energy must match a from-scratch system on the
// same positions to full approximation accuracy.
func TestUpdateAtomsRepairExact(t *testing.T) {
	sys, mol, surf := testSystem(t, 500, 211, mortonParams())
	sys.Lists(nil) // compile the cache the repair will patch
	rng := rand.New(rand.NewSource(212))
	newPos := jigglePositions(rng, mol.Positions(), 0.05)

	o := obs.New()
	stats, err := sys.UpdateAtomsRepair(newPos, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebuilt {
		t.Fatal("small jiggle triggered a rebuild")
	}
	if !stats.Repaired {
		t.Fatal("small jiggle did not repair the lists")
	}
	if stats.RowsRepaired > stats.RowsTotal {
		t.Fatalf("repaired %d of %d rows", stats.RowsRepaired, stats.RowsTotal)
	}
	if o.Counter("ilist.rows.repaired").Value() != int64(stats.RowsRepaired) {
		t.Error("ilist.rows.repaired counter disagrees with stats")
	}
	if o.Counter("octree.keys.moved").Value() != int64(stats.Moved) {
		t.Error("octree.keys.moved counter disagrees with stats")
	}
	if err := sys.Atoms.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hard guarantee: repaired lists == fresh compile, exactly.
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatalf("repaired lists diverge from a fresh compile: %v", err)
	}

	got, err := RunShared(sys, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same tree, recompiled-from-scratch lists: identical lists ⇒
	// identical arithmetic, so the energy must match to summation-order
	// noise.
	sys.InvalidateLists()
	recompiled, err := RunShared(sys, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Epol, recompiled.Epol) > 1e-12 {
		t.Errorf("repaired energy %v vs recompiled %v", got.Epol, recompiled.Epol)
	}
	// A from-scratch SYSTEM partitions cells differently (the update
	// preserves old leaf boundaries), so both are ε-valid answers that
	// agree only to well within the approximation band.
	movedMol := mol.Clone()
	for i := range movedMol.Atoms {
		movedMol.Atoms[i].Pos = newPos[i]
	}
	fresh, err := NewSystem(movedMol, surf, mortonParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunShared(fresh, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Epol, want.Epol) > 0.02 {
		t.Errorf("repaired energy %v vs fresh-system %v", got.Epol, want.Epol)
	}
}

// TestUpdateAtomsRepairRepeated walks a trajectory of repairs and
// rechecks exactness at every step — a row kept across several steps is
// re-tested at each against the geometry of the step before, not against
// the one it was classified on.
func TestUpdateAtomsRepairRepeated(t *testing.T) {
	sys, mol, _ := testSystem(t, 400, 213, mortonParams())
	sys.Lists(nil)
	rng := rand.New(rand.NewSource(214))
	pos := mol.Positions()
	repairs := 0
	for step := 0; step < 8; step++ {
		pos = jigglePositions(rng, pos, 0.02)
		stats, err := sys.UpdateAtomsRepair(pos, nil, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if stats.Repaired {
			repairs++
			if err := sys.RecheckLists(nil); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		res, err := RunShared(sys, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Epol >= 0 || math.IsNaN(res.Epol) {
			t.Fatalf("step %d: energy %v", step, res.Epol)
		}
	}
	if repairs == 0 {
		t.Fatal("no step repaired the lists; test exercised nothing")
	}
}

// TestUpdateAtomsRepairSavesWork: for a small jiggle most rows must be
// kept — if the repair reclassifies nearly everything the re-test is
// broken (it is exact: a row it gives up has lists that changed).
func TestUpdateAtomsRepairSavesWork(t *testing.T) {
	sys, mol, _ := testSystem(t, 600, 215, mortonParams())
	sys.Lists(nil)
	rng := rand.New(rand.NewSource(216))
	stats, err := sys.UpdateAtomsRepair(jigglePositions(rng, mol.Positions(), 0.01), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Repaired {
		t.Fatal("not repaired")
	}
	if stats.RowsRepaired*2 > stats.RowsTotal {
		t.Errorf("repair recomputed %d of %d rows for a 0.01 sigma jiggle",
			stats.RowsRepaired, stats.RowsTotal)
	}
}

// TestUpdateAtomsRepairFallbacks: the repair invalidates the lists
// whenever its preconditions fail — recursive
// (keyless) trees, no cached lists, or structural leaf changes — and
// meters the fallback.
func TestUpdateAtomsRepairFallbacks(t *testing.T) {
	// Recursive builder: no keys, tracked update rebuilds.
	sys, mol, _ := testSystem(t, 200, 217, DefaultParams())
	sys.Lists(nil)
	rng := rand.New(rand.NewSource(218))
	o := obs.New()
	stats, err := sys.UpdateAtomsRepair(jigglePositions(rng, mol.Positions(), 0.05), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Rebuilt || stats.Repaired {
		t.Errorf("recursive tree: Rebuilt=%v Repaired=%v, want rebuild fallback", stats.Rebuilt, stats.Repaired)
	}
	if o.Counter("ilist.repair.fallbacks").Value() != 1 || o.Counter("ilist.repair.fallbacks.untracked").Value() != 1 {
		t.Error("fallback not metered with its reason")
	}
	if res, err := RunShared(sys, SharedOptions{Threads: 2}); err != nil || res.Epol >= 0 {
		t.Fatalf("post-fallback run: %v %v", res.Epol, err)
	}

	// No cached lists: nothing to repair, but the update itself works.
	sys2, mol2, _ := testSystem(t, 200, 219, mortonParams())
	stats, err = sys2.UpdateAtomsRepair(jigglePositions(rng, mol2.Positions(), 0.05), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired {
		t.Error("repair claimed with no cached lists")
	}
	if o.Counter("ilist.repair.fallbacks").Value() != 2 || o.Counter("ilist.repair.fallbacks.no_lists").Value() != 1 {
		t.Error("an update without lists not metered with its reason")
	}

	// A violent move changes the leaf set (or escapes the cube): lists
	// must be invalidated, and the next evaluation still agrees with a
	// fresh system.
	sys3, mol3, _ := testSystem(t, 200, 221, mortonParams())
	sys3.Lists(nil)
	big := jigglePositions(rng, mol3.Positions(), 5.0)
	stats, err = sys3.UpdateAtomsRepair(big, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired {
		if err := sys3.RecheckLists(nil); err != nil {
			t.Fatalf("big-move repair diverged: %v", err)
		}
	}
	if err := sys3.Atoms.Validate(); err != nil {
		t.Fatal(err)
	}

	// Length mismatch is rejected before anything mutates.
	if _, err := sys3.UpdateAtomsRepair(make([]geom.Vec3, 3), nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestSnapshotAfterRepairs: a system that went through structural repairs
// must still checkpoint. Tracked updates append materialized leaves and
// orphan pruned ones, so the live leaf order stops being ascending node
// order; the decoded tree has to derive the same order the compiled rows
// follow, and evaluate to the same energy with no recompile.
func TestSnapshotAfterRepairs(t *testing.T) {
	sys, mol, _ := testSystem(t, 4000, 2, mortonParams())
	sys.Lists(nil)
	rng := rand.New(rand.NewSource(223))
	pos := mol.Positions()
	structural := 0
	for step := 0; step < 8; step++ {
		pos = localJiggle(rng, pos, 0.3)
		stats, err := sys.UpdateAtomsRepair(pos, nil, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if stats.Repaired && stats.Moved > 0 {
			structural++
		}
		data, err := EncodeSnapshot(sys)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("step %d (%+v): %v", step, stats, err)
		}
		if stats.Repaired && got.lists == nil {
			t.Fatalf("step %d: the snapshot dropped the repaired lists", step)
		}
		want, err := RunShared(sys, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunShared(got, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if relErr(res.Epol, want.Epol) > 1e-12 {
			t.Fatalf("step %d: decoded system gives E_pol %.17g, live system %.17g", step, res.Epol, want.Epol)
		}
	}
	if structural == 0 {
		t.Fatal("no step repaired across a leaf change; test exercised nothing")
	}
}

// TestReposeThenRepair: a rigid transform moves points and node centers
// but cannot carry the octree's root cube and Morton keys, so an update
// after it must rebuild the atoms octree in the new frame rather than
// rekey against the old cube (which moved nearly every key and gave a
// 3e-2 wrong energy). The pose is a quarter turn about the center of the
// q-point cube: that maps the q-points octree's cells onto themselves, so
// the re-posed system and a fresh one on the same coordinates hold the
// same decomposition and must agree to rounding.
func TestReposeThenRepair(t *testing.T) {
	sys, mol, surf := testSystem(t, 4000, 2, mortonParams())
	sys.Lists(nil)
	qpts := make([]geom.Vec3, len(surf.Points))
	for i, p := range surf.Points {
		qpts[i] = p.Pos
	}
	c := geom.Bound(qpts).Center()
	tr := geom.Translate(c).Compose(geom.RotateAxis(geom.V(0, 0, 1), math.Pi/2)).Compose(geom.Translate(c.Scale(-1)))
	mol.ApplyTransform(tr)
	surf.ApplyTransform(tr)
	sys.ApplyRigidTransform(tr)

	stats, err := sys.UpdateAtomsRepair(mol.Positions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Rebuilt || stats.Repaired {
		t.Fatalf("update after a re-pose: %+v, want the rebuild path with lists invalidated", stats)
	}
	if err := sys.Atoms.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := RunShared(sys, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(mol, surf, mortonParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunShared(fresh, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Epol, want.Epol) > 1e-9 {
		t.Errorf("re-posed then updated E_pol %.17g vs fresh system %.17g (rel %.3g)",
			got.Epol, want.Epol, relErr(got.Epol, want.Epol))
	}
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShared(dec, SharedOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(res.Epol, got.Epol) > 1e-12 {
		t.Errorf("decoded E_pol %.17g vs live %.17g", res.Epol, got.Epol)
	}
}

// TestRepairDecidesBeforePaying: an update that is rejected, or that ends
// with the lists dropped, allocates no lists — it costs the octree update
// and nothing of the repair — and returns what it always returned, with
// the reason metered.
func TestRepairDecidesBeforePaying(t *testing.T) {
	sys, mol, _ := testSystem(t, 300, 225, mortonParams())
	lists := sys.Lists(nil).MemoryBytes()
	pos := jigglePositions(rand.New(rand.NewSource(226)), mol.Positions(), 0.02)
	o := obs.New()
	// What an update may allocate: a fraction of the lists, which a repair
	// allocates all of — or, where the octree rebuilds, the rebuild's own
	// bytes (measured on a twin system) and a kilobyte.
	budget := lists / 2
	unpaid := func(what, reason string, update func()) {
		t.Helper()
		if _, got, _ := measureAllocs(update); int64(got) > budget {
			t.Errorf("%s allocated %d bytes, budget %d; the lists are %d", what, got, budget, lists)
		}
		if reason != "" && o.Counter("ilist.repair.fallbacks."+reason).Value() != 1 {
			t.Errorf("%s was not metered as fallbacks.%s", what, reason)
		}
	}

	// Rejected: nothing moves, the lists stay.
	held := sys.lists
	unpaid("a rejected update", "", func() {
		if stats, err := sys.UpdateAtomsRepair(pos[:5], nil, o); err == nil || stats != (UpdateStats{}) {
			t.Fatalf("short position slice: %+v %v", stats, err)
		}
		bad := append([]geom.Vec3(nil), pos...)
		bad[7].Y = math.NaN()
		stats, err := sys.UpdateAtomsRepair(bad, nil, o)
		if err == nil || !strings.HasPrefix(err.Error(), "octree: point 7 is not finite") || stats != (UpdateStats{}) {
			t.Fatalf("NaN coordinate: %+v %v", stats, err)
		}
	})
	if sys.lists != held || sys.Mol.Atoms[7].Pos != mol.Positions()[7] {
		t.Fatal("a rejected update touched the system")
	}

	// Parameter mismatch: the cached lists are stale and get dropped.
	sys.Params.EpsEpol = 0.5
	unpaid("an update of stale lists", "params_changed", func() {
		if stats, err := sys.UpdateAtomsRepair(pos, nil, o); err != nil || stats.Repaired || sys.lists != nil {
			t.Fatalf("stale lists: %+v %v", stats, err)
		}
	})

	// No cached lists.
	unpaid("an update without lists", "no_lists", func() {
		if stats, err := sys.UpdateAtomsRepair(mol.Positions(), nil, o); err != nil || stats.Repaired {
			t.Fatalf("no lists: %+v %v", stats, err)
		}
	})

	// No Morton keys (TestReposeThenRepair's state): the tree rebuilds.
	sys.Lists(nil)
	sys.ApplyRigidTransform(geom.Translate(geom.V(3, 0, 0)))
	moved := make([]geom.Vec3, len(pos))
	for i, p := range mol.Positions() {
		moved[i] = p.Add(geom.V(3, 0, 0))
	}
	twin, _, _ := testSystem(t, 300, 225, mortonParams())
	twin.ApplyRigidTransform(geom.Translate(geom.V(3, 0, 0)))
	_, rebuild, _ := measureAllocs(func() {
		if res, err := twin.Atoms.UpdateTracked(moved); err != nil || !res.Rebuilt {
			t.Fatalf("the twin's octree: %+v %v", res, err)
		}
	})
	budget = int64(rebuild) + 1024
	unpaid("an update that rebuilds the octree", "untracked", func() {
		if stats, err := sys.UpdateAtomsRepair(moved, nil, o); err != nil || !stats.Rebuilt || stats.Repaired || sys.lists != nil {
			t.Fatalf("update after a re-pose: %+v %v", stats, err)
		}
	})
	if total := o.Counter("ilist.repair.fallbacks").Value(); total != 3 || o.Counter("ilist.repair.fallbacks.rebuilt").Value() != 0 {
		t.Errorf("%d fallbacks metered in total, want the 3 reasons above", total)
	}

	// And the one that can repair does.
	sys.Lists(nil)
	if stats, err := sys.UpdateAtomsRepair(jigglePositions(rand.New(rand.NewSource(227)), moved, 0.02), nil, o); err != nil || !stats.Repaired {
		t.Fatalf("repairable update: %+v %v", stats, err)
	}
}

// TestNullRepairKeepsLists: an update that moves no node — the positions
// the system already has, as a caller re-sending its last frame would —
// is a repair that costs the octree update and one walk of the tree: the
// held lists come back themselves, and no list is allocated.
func TestNullRepairKeepsLists(t *testing.T) {
	sys, mol, _ := testSystem(t, 2000, 229, mortonParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	held := sys.Lists(pool)
	pos := localJiggle(rand.New(rand.NewSource(230)), mol.Positions(), 0.05)
	for step, p := range [][]geom.Vec3{mol.Positions(), pos, pos} {
		o := obs.New()
		var stats UpdateStats
		var err error
		_, allocated, _ := measureAllocs(func() { stats, err = sys.UpdateAtomsRepair(p, pool, o) })
		if err != nil || !stats.Repaired {
			t.Fatalf("step %d: %+v %v", step, stats, err)
		}
		if step == 1 { // a real repair, for the next step to re-send
			if stats.RowsRepaired == 0 || sys.lists == held {
				t.Fatalf("a jiggle repaired nothing: %+v", stats)
			}
			held = sys.lists
			continue
		}
		want := UpdateStats{Repaired: true, RowsTotal: len(held.Born.Rows) + len(held.Epol.Rows)}
		if stats != want || sys.lists != held {
			t.Errorf("step %d: %+v (same lists: %v), want %+v and the lists it held", step, stats, sys.lists == held, want)
		}
		// O(nodes + atoms): the delta's walk and the octree's re-keying.
		if budget := uint64(64 * (len(sys.Atoms.Nodes) + mol.NumAtoms())); allocated > budget || int64(allocated) > held.MemoryBytes()/8 {
			t.Errorf("step %d: a null update allocated %d bytes (budget %d, lists %d)", step, allocated, budget, held.MemoryBytes())
		}
		if n := o.Counter("ilist.repair.hot_nodes").Value() + o.Counter("ilist.rows.repaired").Value(); n != 0 {
			t.Errorf("step %d: a null update metered work", step)
		}
		if err := sys.RecheckLists(pool); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
