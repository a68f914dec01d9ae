package core

import (
	"fmt"
	"testing"
	"unsafe"

	"gbpolar/internal/geom"
	"gbpolar/internal/sched"
)

// The compiled interaction-list path (ilist.go + kernels.go) must
// reproduce the recursive reference traversals to floating-point noise:
// the lists record exactly the far/near decomposition the recursion
// takes, and the batch kernels mirror its arithmetic term-for-term.
// Single-threaded runs keep the summation order fixed, so the 1e-12
// relative tolerance is far above the only real difference (the exact
// kernels' x·(1/√f) reassociation).
func TestCompiledMatchesRecursive(t *testing.T) {
	// EpsBorn/EpsEpol = 0 is expressed as 1e-12 (withDefaults treats 0 as
	// unset); epolFarFactor makes any eps ≤ tiny effectively "never far",
	// which is the ε=0 semantics the recursion has.
	for _, kern := range []BornKernel{R6, R4} {
		for _, strict := range []bool{false, true} {
			for _, eps := range []float64{1e-12, 0.5, 0.9} {
				name := fmt.Sprintf("%v/strict=%v/eps=%g", kern, strict, eps)
				t.Run(name, func(t *testing.T) {
					params := Params{
						EpsBorn: eps, EpsEpol: eps, EpsSolv: 80,
						Kernel: kern, StrictBornMAC: strict,
					}
					sys, _, _ := testSystem(t, 260, 91, params)
					compareCompiledRecursive(t, sys, 1e-12)
				})
			}
		}
	}
}

// The laned tier swaps both paths onto the approximate-math kernels; the
// compiled sweep must still agree — on the portable lanes, which evaluate
// the scalar kernels' own terms (TestAsmKernelsMatchPortable pins the
// assembly to them).
func TestCompiledMatchesRecursiveApproxMath(t *testing.T) {
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	useAsmKernels = false
	params := DefaultParams()
	params.Precision = PrecisionLanes
	sys, _, _ := testSystem(t, 260, 92, params)
	compareCompiledRecursive(t, sys, 1e-12)
}

func compareCompiledRecursive(t *testing.T, sys *System, tol float64) {
	t.Helper()
	rec, err := RunShared(sys, SharedOptions{Threads: 1, Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(cmp.Epol, rec.Epol); e > tol {
		t.Errorf("Epol compiled %v vs recursive %v (rel %.3g)", cmp.Epol, rec.Epol, e)
	}
	for i := range rec.BornRadii {
		if e := relErr(cmp.BornRadii[i], rec.BornRadii[i]); e > tol {
			t.Fatalf("atom %d Born radius compiled %v vs recursive %v (rel %.3g)",
				i, cmp.BornRadii[i], rec.BornRadii[i], e)
		}
	}
}

// The rigid-transform reuse invariant: after Repose the cached lists are
// still exactly what a fresh compilation would produce, and evaluating
// through them matches a fresh recursive run of the moved system.
func TestCompiledListsSurviveRigidTransform(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 93, DefaultParams())
	sys.Params.DebugCheckLists = true // every run re-verifies the lists

	before, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	lists := sys.Lists(nil)

	tr := geom.Translate(geom.V(17, -4, 9)).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.8))
	sys.ApplyRigidTransform(tr)
	if got := sys.Lists(nil); got != lists {
		t.Fatal("rigid transform invalidated the compiled lists")
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatalf("lists drifted after rigid transform: %v", err)
	}

	moved, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunShared(sys, SharedOptions{Threads: 1, Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(moved.Epol, rec.Epol); e > 1e-12 {
		t.Errorf("moved compiled %v vs moved recursive %v (rel %.3g)", moved.Epol, rec.Epol, e)
	}

	// Round trip back: the energy is invariant under rigid motion, so the
	// original value must return (up to the kernels' rotation sensitivity).
	sys.ApplyRigidTransform(tr.Inverse())
	after, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(after.Epol, before.Epol); e > 1e-9 {
		t.Errorf("round-trip energy %v vs original %v (rel %.3g)", after.Epol, before.Epol, e)
	}
}

// Non-rigid geometry changes and parameter changes must not be served by
// stale lists.
func TestCompiledListsInvalidation(t *testing.T) {
	sys, mol, _ := testSystem(t, 300, 94, DefaultParams())
	lists := sys.Lists(nil)

	// A non-rigid update of a tree it cannot repair (the recursive
	// builder's has no Morton keys): the cache must drop.
	pos := mol.Positions()
	for i := range pos {
		pos[i].X += 0.25 * float64(i%5)
	}
	if _, err := sys.UpdateAtomsRepair(pos, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := sys.Lists(nil); got == lists {
		t.Fatal("UpdateAtomsRepair did not invalidate the compiled lists")
	}

	// A parameter change flips the opening criterion: the signature check
	// must trigger a recompile even without an explicit invalidation.
	lists = sys.Lists(nil)
	sys.Params.EpsEpol = 0.4
	if got := sys.Lists(nil); got == lists {
		t.Fatal("EpsEpol change did not recompile the lists")
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatal(err)
	}
}

// Multi-threaded compiled runs agree with the recursive path to the same
// tolerance the repo grants any two stealing schedules.
func TestCompiledMatchesRecursiveParallel(t *testing.T) {
	sys, _, _ := testSystem(t, 400, 95, DefaultParams())
	rec, err := RunShared(sys, SharedOptions{Threads: 4, Recursive: true})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunShared(sys, SharedOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(cmp.Epol, rec.Epol); e > 1e-9 {
		t.Errorf("Epol compiled %v vs recursive %v (rel %.3g)", cmp.Epol, rec.Epol, e)
	}
}

// Both worker accumulators occupy whole cache lines so adjacent workers
// never false-share their hot counters (born.go / epol.go reference this
// test by name).
func TestAccumulatorsCacheLineSized(t *testing.T) {
	if s := unsafe.Sizeof(epolAccum{}); s != 64 {
		t.Errorf("epolAccum is %d bytes, want exactly 64", s)
	}
	if s := unsafe.Sizeof(bornAccum{}); s != 128 {
		t.Errorf("bornAccum is %d bytes, want exactly 128 (two lines)", s)
	}
}

// A warm engine re-evaluating the same pose must not allocate per-pair or
// per-leaf state: lists are cached, scratch comes from pools, kernels are
// allocation-free. The budget covers per-call accumulators, the Result
// and scheduler bookkeeping — all O(workers + atoms), none O(pairs).
func TestComputeSharedWarmAllocs(t *testing.T) {
	sys, mol, _ := testSystem(t, 500, 96, DefaultParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	opts := SharedOptions{Pool: pool}
	if _, err := RunShared(sys, opts); err != nil { // warm: compiles lists
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunShared(sys, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The per-run slices (bornAccum node/atom vectors, slot radii, the
	// epol histograms) dominate; anything growing with interaction count
	// would blow far past this.
	budget := 200 + float64(mol.NumAtoms())/10
	if allocs > budget {
		t.Errorf("warm ComputeShared allocates %.0f objects per run (budget %.0f)", allocs, budget)
	}
}

// Compiled op accounting stays faithful to the evaluated work: tighter
// epsilon means more near-field pairs, so more ops — the property the
// plumbing tests rely on.
func TestCompiledOpsMonotoneInEps(t *testing.T) {
	var ops []float64
	for _, eps := range []float64{0.2, 0.9} {
		params := DefaultParams()
		params.EpsBorn, params.EpsEpol = eps, eps
		sys, _, _ := testSystem(t, 300, 97, params)
		res, err := RunShared(sys, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, res.Ops)
	}
	if ops[0] <= ops[1] {
		t.Errorf("ops at eps 0.2 (%v) not above eps 0.9 (%v)", ops[0], ops[1])
	}
}
