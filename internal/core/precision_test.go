package core

import (
	"math"
	"testing"

	"gbpolar/internal/molecule"
)

// runTier computes the system single-threaded on the compiled path under
// the given precision tier (restoring the previous parameters), so tier
// comparisons see identical row order and merge order.
func runTier(t *testing.T, sys *System, p Precision) *Result {
	t.Helper()
	saved := sys.Params
	sys.Params.Precision = p
	defer func() { sys.Params = saved }()
	res, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The laned tier's PORTABLE kernel claims BIT-compatibility with the
// scalar approximate-math sweep: the mathx lane helpers are per-element
// bit-identical to the scalars and a block's four terms are added in index
// order, so every compiled row — its near and its far stream — sums to the
// identical float64 under epolStreamLanes and under the oracle
// epolStreamApprox. The AVX2 assembly makes no bitwise claim (it is pinned
// separately by TestAsmKernelsMatchPortable), so it is forced off here.
func TestLanesTierBitCompatible(t *testing.T) {
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	useAsmKernels = false
	params := DefaultParams()
	params.Precision = PrecisionLanes
	f := newStreamFixture(t, "protein3000", molecule.GenProtein("core-test", 3000, 91), params)
	il := f.sys.Lists(nil).Epol
	lanes := NewEpolContext(f.sys, f.radii)
	oracle := *lanes
	oracle.stream.sweep = epolStreamApprox
	scr := newEpolScratch(lanes, il, 1)
	far := 0
	for row := range il.Rows {
		var got, want epolAccum
		epolRow(lanes, il, row, &scr[0], &got)
		epolRow(&oracle, il, row, &scr[0], &want)
		if math.Float64bits(got.energy) != math.Float64bits(want.energy) {
			t.Fatalf("row %d: laned sum %x (%.17g), scalar approximate %x (%.17g)", row,
				math.Float64bits(got.energy), got.energy, math.Float64bits(want.energy), want.energy)
		}
		if got.farTerms > 0 {
			far++
		}
	}
	if far == 0 {
		t.Fatal("no row swept a far stream; the fixture exercises only the near field")
	}
}

// The AVX2 assembly near-block kernels must agree with the portable lane
// code they replace far inside the tier's 1e-4 accuracy budget: the
// per-lane arithmetic differs only by FMA contraction, polynomial exp
// (vs the mathx scalars) and pairwise reduction, so the tier is pinned at
// 1e-9 relative (measured ~2e-11).
func TestAsmKernelsMatchPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA assembly kernels on this host")
	}
	sys, _, _ := testSystem(t, 4000, 95, DefaultParams())
	asm := runTier(t, sys, PrecisionLanes)
	useAsmKernels = false
	defer func() { useAsmKernels = true }()
	portable := runTier(t, sys, PrecisionLanes)

	const tol = 1e-9
	// !(e <= tol) rather than e > tol so a NaN energy cannot pass.
	if e := relErr(asm.Epol, portable.Epol); !(e <= tol) {
		t.Errorf("lanes tier: asm E_pol %.12g vs portable %.12g, rel err %.3g > %.0e", asm.Epol, portable.Epol, e, tol)
	}
	var worst float64
	for i := range portable.BornRadii {
		if e := relErr(asm.BornRadii[i], portable.BornRadii[i]); e > worst {
			worst = e
		}
	}
	if worst > tol {
		t.Errorf("lanes tier: asm worst Born-radius rel err %.3g > %.0e vs portable", worst, tol)
	}
	t.Logf("lanes tier: asm vs portable E_pol rel err %.3g, worst Born-radius rel err %.3g",
		relErr(asm.Epol, portable.Epol), worst)
}

// The laned tier also stays within the approximate-math accuracy class
// of the exact tier (the paper's ~1e-4 comparison), and both tiers survive
// the paranoid DebugCheckLists mode (which now also asserts the SoA
// lane-padding invariants).
func TestTiersUnderDebugCheckLists(t *testing.T) {
	params := DefaultParams()
	params.DebugCheckLists = true
	sys, _, _ := testSystem(t, 1500, 92, params)
	exact := runTier(t, sys, PrecisionExact)
	res := runTier(t, sys, PrecisionLanes)
	if e := relErr(res.Epol, exact.Epol); e > 1e-4 {
		t.Errorf("lanes tier E_pol rel err %.3g > 1e-4 vs exact", e)
	}
}

// The two tiers print by name.
func TestPrecisionString(t *testing.T) {
	if PrecisionExact.String() != "exact" || PrecisionLanes.String() != "lanes" {
		t.Error("Precision.String broken")
	}
}

// checkSoAPadding must catch a dirtied pad slot — the invariant the lane
// loops rely on.
func TestSoAPaddingInvariantChecked(t *testing.T) {
	sys, _, _ := testSystem(t, 123, 94, DefaultParams())
	if err := sys.checkSoAPadding(); err != nil {
		t.Fatalf("fresh system fails padding check: %v", err)
	}
	n := len(sys.AtomX)
	p := padLanes(n)
	if p == n {
		// 123 atoms is not a lane multiple, so there must be pad slots.
		t.Fatalf("expected pad slots for %d atoms", n)
	}
	sys.AtomX[:p][n] = 42
	if err := sys.checkSoAPadding(); err == nil {
		t.Error("checkSoAPadding missed a dirtied pad slot")
	}
	sys.AtomX[:p][n] = 0
}
