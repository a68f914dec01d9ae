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
// order, so every compiled tile — its shared and its rows' own near and far
// streams — sums to the identical float64 under epolStreamLanes and under the oracle
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
	scr := listScratch(lanes, il, 1)
	far := 0
	for tile := range il.tiles() {
		var got, want epolAccum
		epolTile(lanes, il, tile, &scr[0], &got)
		epolTile(&oracle, il, tile, &scr[0], &want)
		if math.Float64bits(got.energy) != math.Float64bits(want.energy) {
			t.Fatalf("tile %d: laned sum %x (%.17g), scalar approximate %x (%.17g)", tile,
				math.Float64bits(got.energy), got.energy, math.Float64bits(want.energy), want.energy)
		}
		if got.farTerms > 0 {
			far++
		}
	}
	if far == 0 {
		t.Fatal("no tile swept a far stream; the fixture exercises only the near field")
	}
}

// The laned tier's assembly stream kernels must agree with the portable
// lane code they replace far inside the tier's 1e-4 accuracy budget: the
// per-lane arithmetic differs only by FMA contraction, polynomial exp
// (vs the mathx scalars) and pairwise reduction, so E_pol is pinned at
// 1e-9 relative (measured ~1e-11). The assembly runs with the AVX-512F
// kernel dispatched where the host has it and forced off: the two return
// the same bits. The Born kernels of the tier are the scalar loops' bits —
// the row kernel of the near sweep, the tile sweep of the shared far runs —
// so every Born radius is the portable one exactly.
func TestAsmKernelsMatchPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA assembly kernels on this host")
	}
	defer func() { useAsmKernels, useAVX512 = true, hostAVX512 }()
	sys, _, _ := testSystem(t, 4000, 95, DefaultParams())
	sides := avx512Sides()
	var asm []*Result
	for _, zmm := range sides {
		useAVX512 = zmm
		asm = append(asm, runTier(t, sys, PrecisionLanes))
	}
	useAsmKernels = false
	portable := runTier(t, sys, PrecisionLanes)

	const tol = 1e-9
	for i, res := range asm {
		if math.Float64bits(res.Epol) != math.Float64bits(asm[0].Epol) {
			t.Errorf("lanes tier: AVX2 E_pol %.17g, AVX-512F %.17g", res.Epol, asm[0].Epol)
		}
		// !(e <= tol) rather than e > tol so a NaN energy cannot pass.
		e := relErr(res.Epol, portable.Epol)
		if !(e <= tol) {
			t.Errorf("lanes tier (AVX-512F %v): asm E_pol %.12g vs portable %.12g, rel err %.3g > %.0e", sides[i], res.Epol, portable.Epol, e, tol)
		}
		if err := sameBits("Born radius", res.BornRadii, portable.BornRadii); err != nil {
			t.Errorf("lanes tier (AVX-512F %v): assembly against portable: %v", sides[i], err)
		}
		t.Logf("lanes tier (AVX-512F %v): asm vs portable E_pol rel err %.3g", sides[i], e)
	}
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
