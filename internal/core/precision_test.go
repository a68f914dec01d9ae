package core

import (
	"math"
	"strings"
	"testing"

	"gbpolar/internal/mathx"
)

// runTier computes the system single-threaded on the compiled path under
// the given precision tier (restoring the previous parameters), so tier
// comparisons see identical row order and merge order.
func runTier(t *testing.T, sys *System, p Precision, m mathx.Mode) *Result {
	t.Helper()
	saved := sys.Params
	sys.Params.Precision = p
	sys.Params.Math = m
	defer func() { sys.Params = saved }()
	res, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The laned tier's PORTABLE path claims BIT-compatibility with the
// scalar approximate compiled path: same per-term arithmetic (the mathx
// lane helpers are per-element bit-identical to the scalars) and same
// summation order, so a single-threaded run must produce the identical
// float64s. The AVX2 assembly path makes no bitwise claim (it is pinned
// separately by TestAsmKernelsMatchPortable), so it is forced off here.
func TestLanesTierBitCompatible(t *testing.T) {
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	useAsmKernels = false
	sys, _, _ := testSystem(t, 3000, 91, DefaultParams())
	scalar := runTier(t, sys, PrecisionExact, mathx.Approximate)
	laned := runTier(t, sys, PrecisionLanes, mathx.Exact)

	if math.Float64bits(scalar.Epol) != math.Float64bits(laned.Epol) {
		t.Errorf("laned tier E_pol %x not bit-identical to scalar approximate %x (values %.17g vs %.17g)",
			math.Float64bits(laned.Epol), math.Float64bits(scalar.Epol), laned.Epol, scalar.Epol)
	}
	for i := range scalar.BornRadii {
		if math.Float64bits(scalar.BornRadii[i]) != math.Float64bits(laned.BornRadii[i]) {
			t.Fatalf("Born radius %d: laned %x vs scalar approximate %x",
				i, math.Float64bits(laned.BornRadii[i]), math.Float64bits(scalar.BornRadii[i]))
		}
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
	asm := runTier(t, sys, PrecisionLanes, mathx.Exact)
	useAsmKernels = false
	defer func() { useAsmKernels = true }()
	portable := runTier(t, sys, PrecisionLanes, mathx.Exact)

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
	exact := runTier(t, sys, PrecisionExact, mathx.Exact)
	res := runTier(t, sys, PrecisionLanes, mathx.Exact)
	if e := relErr(res.Epol, exact.Epol); e > 1e-4 {
		t.Errorf("lanes tier E_pol rel err %.3g > 1e-4 vs exact", e)
	}
}

// The two tiers parse and print by name; the retired f32 tier, like any
// unknown one, is an error — one that names the tier to use instead.
func TestPrecisionParseAndString(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{
		{"", PrecisionExact}, {"exact", PrecisionExact},
		{"lanes", PrecisionLanes}, {"approx-lanes", PrecisionLanes},
	} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"float16", "f32"} {
		if _, err := ParsePrecision(bad); err == nil || !strings.Contains(err.Error(), "lanes") {
			t.Errorf("ParsePrecision(%q) = %v, want an error naming lanes", bad, err)
		}
	}
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
