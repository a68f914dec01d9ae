package core

import (
	"fmt"

	"gbpolar/internal/mathx"
)

// Precision selects the arithmetic tier of the compiled-list batch
// kernels (kernels.go / kernels_stream.go) — the paper's approximate-math
// lever (Section V.E's 1.42×) generalized into two selectable tiers.
// It restructures the COMPILED warm path; selecting the laned tier
// additionally switches the scalar kernels (Params.mathMode) to the
// approximate family so the Born-radius inversion and the recursive
// traversals sit in the same accuracy class. With the default
// PrecisionExact nothing changes anywhere.
type Precision int

const (
	// PrecisionExact is the default float64 path: IEEE arithmetic with
	// correctly rounded square root and divide, and an exponential within
	// 1 ulp — math.Exp in the portable E_pol kernel, the vector
	// mathx.ExpNeg sequence in the AVX2 one (DESIGN.md §11). The compiled
	// kernels pin the recursive reference at 1e-12 relative.
	PrecisionExact Precision = iota
	// PrecisionLanes evaluates the E_pol transcendentals through the
	// width-4 mathx batch kernels (ExpLanes4/RSqrtLanes4) in float64,
	// accumulating in scalar order. Per-term arithmetic and summation
	// order are IDENTICAL to the scalar approximate-math compiled path
	// (Params.Math = Approximate), so single-threaded results are
	// bit-for-bit equal to it — the paper's approximate-math accuracy
	// class (~1e-4), laned for speed.
	PrecisionLanes
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == PrecisionLanes {
		return "lanes"
	}
	return "exact"
}

// ParsePrecision parses a -precision flag value ("" and "exact" mean the
// default exact tier). "f32" names a tier that was removed — slower than the
// exact tier it approximated, and outside its error budget under rigid
// re-poses (EXPERIMENTS.md "Deletion round 2") — and is refused like any
// unknown value, pointing at lanes.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "exact":
		return PrecisionExact, nil
	case "lanes", "approx-lanes":
		return PrecisionLanes, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (want exact|lanes)", s)
}

// KernelISA reports the instruction set the compiled kernels execute on:
// "avx2+fma" when the runtime-detected assembly (simd_amd64.s) is active —
// every tier's E_pol stream kernel, the exact tier's included, and the
// laned tier's Born near blocks dispatch on the one switch — "portable"
// otherwise (other architectures, older CPUs, -tags purego).
func KernelISA() string {
	if useAsmKernels {
		return "avx2+fma"
	}
	return "portable"
}

// kernelTier is the resolved arithmetic of one compiled kernel sweep:
// Params.Precision overrides Params.Math on the compiled path (the laned
// tier is in the approximate-math accuracy class), while
// PrecisionExact preserves the historical Math toggle.
type kernelTier int

const (
	tierExact kernelTier = iota
	tierApprox
	tierLanes
)

// tier resolves the compiled-kernel arithmetic from the parameters.
func (p Params) tier() kernelTier {
	if p.Precision == PrecisionLanes {
		return tierLanes
	}
	if p.Math == mathx.Approximate {
		return tierApprox
	}
	return tierExact
}

// mathMode is the scalar-kernel mode consistent with the tier: the laned
// precision tier belongs to the approximate-math class, so the
// Born-radius inversion (k.Cbrt in PushIntegralsToAtoms) and any scalar
// remainder work use the fast kernels with it.
func (p Params) mathMode() mathx.Mode {
	if p.Precision != PrecisionExact {
		return mathx.Approximate
	}
	return p.Math
}
