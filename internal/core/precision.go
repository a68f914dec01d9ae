package core

import "gbpolar/internal/mathx"

// Precision selects the arithmetic tier — the paper's approximate-math
// lever (Section V.E's 1.42×) as two tiers: exact, or approximate math
// evaluated in vector lanes. It restructures the COMPILED warm path, and
// MathMode gives every scalar kernel the tier's accuracy class, so the
// Born-radius inversion, the recursive traversals and the naive reference
// sit in the same class as the compiled sweep. With the default
// PrecisionExact nothing changes anywhere.
type Precision int

const (
	// PrecisionExact is the default float64 path: IEEE arithmetic with
	// correctly rounded square root and divide, and an exponential within
	// 1 ulp — math.Exp in the portable E_pol kernel, the vector
	// mathx.ExpNeg sequence in the AVX2 one (DESIGN.md §11). The compiled
	// kernels pin the recursive reference at 1e-12 relative.
	PrecisionExact Precision = iota
	// PrecisionLanes evaluates the E_pol transcendentals in float64 lanes.
	// The portable kernel runs them through the width-4 mathx batch kernels
	// (ExpLanes4/RSqrtLanes4), accumulating in scalar order: each lane
	// performs the scalar mathx.Exp/mathx.RSqrt sequence, so its row sums
	// are bit for bit those of the scalar approximate-math stream
	// (TestLanesTierBitCompatible). The assembly runs four lanes on AVX2
	// hosts and eight on AVX-512F ones, the same bits either way, within
	// ~1e-11 of the portable kernel — the paper's approximate-math accuracy
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

// KernelISA reports the instruction set the compiled kernels execute on:
// "avx2+fma" when the runtime-detected assembly (simd_amd64.s) is active —
// every tier's E_pol stream kernel and the Born near and shared far sweeps
// dispatch on the one switch — "avx512f+avx2+fma" when the host also runs
// both tiers' AVX-512F stream kernels (each the same bits as its AVX2
// one), "portable" otherwise (other architectures, older CPUs,
// -tags purego).
func KernelISA() string {
	switch {
	case useAsmKernels && useAVX512:
		return "avx512f+avx2+fma"
	case useAsmKernels:
		return "avx2+fma"
	}
	return "portable"
}

// MathMode is the scalar-kernel mode of the tier: mathx.Approximate iff
// PrecisionLanes. The Born-radius inversion (k.Cbrt in
// PushIntegralsToAtoms), the recursive traversals and the naive reference
// (NaiveEnergy) take it, so a run stays in one accuracy class.
func (p Params) MathMode() mathx.Mode {
	if p.Precision == PrecisionLanes {
		return mathx.Approximate
	}
	return mathx.Exact
}
