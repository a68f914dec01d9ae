package mathx

import "math"

// ExpNeg returns e^x for x in (−∞, 0] with an error of at most 1 ulp
// (TestExpNegWithinOneULP measures the maximum against a math/big
// reference over 2²⁴ stratified samples, every binade edge and the
// underflow range: 0.875 ulp where the result is normal, 0.891 below).
// It is the portable, per-lane reference of the vector exponential inside
// the exact tier's AVX2 stream kernel (internal/core/simd_amd64.s,
// EXPNEG4): every step below is one IEEE operation the assembly performs
// on four lanes at once — FMA where written, round-half-even, exponent-bit
// scaling — so the two agree BITWISE (core.TestExpNegAsmMatchesPortable).
//
// Method: k = rint(x·log₂e); r = x − k·ln2 by two FMAs against the hi/lo
// split of ln 2 (the first is exact, the second rounds once, |r| ≤ 0.3466);
// e^r by the degree-13 Taylor polynomial in Horner form, one FMA per
// coefficient (truncation < 0.04 ulp; the last two FMAs contribute 0.5 and
// ≤ 0.18 ulp, the reduction's rounding ≤ 0.19); the 2^k scaling is split in
// two so a subnormal result rounds once. NaN propagates, −Inf and every
// x < −745.14 give 0, ±0 gives 1. Arguments above 0 are outside the tested
// range.
func ExpNeg(x float64) float64 {
	c := &ExpNegConsts
	if x < c[0] {
		x = c[0]
	}
	kf := math.RoundToEven(x * c[1])
	r := math.FMA(kf, c[2], x)
	r = math.FMA(kf, c[3], r)
	p := c[4]
	for _, ci := range c[5:] {
		p = math.FMA(p, r, ci)
	}
	k := int32(kf)
	k1 := k >> 1
	return p * pow2(k1) * pow2(k-k1)
}

// ExpNegConsts are ExpNeg's constants in the order it consumes them —
// read-only, exported so the assembly's operand table is built from the
// same float64s (core.expNegTab):
//
//	[0]   −746, the argument clamp: keeps k ≥ −1077 so both half-scales
//	      stay normal; e^x is below half the smallest subnormal there
//	[1]   log₂e
//	[2:4] −ln2 split hi, lo (hi = float64(ln 2))
//	[4:]  1/13!, 1/12!, …, 1/1!, 1/0!: the Taylor coefficients in Horner
//	      order
var ExpNegConsts = [18]float64{
	-746,
	1.4426950408889634,      // 0x1.71547652b82fep+0
	-0.6931471805599453,     // -0x1.62e42fefa39efp-1
	-2.3190468138462996e-17, // -0x1.abc9e3b39803fp-56
	1.0 / 6227020800, 1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800,
	1.0 / 362880, 1.0 / 40320, 1.0 / 5040, 1.0 / 720,
	1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1, 1,
}

// pow2 returns 2^k for −1022 ≤ k ≤ 1023 by assembling the exponent field.
func pow2(k int32) float64 {
	return math.Float64frombits(uint64(int64(k)+1023) << 52)
}
