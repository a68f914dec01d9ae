//go:build amd64 && !purego

package core

import (
	"math"
	"math/rand"
	"testing"

	"gbpolar/internal/mathx"
)

// The exact tier's vector exponential (EXPNEG4 in simd_amd64.s) is
// mathx.ExpNeg on four lanes: the same IEEE operation sequence, so the
// same bits — which is what carries ExpNeg's measured ≤1-ulp bound
// (mathx.TestExpNegWithinOneULP, 2²⁴ samples against math/big) over to
// the assembly. 2²² stratified arguments of (−746, 0], every binade edge,
// the underflow range and the special values.
func TestExpNegAsmMatchesPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(13))
	var xs []float64
	const strata = 1 << 12
	for s := 0; s < strata; s++ {
		for i := 0; i < 1<<10; i++ {
			xs = append(xs, -746*(float64(s)+rng.Float64())/strata)
		}
	}
	for e := -1074; e <= 9; e++ {
		x := -math.Ldexp(1, e)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(-1)))
	}
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, -708-38*rng.Float64(), -math.Ldexp(1+rng.Float64(), rng.Intn(70)-60))
	}
	xs = append(xs, 0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), -745.1332191019411, -745.1332191019412, -746, -1e300)
	for len(xs)%4 != 0 {
		xs = append(xs, -1)
	}
	got := make([]float64, len(xs))
	expNeg4(got, xs)
	for i, x := range xs {
		want := mathx.ExpNeg(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] != got[i] && want != want) {
			t.Fatalf("x = %v (lane %d): asm %v (%x), mathx.ExpNeg %v (%x)", x, i%4, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	t.Logf("%d arguments bit-identical", len(xs))
}
