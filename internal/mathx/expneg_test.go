package mathx

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

const bigPrec = 192

var bigLn2, _ = new(big.Float).SetPrec(256).SetString(
	"0.69314718055994530941723212145817656807550013436025525412068000949339362196969471560586332699641868754")

// bigExp returns e^x to ~bigPrec bits: k·ln2 range reduction, 2⁻¹⁰
// argument scaling, Taylor series, ten squarings.
func bigExp(x float64) *big.Float {
	k := math.RoundToEven(x / math.Ln2)
	r := new(big.Float).SetPrec(bigPrec + 32).SetFloat64(k)
	r.Mul(r, bigLn2)
	r.Sub(new(big.Float).SetPrec(bigPrec+32).SetFloat64(x), r)
	r.SetMantExp(r, -10)
	sum := new(big.Float).SetPrec(bigPrec + 32).SetInt64(1)
	term := new(big.Float).SetPrec(bigPrec + 32).SetInt64(1)
	for n := int64(1); n < 40; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
		if term.Sign() == 0 || term.MantExp(nil) < -(bigPrec+40) {
			break
		}
	}
	for i := 0; i < 10; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k)).SetPrec(bigPrec)
}

// ulpErr returns |got − ref| in units of the float64 spacing at ref
// (2⁻¹⁰⁷⁴ throughout the subnormal range and below it). tmp is scratch.
func ulpErr(got float64, ref, tmp *big.Float) float64 {
	e := ref.MantExp(nil) - 1 - 52
	if e < -1074 {
		e = -1074
	}
	tmp.SetPrec(bigPrec).SetFloat64(got)
	tmp.Sub(tmp, ref)
	tmp.SetMantExp(tmp, -e)
	f, _ := tmp.Float64()
	return math.Abs(f)
}

// The ≤1-ulp contract of ExpNeg (DESIGN.md §11) over its whole domain.
// The bulk is 2¹² strata of (−745.2, 0] × 2¹² samples each (2⁸ with
// -short): inside a stratum the samples form an arithmetic progression on
// the 2⁻⁴⁰ grid with a random start and a random odd step, so every x is
// an exact float64 and the reference advances by ONE big multiplication,
// e^(x−δ) = e^x·e^(−δ) — which is what makes 2²⁴ math/big references
// affordable. Full-mantissa inputs, every binade edge and the underflow
// range get a from-scratch reference each.
func TestExpNegWithinOneULP(t *testing.T) {
	const strata = 1 << 12
	steps := 1 << 12
	if testing.Short() {
		steps = 1 << 8
	}
	workers := runtime.GOMAXPROCS(0)
	worst := make([]float64, workers)
	worstX := make([]float64, workers)
	worstNormal := make([]float64, workers) // results ≥ 2⁻¹⁰²²
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			tmp := new(big.Float)
			const grid = 1.0 / (1 << 40)
			width := 745.2 / strata
			for s := w; s < strata; s += workers {
				a := math.Floor((float64(s)+rng.Float64()/2)*width/grid) * grid
				d := (2*math.Floor(width/2/float64(steps)/grid*(0.5+rng.Float64()/2)) + 1) * grid
				ref, step := bigExp(-a), bigExp(-d)
				for j := 0; j < steps; j++ {
					x := -(a + float64(j)*d)
					e := ulpErr(ExpNeg(x), ref, tmp)
					if e > worst[w] {
						worst[w], worstX[w] = e, x
					}
					if e > worstNormal[w] && x > -708.39 {
						worstNormal[w] = e
					}
					ref.Mul(ref, step)
				}
			}
		}(w)
	}
	wg.Wait()
	var max, at, maxNormal float64
	for w := range worst {
		if worst[w] > max {
			max, at = worst[w], worstX[w]
		}
		if worstNormal[w] > maxNormal {
			maxNormal = worstNormal[w]
		}
	}
	n := strata * steps

	check := func(x float64) {
		if e := ulpErr(ExpNeg(x), bigExp(x), new(big.Float)); e > max {
			max, at = e, x
		}
		n++
	}
	// Full-mantissa operands, log-uniform in magnitude down to 2⁻⁶⁰.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<14; i++ {
		check(-math.Ldexp(1+rng.Float64(), rng.Intn(70)-60))
		check(-745.2 * rng.Float64())
	}
	// Every binade edge of the argument and its two neighbours.
	for e := -1074; e <= 9; e++ {
		x := -math.Ldexp(1, e)
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, math.Inf(-1)))
	}
	// The underflow range: results from the last normal binade down to 0,
	// including the round-to-zero boundary ln 2⁻¹⁰⁷⁵ = −745.13….
	for i := 0; i < 1<<14; i++ {
		check(-708 - 38*rng.Float64())
	}
	for _, x := range []float64{-708.3964185322641, -744.4400719213812, -745.1332191019411, -745.1332191019412, -746, -747, -1e300} {
		check(x)
	}
	t.Logf("ExpNeg: max error %.4f ulp at x = %v over %d samples (%.4f ulp over the strata with a normal result)",
		max, at, n, maxNormal)
	if !(max <= 1) {
		t.Errorf("ExpNeg: max error %.4f ulp at x = %v, want ≤ 1", max, at)
	}

	if ExpNeg(0) != 1 || ExpNeg(math.Copysign(0, -1)) != 1 {
		t.Errorf("ExpNeg(±0) = %v, %v, want 1", ExpNeg(0), ExpNeg(math.Copysign(0, -1)))
	}
	if ExpNeg(math.Inf(-1)) != 0 {
		t.Errorf("ExpNeg(-Inf) = %v, want 0", ExpNeg(math.Inf(-1)))
	}
	if v := ExpNeg(math.NaN()); v == v {
		t.Errorf("ExpNeg(NaN) = %v, want NaN", v)
	}
}

// The big reference itself: against math.Exp (< 1 ulp) on a few points.
func TestBigExpReference(t *testing.T) {
	for _, x := range []float64{0, -1e-9, -0.5, -1, -37.25, -700, -744} {
		if e := ulpErr(math.Exp(x), bigExp(x), new(big.Float)); e > 1 {
			t.Errorf("bigExp(%v) is %.2f ulp from math.Exp", x, e)
		}
	}
}
