package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// sweepD2 returns log-spaced squared distances covering the operand range
// the GB kernels actually produce: from sub-Å contact pairs to the full
// diagonal of a virus-shell octree (~1000 Å), i.e. d² from 1e-4 to 1e6 Å².
func sweepD2(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		e := -4 + 10*float64(i)/float64(n-1) // 10^-4 .. 10^+6
		out[i] = math.Pow(10, e)
	}
	return out
}

// maxRelErr sweeps f against ref and returns the max relative error.
func maxRelErr(xs []float64, f, ref func(float64) float64) float64 {
	var worst float64
	for _, x := range xs {
		if e := relErr(f(x), ref(x)); e > worst {
			worst = e
		}
	}
	return worst
}

// The documented accuracy bounds of the scalar fast kernels, swept over
// the operand ranges the energy kernels produce (not just random points):
// Exp sees -d²/(4·R_uR_v) ∈ [-40, 0] thanks to the expSkip threshold,
// RSqrt sees f_GB² ∈ [d²_min, d²_max + R²], Cbrt sees the r⁻³ integral
// inversion operands. These pins are what DESIGN.md §11 cites.
func TestScalarKernelAccuracyOverKernelRanges(t *testing.T) {
	d2 := sweepD2(4000)

	// Exp operands: -d²/(4rr) for rr ∈ {1, 10, 100} Å², clipped to the
	// range the expSkip shortcut leaves live (≥ -40).
	var expWorst float64
	for _, rr := range []float64{1, 10, 100} {
		for _, d := range d2 {
			x := -d / (4 * rr)
			if x < -40 {
				continue
			}
			if e := relErr(Exp(x), math.Exp(x)); e > expWorst {
				expWorst = e
			}
		}
	}
	if expWorst > 1e-4 {
		t.Errorf("Exp worst relative error %.3g over kernel range, documented bound 1e-4", expWorst)
	}

	rsqrtWorst := maxRelErr(d2, RSqrt, func(x float64) float64 { return 1 / math.Sqrt(x) })
	if rsqrtWorst > 1e-6 {
		t.Errorf("RSqrt worst relative error %.3g over kernel range, documented bound 1e-6", rsqrtWorst)
	}

	cbrtWorst := maxRelErr(d2, Cbrt, math.Cbrt)
	if cbrtWorst > 1e-9 {
		t.Errorf("Cbrt worst relative error %.3g over kernel range, documented bound 1e-9", cbrtWorst)
	}

	t.Logf("scalar kernels over kernel operand range: Exp %.3g, RSqrt %.3g, Cbrt %.3g",
		expWorst, rsqrtWorst, cbrtWorst)
}

// The float64 lane variants must be bit-compatible with their scalar
// counterparts on every operand — the invariant that lets the laned
// approximate tier reproduce the scalar approximate path bit-for-bit.
func TestLanes4BitCompatWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edge := []float64{0, 1, -701, 701, -700, 700, 1e-300, 1e300, 0.5, 2}
	for trial := 0; trial < 5000; trial++ {
		var in [4]float64
		for l := range in {
			if trial < len(edge)/4+3 && rng.Intn(2) == 0 {
				in[l] = edge[rng.Intn(len(edge))]
			} else {
				in[l] = rng.Float64()*120 - 80
			}
		}
		e := in
		ExpLanes4(&e)
		for l := range e {
			if math.Float64bits(e[l]) != math.Float64bits(Exp(in[l])) {
				t.Fatalf("ExpLanes4 lane %d: %g -> %x, scalar %x",
					l, in[l], math.Float64bits(e[l]), math.Float64bits(Exp(in[l])))
			}
		}
		var pos [4]float64
		for l := range pos {
			pos[l] = math.Exp(rng.Float64()*40 - 20)
		}
		r := pos
		RSqrtLanes4(&r)
		c := pos
		CbrtLanes4(&c)
		for l := range r {
			if math.Float64bits(r[l]) != math.Float64bits(RSqrt(pos[l])) {
				t.Fatalf("RSqrtLanes4 lane %d diverges from scalar at %g", l, pos[l])
			}
			if math.Float64bits(c[l]) != math.Float64bits(Cbrt(pos[l])) {
				t.Fatalf("CbrtLanes4 lane %d diverges from scalar at %g", l, pos[l])
			}
		}
	}
}

func BenchmarkExpLanes4(b *testing.B) {
	in := [4]float64{-0.3, -1.7, -4.2, -9.8}
	var s float64
	for i := 0; i < b.N; i++ {
		x := in
		ExpLanes4(&x)
		s += x[0] + x[1] + x[2] + x[3]
		in[0] -= 1e-9
	}
	_ = s
}

func BenchmarkExpScalar4(b *testing.B) {
	in := [4]float64{-0.3, -1.7, -4.2, -9.8}
	var s float64
	for i := 0; i < b.N; i++ {
		s += Exp(in[0]) + Exp(in[1]) + Exp(in[2]) + Exp(in[3])
		in[0] -= 1e-9
	}
	_ = s
}

func BenchmarkRSqrtLanes4(b *testing.B) {
	in := [4]float64{1.3, 2.7, 14.2, 99.8}
	var s float64
	for i := 0; i < b.N; i++ {
		x := in
		RSqrtLanes4(&x)
		s += x[0] + x[1] + x[2] + x[3]
		in[0] += 1e-9
	}
	_ = s
}
