package mathx

import "math"

// This file holds the batch "lane" variants of the fast kernels: fixed
// width-4 blocks the compiled SoA kernels (internal/core/kernels_stream.go)
// evaluate in place. The lane width matches the padding granularity of the
// System SoA arrays; kernels peel the sub-width remainder with the scalar
// functions.
//
// The lane variants are BIT-COMPATIBLE with their scalar counterparts:
// ExpLanes4 performs, per lane, exactly the operations of Exp, and
// RSqrtLanes4 those of RSqrt, so a laned sweep that accumulates in scalar
// order reproduces the scalar approximate-math path bit-for-bit
// (TestExpLanes4BitCompat / TestRSqrtLanes4BitCompat pin this). The speedup
// comes from instruction-level parallelism — four independent
// polynomial/Newton chains in flight — not from a different algorithm.

// LaneWidth is the fixed SoA lane width of the batch kernels and the
// padding granularity of the System component arrays.
const LaneWidth = 4

// ExpLanes4 evaluates Exp on all four lanes in place. Each lane performs
// exactly the scalar Exp operation sequence (bit-compatible); the four
// range reductions, bit assemblies and Horner chains are independent, so
// they pipeline across lanes.
func ExpLanes4(x *[4]float64) {
	for i := range x {
		v := x[i]
		if v < -700 {
			x[i] = 0
			continue
		}
		if v > 700 {
			x[i] = math.Inf(1)
			continue
		}
		const ln2 = 0.6931471805599453
		const invLn2 = 1.4426950408889634
		kf := math.Floor(v*invLn2 + 0.5)
		k := int64(kf)
		r := v - kf*ln2
		p := 1.0 + r*(1.0+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120+r/720)))))
		x[i] = math.Float64frombits(uint64(k+1023)<<52) * p
	}
}

// RSqrtLanes4 evaluates RSqrt on all four lanes in place, bit-compatible
// per lane with the scalar RSqrt (same seed, same three Newton steps).
func RSqrtLanes4(x *[4]float64) {
	for i := range x {
		v := x[i]
		j := math.Float64bits(v)
		j = 0x5fe6eb50c7b537a9 - (j >> 1)
		y := math.Float64frombits(j)
		half := 0.5 * v
		y = y * (1.5 - half*y*y)
		y = y * (1.5 - half*y*y)
		y = y * (1.5 - half*y*y)
		x[i] = y
	}
}

// CbrtLanes4 evaluates Cbrt on all four lanes in place, bit-compatible
// per lane with the scalar Cbrt.
func CbrtLanes4(x *[4]float64) {
	for i := range x {
		x[i] = Cbrt(x[i])
	}
}
