package core

import (
	"math"

	"gbpolar/internal/mathx"
)

// The per-entry E_pol kernels the gather-then-stream driver
// (kernels_stream.go) replaced, kept verbatim as test oracles: one kernel
// call per Near/Sym entry and per far entry, the exact tier's expSkip
// branch included. kernels_stream_test.go holds the driver to them entry
// for entry — energy to 1e-12 and Ops exactly. Portable
// Go only: the old per-entry assembly wrappers are gone with their
// callers. Beside them, the scalar approximate-math stream kernel the laned
// tier's portable kernel is bit for bit (epolStreamApprox).

// epolOracle is an EpolContext plus the tables only the old kernels read.
type epolOracle struct {
	*EpolContext
	invRadii []float64 // 1/Radii[i]
	inv4rr   []float64 // 1/(4·rr[k])
}

func newEpolOracle(ctx *EpolContext) *epolOracle {
	o := &epolOracle{EpolContext: ctx, invRadii: make([]float64, len(ctx.Radii)), inv4rr: make([]float64, len(ctx.rr))}
	for i, r := range ctx.Radii {
		o.invRadii[i] = 1 / r
	}
	for k, rr := range ctx.rr {
		o.inv4rr[k] = 1 / (4 * rr)
	}
	return o
}

// expSkip is the old exact kernels' f_GB shortcut threshold: when
// r² ≥ 160·R_uR_v the smoothing term R_uR_v·exp(−r²/4R_uR_v) is below
// e⁻⁴⁰/160 ≈ 2.7·10⁻²⁰ of r² — far under half an ulp — so f² rounds to r²
// BITWISE and skipping the exp call changes no bit
// (TestExpSkipBitwiseNeutral). Measured on the ledger's 20 000-atom
// fixture at ε = 0.9 it fired on 0 of 19.66 M near pairs and 1.4 % of
// 8.05 M far terms, so the stream kernels carry no such branch.
const expSkip = 160.0

// epolRow evaluates one compiled E_pol row (an atom leaf V) into acc:
// near entries are exact ordered pairs (including the diagonal when
// U == V), far entries interact the nonzero-compacted charge histograms
// bin-by-bin (Figure 3). conv is worker-private scratch of len(ctx.rr)
// for the far-field convolution; it must start zeroed and is returned
// zeroed.
func epolRowOracle(ctx *epolOracle, il *rowLists, row int, conv []float64, acc *epolAccum) {
	if ctx.sys.Params.Precision == PrecisionLanes {
		epolRowLanes(ctx, il, row, conv, acc)
		return
	}
	sys := ctx.sys
	t := sys.Atoms
	leaf := il.Rows[row]
	v := &t.Nodes[leaf]

	vlo, vhi := v.Start, v.End
	vx, vy, vz := sys.AtomX[vlo:vhi], sys.AtomY[vlo:vhi], sys.AtomZ[vlo:vhi]
	cv := sys.Charge[vlo:vhi]
	rv := ctx.Radii[vlo:vhi]
	irv := ctx.invRadii[vlo:vhi]

	near := il.Near[il.NearOff[row]:il.NearOff[row+1]]
	for _, ul := range near {
		epolNearBlock(ctx, sys, ul, vx, vy, vz, cv, rv, irv, 1, acc)
		acc.ops += float64(t.Nodes[ul].Count()*v.Count()) + 1
	}
	// Mutual pairs were compiled once (ilist.go): the per-pair GB terms
	// are bitwise symmetric, so one block sweep with weight 2 reproduces
	// both ordered blocks of the recursion (×2 is exact in binary FP).
	sym := il.Sym[il.SymOff[row]:il.SymOff[row+1]]
	for _, ul := range sym {
		epolNearBlock(ctx, sys, ul, vx, vy, vz, cv, rv, irv, 2, acc)
		// Charged for BOTH ordered blocks the sweep represents: Ops counts
		// the pair terms of the near–far decomposition (the quantity the
		// time model and the eps-tradeoff accounting are calibrated on),
		// and the represented work is what stays comparable across paths.
		acc.ops += float64(2*t.Nodes[ul].Count()*v.Count()) + 1
	}

	far := il.Far[il.FarOff[row]:il.FarOff[row+1]]
	if len(far) == 0 {
		return
	}
	farField(ctx, sys, leaf, far, conv, acc)
}

// epolNearBlock sweeps one exact near block: every atom of leaf ul
// against the row leaf's SoA slices, weighted w (1 for one-directional
// blocks and the diagonal, 2 for mutual pairs compiled once).
func epolNearBlock(ctx *epolOracle, sys *System, ul int32, vx, vy, vz, cv, rv, irv []float64, w float64, acc *epolAccum) {
	// Equal-length hints so the inner loops run bounds-check free.
	vy, vz = vy[:len(vx)], vz[:len(vx)]
	cv, rv, irv = cv[:len(vx)], rv[:len(vx)], irv[:len(vx)]
	u := &sys.Atoms.Nodes[ul]
	for ui := u.Start; ui < u.End; ui++ {
		pux, puy, puz := sys.AtomX[ui], sys.AtomY[ui], sys.AtomZ[ui]
		qu := w * sys.Charge[ui]
		ru := ctx.Radii[ui]
		var s float64
		inv4ru := 0.25 * ctx.invRadii[ui]
		for j := range vx {
			dx, dy, dz := pux-vx[j], puy-vy[j], puz-vz[j]
			r2 := dx*dx + dy*dy + dz*dz
			rr := ru * rv[j]
			f2 := r2
			if r2 < expSkip*rr {
				f2 = r2 + rr*math.Exp(-r2*inv4ru*irv[j])
			}
			s += cv[j] / math.Sqrt(f2)
		}
		acc.energy += qu * s
	}
}

// farField interacts the row leaf's nonzero-compacted charge histogram
// with each far node's (Figure 3's far branch). The f_GB surrogate
// R_min²(1+ε)^{i+j} depends on the bins only through the SUM i+j, so the
// charge products are first folded into conv[k] = Σ_{i+j=k} q_i·q_j (a
// small convolution of the two nonzero-bin lists) and the transcendental
// kernel runs once per occupied k instead of once per bin pair. With the
// expSkip shortcut the kernel for most far pairs degenerates to a single
// 1/√d² per k.
func farField(ctx *epolOracle, sys *System, leaf int32, far []int32, conv []float64, acc *epolAccum) {
	vcx, vcy, vcz := sys.ANodeX[leaf], sys.ANodeY[leaf], sys.ANodeZ[leaf]
	vb := ctx.nzBin[ctx.nzOff[leaf]:ctx.nzOff[leaf+1]]
	vq := ctx.nzQ[ctx.nzOff[leaf]:ctx.nzOff[leaf+1]]
	if len(vb) == 0 { // no populated bins: charges can cancel bin-wise
		acc.ops += float64(len(far))
		return
	}
	for _, un := range far {
		dx := sys.ANodeX[un] - vcx
		dy := sys.ANodeY[un] - vcy
		dz := sys.ANodeZ[un] - vcz
		d2 := dx*dx + dy*dy + dz*dz
		ub := ctx.nzBin[ctx.nzOff[un]:ctx.nzOff[un+1]]
		uq := ctx.nzQ[ctx.nzOff[un]:ctx.nzOff[un+1]]
		if len(ub) == 0 {
			acc.ops++
			continue
		}
		// Bins are stored in ascending order, so the occupied sums span
		// [ub[0]+vb[0], ub[last]+vb[last]] — a handful of entries.
		klo := ub[0] + vb[0]
		khi := ub[len(ub)-1] + vb[len(vb)-1]
		for i := range ub {
			qi, bi := uq[i], ub[i]
			for j := range vb {
				conv[bi+vb[j]] += qi * vq[j]
			}
		}
		var s float64
		for k := klo; k <= khi; k++ {
			w := conv[k]
			if w == 0 {
				continue
			}
			rr := ctx.rr[k]
			f2 := d2
			if d2 < expSkip*rr {
				f2 = d2 + rr*math.Exp(-d2*ctx.inv4rr[k])
			}
			s += w / math.Sqrt(f2)
		}
		for k := klo; k <= khi; k++ {
			conv[k] = 0
		}
		acc.energy += s
		acc.ops += float64(len(ub)*len(vb)) + 1
	}
}

// epolRowLanes is epolRow for the laned tier: same row scaffolding,
// lane-blocked near/sym/far kernels.
func epolRowLanes(ctx *epolOracle, il *rowLists, row int, conv []float64, acc *epolAccum) {
	sys := ctx.sys
	t := sys.Atoms
	leaf := il.Rows[row]
	v := &t.Nodes[leaf]

	vlo, vhi := v.Start, v.End
	vx, vy, vz := sys.AtomX[vlo:vhi], sys.AtomY[vlo:vhi], sys.AtomZ[vlo:vhi]
	cv := sys.Charge[vlo:vhi]
	rv := ctx.Radii[vlo:vhi]
	near := il.Near[il.NearOff[row]:il.NearOff[row+1]]
	for _, ul := range near {
		epolNearBlockLanes(ctx, sys, ul, vx, vy, vz, cv, rv, 1, acc)
		acc.ops += float64(t.Nodes[ul].Count()*v.Count()) + 1
	}
	sym := il.Sym[il.SymOff[row]:il.SymOff[row+1]]
	for _, ul := range sym {
		epolNearBlockLanes(ctx, sys, ul, vx, vy, vz, cv, rv, 2, acc)
		acc.ops += float64(2*t.Nodes[ul].Count()*v.Count()) + 1
	}

	far := il.Far[il.FarOff[row]:il.FarOff[row+1]]
	if len(far) == 0 {
		return
	}
	farFieldLanes(ctx, sys, leaf, far, conv, acc)
}

// epolNearBlockLanes sweeps one near block in width-4 lanes: distances
// and f_GB exponents are gathered into lane buffers, the exponential and
// reciprocal square root run as four independent chains, and the four
// charge-weighted terms are added in scalar index order.
func epolNearBlockLanes(ctx *epolOracle, sys *System, ul int32, vx, vy, vz, cv, rv []float64, w float64, acc *epolAccum) {
	// Equal-length hints so the inner loops run bounds-check free.
	vy, vz = vy[:len(vx)], vz[:len(vx)]
	cv, rv = cv[:len(vx)], rv[:len(vx)]
	n := len(vx)
	nb := n &^ (mathx.LaneWidth - 1)
	u := &sys.Atoms.Nodes[ul]
	for ui := u.Start; ui < u.End; ui++ {
		pux, puy, puz := sys.AtomX[ui], sys.AtomY[ui], sys.AtomZ[ui]
		qu := w * sys.Charge[ui]
		ru := ctx.Radii[ui]
		var s float64
		var r2l, rrl, fl [mathx.LaneWidth]float64
		for j := 0; j < nb; j += mathx.LaneWidth {
			for l := 0; l < mathx.LaneWidth; l++ {
				dx, dy, dz := pux-vx[j+l], puy-vy[j+l], puz-vz[j+l]
				r2 := dx*dx + dy*dy + dz*dz
				rr := ru * rv[j+l]
				r2l[l], rrl[l] = r2, rr
				fl[l] = -r2 / (4 * rr)
			}
			mathx.ExpLanes4(&fl)
			for l := 0; l < mathx.LaneWidth; l++ {
				fl[l] = r2l[l] + rrl[l]*fl[l]
			}
			mathx.RSqrtLanes4(&fl)
			// Sequential adds in lane order keep the sum bit-identical to
			// the scalar sweep.
			s += cv[j] * fl[0]
			s += cv[j+1] * fl[1]
			s += cv[j+2] * fl[2]
			s += cv[j+3] * fl[3]
		}
		for j := nb; j < n; j++ {
			dx, dy, dz := pux-vx[j], puy-vy[j], puz-vz[j]
			r2 := dx*dx + dy*dy + dz*dz
			rr := ru * rv[j]
			f2 := r2 + rr*mathx.Exp(-r2/(4*rr))
			s += cv[j] * mathx.RSqrt(f2)
		}
		acc.energy += qu * s
	}
}

// farFieldLanes is the far-field convolution with the per-occupied-k
// kernel evaluations streamed through width-4 lane buffers (ascending k,
// scalar-order epilogue — the same bit-compatibility argument as the
// near blocks). The occupied-k runs are short (a handful of bins), so
// most of the work lands in the scalar peel; the lanes matter for wide
// Born-radius spectra where M_ε grows.
func farFieldLanes(ctx *epolOracle, sys *System, leaf int32, far []int32, conv []float64, acc *epolAccum) {
	vcx, vcy, vcz := sys.ANodeX[leaf], sys.ANodeY[leaf], sys.ANodeZ[leaf]
	vb := ctx.nzBin[ctx.nzOff[leaf]:ctx.nzOff[leaf+1]]
	vq := ctx.nzQ[ctx.nzOff[leaf]:ctx.nzOff[leaf+1]]
	if len(vb) == 0 {
		acc.ops += float64(len(far))
		return
	}
	for _, un := range far {
		dx := sys.ANodeX[un] - vcx
		dy := sys.ANodeY[un] - vcy
		dz := sys.ANodeZ[un] - vcz
		d2 := dx*dx + dy*dy + dz*dz
		ub := ctx.nzBin[ctx.nzOff[un]:ctx.nzOff[un+1]]
		uq := ctx.nzQ[ctx.nzOff[un]:ctx.nzOff[un+1]]
		if len(ub) == 0 {
			acc.ops++
			continue
		}
		klo := ub[0] + vb[0]
		khi := ub[len(ub)-1] + vb[len(vb)-1]
		for i := range ub {
			qi, bi := uq[i], ub[i]
			for j := range vb {
				conv[bi+vb[j]] += qi * vq[j]
			}
		}
		var s float64
		var wl, rrl, fl [mathx.LaneWidth]float64
		nl := 0
		for k := klo; k <= khi; k++ {
			w := conv[k]
			if w == 0 {
				continue
			}
			rr := ctx.rr[k]
			wl[nl], rrl[nl] = w, rr
			fl[nl] = -d2 / (4 * rr)
			nl++
			if nl < mathx.LaneWidth {
				continue
			}
			nl = 0
			mathx.ExpLanes4(&fl)
			for l := 0; l < mathx.LaneWidth; l++ {
				fl[l] = d2 + rrl[l]*fl[l]
			}
			mathx.RSqrtLanes4(&fl)
			s += wl[0] * fl[0]
			s += wl[1] * fl[1]
			s += wl[2] * fl[2]
			s += wl[3] * fl[3]
		}
		for l := 0; l < nl; l++ {
			f2 := d2 + rrl[l]*mathx.Exp(fl[l])
			s += wl[l] * mathx.RSqrt(f2)
		}
		for k := klo; k <= khi; k++ {
			conv[k] = 0
		}
		acc.energy += s
		acc.ops += float64(len(ub)*len(vb)) + 1
	}
}

// epolStreamApprox is the scalar approximate-math stream kernel — the
// compiled sweep of the retired approximate tier, and the oracle the laned
// tier's portable kernel is bit for bit (TestLanesTierBitCompatible): the
// recursion's own operands through mathx.Exp and mathx.RSqrt, one running
// sum per outer atom.
func epolStreamApprox(o, s *soa) float64 {
	sx := s.x
	sy, sz, sq, sr := s.y[:len(sx)], s.z[:len(sx)], s.q[:len(sx)], s.r[:len(sx)]
	var e float64
	for a, ox := range o.x {
		oy, oz, ro := o.y[a], o.z[a], o.r[a]
		var sum float64
		for i := range sx {
			dx, dy, dz := ox-sx[i], oy-sy[i], oz-sz[i]
			r2 := dx*dx + dy*dy + dz*dz
			rr := ro * sr[i]
			sum += sq[i] * mathx.RSqrt(r2+rr*mathx.Exp(-r2/(4*rr)))
		}
		e += o.q[a] * sum
	}
	return e
}
