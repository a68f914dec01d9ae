package core

import (
	"math"

	"gbpolar/internal/gbmodels"
	"gbpolar/internal/mathx"
	"gbpolar/internal/octree"
)

// EpolContext holds the precomputed state of Figure 3's APPROX-EPOL:
// Born radii per atom slot and, for every atoms-octree node U, the
// charge histogram q_U[k] binned by Born radius in logarithmic bins of
// ratio (1+ε) — q_U[k] = Σ q_u over atoms u under U whose Born radius
// falls in [R_min(1+ε)^k, R_min(1+ε)^{k+1}).
type EpolContext struct {
	sys *System
	// Radii holds Born radii in atom slot order.
	Radii []float64
	// MEps is the bin count M_ε = ⌈log_{1+ε}(R_max/R_min)⌉.
	MEps int
	// RMin and RMax are the Born-radius extremes over all atoms.
	RMin, RMax float64
	// hist[n] is q_U[·] for node n.
	hist [][]float64
	// nzOff/nzBin/nzQ are the histograms compacted to their nonzero bins
	// (CSR over nodes): node n's populated bins are nzBin[nzOff[n]:
	// nzOff[n+1]] with charges nzQ[...]. The compiled far-field kernel
	// (kernels.go) sweeps these instead of testing every bin for zero.
	nzOff []int32
	nzBin []int32
	nzQ   []float64
	// rr[k] = R_min²·(1+ε)^k for k < 2·MEps: the R_u·R_v surrogate of
	// the far-field kernel, indexed by i+j.
	rr []float64
	// aLo[n], aHi[n] are node n's atom slot range (Nodes[n].Start/End) as
	// flat tables: the near gather of the compiled sweep reads two of them
	// per list entry, and an 80-byte Node per entry would miss where these
	// hit. A LEAF's range is also its block of the blocked atoms source
	// (kernels_stream.go); an internal node's spans several blocks.
	aLo, aHi []int32
	// farFactor is (1 + 2/ε); nodes are far when dist > (r_U+r_V)·farFactor.
	farFactor float64
	lnBase    float64
	tau       float64
	// kern holds the scalar math kernels resolved ONCE at context build —
	// the recursive path hoists these function values into locals at row
	// start instead of re-resolving (and indirect-calling) per pair.
	kern mathx.Kernels
	// stream is what the row driver reads of the precision tier: gather
	// sources and the stream kernel (kernels_stream.go).
	stream epolTier
}

// epolFarFactor is the E_pol opening multiplier (1 + 2/ε) of Figure 3's
// far-field test; ε = 0 disables the far field entirely. Shared by
// NewEpolContext and the interaction-list compiler so both classify
// identically.
func epolFarFactor(eps float64) float64 {
	if eps <= 0 {
		return math.Inf(1)
	}
	return 1 + 2/eps
}

// binOf returns the histogram bin of a Born radius.
func (ctx *EpolContext) binOf(r float64) int {
	if ctx.MEps == 1 || ctx.lnBase == 0 {
		return 0
	}
	k := int(math.Log(r/ctx.RMin) / ctx.lnBase)
	if k < 0 {
		k = 0
	}
	if k >= ctx.MEps {
		k = ctx.MEps - 1
	}
	return k
}

// NewEpolContext builds the histograms (bottom-up over the linearized
// tree: leaves sum their atoms, internal nodes sum their children) and
// the bin-product table.
func NewEpolContext(sys *System, slotRadii []float64) *EpolContext {
	eps := sys.Params.EpsEpol
	ctx := &EpolContext{
		sys:   sys,
		Radii: slotRadii,
		tau:   gbmodels.Tau(sys.Params.EpsSolv),
	}
	ctx.RMin, ctx.RMax = slotRadii[0], slotRadii[0]
	for _, r := range slotRadii {
		if r < ctx.RMin {
			ctx.RMin = r
		}
		if r > ctx.RMax {
			ctx.RMax = r
		}
	}
	ctx.farFactor = epolFarFactor(eps)
	if eps <= 0 {
		// ε = 0 disables the far field entirely (see macFactor); a single
		// bin keeps the structures well-formed.
		ctx.MEps = 1
	} else {
		ctx.MEps = int(math.Ceil(math.Log(ctx.RMax/ctx.RMin)/math.Log(1+eps))) + 1
		if ctx.MEps < 1 {
			ctx.MEps = 1
		}
		// Tiny ε would explode the bin count, but it also pushes the
		// far-field threshold (1+2/ε) so far out that the bins are never
		// consulted — cap them. (1+ε)^256 covers any physical R range
		// for every ε where the far field can actually fire.
		if ctx.MEps > 256 {
			ctx.MEps = 256
		}
	}

	ctx.lnBase = math.Log(1 + eps)

	t := sys.Atoms
	ctx.hist = make([][]float64, t.NumNodes())
	flat := make([]float64, t.NumNodes()*ctx.MEps)
	for i := range ctx.hist {
		ctx.hist[i] = flat[i*ctx.MEps : (i+1)*ctx.MEps]
	}
	for i := t.NumNodes() - 1; i >= 0; i-- {
		n := &t.Nodes[i]
		h := ctx.hist[i]
		if n.IsLeaf {
			for s := n.Start; s < n.End; s++ {
				h[ctx.binOf(slotRadii[s])] += sys.Charge[s]
			}
			continue
		}
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			for k, v := range ctx.hist[c] {
				h[k] += v
			}
		}
	}

	// Compact the histograms to their nonzero bins: proteins bin charges
	// into a handful of the M_ε bins per node, so the far-field double
	// loop over (i, j) wastes most iterations on the zero test. The CSR
	// form lets the compiled kernel touch populated bins only.
	ctx.nzOff = make([]int32, t.NumNodes()+1)
	nnz := 0
	for _, h := range ctx.hist {
		for _, q := range h {
			if q != 0 {
				nnz++
			}
		}
	}
	ctx.nzBin = make([]int32, nnz)
	ctx.nzQ = make([]float64, nnz)
	at := int32(0)
	for n, h := range ctx.hist {
		ctx.nzOff[n] = at
		for k, q := range h {
			if q != 0 {
				ctx.nzBin[at] = int32(k)
				ctx.nzQ[at] = q
				at++
			}
		}
	}
	ctx.nzOff[t.NumNodes()] = at

	ctx.rr = make([]float64, 2*ctx.MEps-1)
	for k := range ctx.rr {
		ctx.rr[k] = ctx.RMin * ctx.RMin * math.Pow(1+eps, float64(k))
	}
	ctx.kern = sys.kern()
	ctx.aLo, ctx.aHi = make([]int32, t.NumNodes()), make([]int32, t.NumNodes())
	for n := range t.Nodes {
		ctx.aLo[n], ctx.aHi[n] = t.Nodes[n].Start, t.Nodes[n].End
	}

	// The operands of the compiled sweep (kernels_stream.go): the atoms,
	// and every node's occupied bins as pseudo-atoms — node n's bin b is a
	// charge q_n[b] of Born radius ρ_b = R_min(1+ε)^b at the node's center,
	// ρ_i·ρ_j being the far field's R_uR_v surrogate rr[i+j]. The
	// reciprocal radii let the exact tier's kernel form the f_GB exponent
	// by multiplication instead of a per-pair divide.
	rho := make([]float64, ctx.MEps)
	for b := range rho {
		rho[b] = ctx.RMin * math.Pow(1+eps, float64(b))
	}
	gather := (*soa).gather
	if useAsmKernels {
		gather = gatherAsm
	}
	sweep, sweepAsm := epolStreamExact, epolStreamExactAsm
	if sys.Params.Precision == PrecisionLanes {
		sweep, sweepAsm = epolStreamLanes, epolStreamLanesAsm
	}
	if useAsmKernels {
		sweep = sweepAsm
	}
	ctx.stream = newEpolTier(ctx, rho, gather, sweep)
	return ctx
}

// epolAccum is one worker's energy accumulator. The runners hold them in
// a contiguous `[]epolAccum`, with adjacent workers hammering energy/ops
// on every kernel evaluation — its eight floats fill exactly one 64-byte
// cache line, so neighbours never false-share
// (TestAccumulatorsCacheLineSized pins the size).
type epolAccum struct {
	energy float64 // Σ q_u·q_v/f_GB over ordered pairs (prefactor applied later)
	workMeter
	// What the compiled sweep streamed (kernels_stream.go), added up once
	// per row: near pair terms and far bin-pair terms evaluated, atoms and
	// pseudo-atoms gathered and the list entries they were gathered for.
	nearTerms, farTerms, gatherAtoms, gatherSpans float64
}

// ApproxEpol runs Figure 3's APPROX-EPOL for the atoms-octree leaf V
// against the subtree rooted at U, accumulating the raw pair sum
// Σ q_u q_v / f_GB into acc (the −τ/2 prefactor is applied by the
// caller after reduction).
func ApproxEpol(ctx *EpolContext, uNode, vLeaf int32, acc *epolAccum) {
	sys := ctx.sys
	t := sys.Atoms
	u := &t.Nodes[uNode]
	v := &t.Nodes[vLeaf]
	acc.ops++

	if u.IsLeaf {
		// Exact value: every ordered pair (u-atom, v-atom), including the
		// diagonal when U == V (f_GB(a,a) = R_a). The kernel function
		// values are hoisted out of the pair loops: ctx.kern is resolved
		// once per context, and the locals let the approximate path spend
		// its per-pair cost on arithmetic, not interface dispatch.
		exp, rsqrt := ctx.kern.Exp, ctx.kern.RSqrt
		for ui := u.Start; ui < u.End; ui++ {
			pu := t.Pts[ui]
			qu := sys.Charge[ui]
			ru := ctx.Radii[ui]
			var s float64
			for vi := v.Start; vi < v.End; vi++ {
				r2 := pu.Dist2(t.Pts[vi])
				rr := ru * ctx.Radii[vi]
				f2 := r2 + rr*exp(-r2/(4*rr))
				s += sys.Charge[vi] * rsqrt(f2)
			}
			acc.energy += qu * s
		}
		acc.ops += float64(u.Count() * v.Count())
		return
	}

	_, d2, far := farSeparated(v.Center, u.Center, v.Radius, u.Radius, ctx.farFactor)
	if far {
		// Far enough: interact the charge histograms bin-by-bin, using
		// R_min²(1+ε)^{i+j} as the R_u·R_v surrogate.
		exp, rsqrt := ctx.kern.Exp, ctx.kern.RSqrt
		hu, hv := ctx.hist[uNode], ctx.hist[vLeaf]
		var s float64
		for i, qi := range hu {
			if qi == 0 {
				continue
			}
			for j, qj := range hv {
				if qj == 0 {
					continue
				}
				rr := ctx.rr[i+j]
				f2 := d2 + rr*exp(-d2/(4*rr))
				s += qi * qj * rsqrt(f2)
				acc.ops++
			}
		}
		acc.energy += s
		return
	}
	for _, child := range u.Children {
		if child != octree.NoChild {
			ApproxEpol(ctx, child, vLeaf, acc)
		}
	}
}

// Finish converts the accumulated raw pair sum into E_pol in kcal/mol.
func (ctx *EpolContext) Finish(rawSum float64) float64 {
	return -0.5 * ctx.tau * rawSum
}

// newEpolTier builds a tier's two blocked gather sources (kernels_stream.go)
// from the context's state (rho[b] is ρ_b) and attaches the gather and the
// stream kernel.
func newEpolTier(ctx *EpolContext, rho []float64, gather gatherFunc, sweep func(o, s *soa) float64) epolTier {
	sys := ctx.sys
	tk := epolTier{
		atoms:  make([]float64, srcFields*len(ctx.Radii)+gatherPad),
		bins:   make([]float64, srcFields*len(ctx.nzQ)+gatherPad),
		gather: gather, sweep: sweep,
	}
	for _, leaf := range sys.Atoms.Leaves() {
		lo, c := int(ctx.aLo[leaf]), int(ctx.aHi[leaf]-ctx.aLo[leaf])
		for i := 0; i < c; i++ {
			s := lo + i
			putElem(tk.atoms[srcFields*lo:], c, i, sys.AtomX[s], sys.AtomY[s], sys.AtomZ[s], sys.Charge[s], ctx.Radii[s])
		}
	}
	for n := range ctx.aLo {
		lo, c := int(ctx.nzOff[n]), int(ctx.nzOff[n+1]-ctx.nzOff[n])
		for i := 0; i < c; i++ {
			putElem(tk.bins[srcFields*lo:], c, i, sys.ANodeX[n], sys.ANodeY[n], sys.ANodeZ[n], ctx.nzQ[lo+i], rho[ctx.nzBin[lo+i]])
		}
	}
	return tk
}
