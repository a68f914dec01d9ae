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
	// nzOff/nzBin/nzQ are the histograms q_U[·], compacted to their
	// nonzero bins (CSR over nodes): node n's populated bins are
	// nzBin[nzOff[n]:nzOff[n+1]], ascending, with charges nzQ[...]. Both
	// far-field kernels read these and no bin that is zero; a node no walk
	// from the root reaches has none.
	nzOff []int32
	nzBin []int32
	nzQ   []float64
	// rr[k] = R_min²·(1+ε)^k for k < 2·MEps: the R_u·R_v surrogate of
	// the far-field kernel, indexed by i+j.
	rr []float64
	// aLo[n], aHi[n] are node n's atom slot range (System.ANodeLo/ANodeHi):
	// the near gather of the compiled sweep reads two of them per list
	// entry. A LEAF's range is also its block of the blocked atoms source
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

// NewEpolContext builds the histograms (histograms) and the bin-product
// table.
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

	bins := make([]uint8, len(slotRadii)) // MEps ≤ 256
	for i, r := range slotRadii {
		bins[i] = uint8(ctx.binOf(r))
	}
	ctx.nzOff, ctx.nzBin, ctx.nzQ = histograms(sys.Atoms, sys.Charge, bins, ctx.MEps)

	ctx.rr = make([]float64, 2*ctx.MEps-1)
	for k := range ctx.rr {
		ctx.rr[k] = ctx.RMin * ctx.RMin * math.Pow(1+eps, float64(k))
	}
	ctx.kern = sys.kern()
	ctx.aLo, ctx.aHi = sys.ANodeLo, sys.ANodeHi

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
	gather, laneGather := (*soa).gather, (*laneStreams).gather
	if useAsmKernels {
		gather, laneGather = gatherAsm, gatherMaskedAsm
	}
	sweep, sweepAsm, sweepAsm8 := epolStreamExact, epolStreamExactAsm, epolStreamExactAsm8
	if sys.Params.Precision == PrecisionLanes {
		sweep, sweepAsm, sweepAsm8 = epolStreamLanes, epolStreamLanesAsm, epolStreamLanesAsm8
	}
	if useAVX512 {
		sweepAsm = sweepAsm8
	}
	if useAsmKernels {
		sweep = sweepAsm
	}
	ctx.stream = newEpolTier(ctx, rho, gather, laneGather, sweep)
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
		vb, vq := ctx.nzBin[ctx.nzOff[vLeaf]:ctx.nzOff[vLeaf+1]], ctx.nzQ[ctx.nzOff[vLeaf]:ctx.nzOff[vLeaf+1]]
		var s float64
		for a := ctx.nzOff[uNode]; a < ctx.nzOff[uNode+1]; a++ {
			i, qi := ctx.nzBin[a], ctx.nzQ[a]
			for j, qj := range vq {
				rr := ctx.rr[i+vb[j]]
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

// histograms returns the charge histograms of t's nodes, each compacted to
// its nonzero bins (EpolContext.nzOff, nzBin, nzQ); slot s holds charge[s]
// in bin bins[s] of m. A walk from the root builds each node's histogram as
// a dense row of m bins — a leaf sums its atoms' charges in slot order, an
// internal node its children's rows in child order — one row a depth, so
// only the rows of one root path are ever held, and writes its nonzero bins
// out as it leaves the node; they are then put in node order. A node no
// walk from the root reaches has none.
func histograms(t *octree.Tree, charge []float64, bins []uint8, m int) (off, bin []int32, q []float64) {
	// A node holds 1.2–1.4 nonzero bins at the ledger's molecules.
	nn := t.NumNodes()
	h := histWalk{t: t, charge: charge, bins: bins, m: m, rows: make([]float64, 0, 32*m),
		bin: make([]int32, 0, nn+nn/2), q: make([]float64, 0, nn+nn/2), at: make([]int32, nn)}
	off = make([]int32, nn+1)
	h.cnt = off[1:]
	h.node(t.Root(), 0)
	for n := range nn {
		off[n+1] += off[n]
	}
	bin, q = make([]int32, len(h.bin)), make([]float64, len(h.q))
	for n := range nn {
		copy(bin[off[n]:off[n+1]], h.bin[h.at[n]:])
		copy(q[off[n]:off[n+1]], h.q[h.at[n]:])
	}
	return off, bin, q
}

// histWalk is histograms' walk: rows[d·m:(d+1)·m] is the row of depth d, and
// node n's nonzero bins, written out as the walk leaves it, are cnt[n]
// entries of bin and q from at[n].
type histWalk struct {
	t       *octree.Tree
	charge  []float64
	bins    []uint8
	m       int
	rows    []float64
	bin     []int32
	q       []float64
	at, cnt []int32
}

// node builds node n's row at depth d and writes its nonzero bins out.
func (h *histWalk) node(n int32, d int) {
	if len(h.rows) < (d+1)*h.m {
		h.rows = append(h.rows, make([]float64, h.m)...)
	}
	row := h.rows[d*h.m : (d+1)*h.m]
	clear(row)
	if nd := &h.t.Nodes[n]; nd.IsLeaf {
		for s := nd.Start; s < nd.End; s++ {
			row[h.bins[s]] += h.charge[s]
		}
	} else {
		for _, c := range nd.Children {
			if c == octree.NoChild {
				continue
			}
			h.node(c, d+1)
			row = h.rows[d*h.m : (d+1)*h.m] // the walk below may have grown rows
			for k, v := range h.rows[(d+1)*h.m : (d+2)*h.m] {
				row[k] += v
			}
		}
	}
	h.at[n] = int32(len(h.bin))
	for k, v := range row {
		if v != 0 {
			h.bin, h.q = append(h.bin, int32(k)), append(h.q, v)
		}
	}
	h.cnt[n] = int32(len(h.bin)) - h.at[n]
}

// Finish converts the accumulated raw pair sum into E_pol in kcal/mol.
func (ctx *EpolContext) Finish(rawSum float64) float64 {
	return -0.5 * ctx.tau * rawSum
}

// newEpolTier builds a tier's two blocked gather sources (kernels_stream.go)
// from the context's state (rho[b] is ρ_b) and attaches the gathers and the
// stream kernel.
func newEpolTier(ctx *EpolContext, rho []float64, gather gatherFunc, laneGather laneGatherFunc, sweep func(o, s *soa) float64) epolTier {
	sys := ctx.sys
	tk := epolTier{
		atoms:  make([]float64, srcFields*len(ctx.Radii)+gatherPad),
		bins:   make([]float64, srcFields*len(ctx.nzQ)+gatherPad),
		gather: gather, laneGather: laneGather, sweep: sweep,
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
