package core

import (
	"math"

	"gbpolar/internal/mathx"
)

// Gather-then-stream evaluation of the compiled E_pol lists (DESIGN.md
// §6). A compiled row holds hundreds of near leaves of ~2 atoms each and
// hundreds of far nodes of ~2 occupied histogram bins each; a kernel
// called once per entry never leaves its prologue. epolRow instead COPIES
// each row's operands into one worker-private SoA stream and sweeps the
// stream with a single f_GB kernel call, twice per row:
//
//   - near: the stream is the atoms of the row's Near (weight 1) and Sym
//     (weight 2, folded into the charge — ×2 is exact) leaves; the outer
//     operand is the row leaf's own atoms;
//   - far: the far field of Figure 3 IS a near field between binned
//     pseudo-atoms. Its R_uR_v surrogate R_min²(1+ε)^{i+j} factors as
//     ρ_i·ρ_j with ρ_b = R_min(1+ε)^b, so the (i, j) bin-pair term of nodes
//     U, V is exactly f_GB between a pseudo-atom at U's center with charge
//     q_U[i] and Born radius ρ_i and one at V's center with q_V[j], ρ_j.
//     EpolContext lays every node's occupied bins out as such pseudo-atoms
//     (epolTier.bins, one block per node, indexed like nzOff); the stream
//     is the far nodes' pseudo-atoms, the outer operand the row leaf's. No
//     convolution, no second kernel, and every far term is the
//     recursion's own bin-pair term. Moment corrections (FarOrder ≥ 1)
//     stay scalar, one per far entry.
//
// The copy is kept, and made cheap, rather than replaced by kernels that
// walk the entries' ranges in place: an entry is 1–8 atoms, so a
// range-walking kernel issues one half-empty vector iteration per (outer
// atom, entry) — twice the iterations of the packed stream, on kernels
// that are divider-bound per iteration (DESIGN.md §6). What a gather costs
// is set by the layout of its sources: blocked by list entry (below), so
// that one entry is one or two cache lines and one branch-free vector copy.
//
// One driver serves every tier; a tier is its two gather sources, its
// gather and one stream kernel (epolTier). The terms are the recursion's;
// what differs is the ORDER they are summed in (per outer atom over the
// whole stream) and a few ulp per far term (ρ_i·ρ_j against the
// recursion's rr[i+j] table) — both bounded by the 1e-12
// compiled-vs-recursive suite. Op accounting is that of kernels.go, entry
// for entry.

// lane is a stream's element type: float64 on the exact, approximate and
// laned tiers, float32 on the f32 tier.
type lane interface{ ~float32 | ~float64 }

// srcFields is the number of fields of a gather source element and of a
// stream: x, y, z, charge, Born radius, reciprocal radius.
const srcFields = 6

// gatherPad is the slack, in elements, behind a gather source and behind
// every field of a stream: the vector gather (gatherBlocks4, simd_amd64.s)
// copies a span in chunks of four, so the last chunk of a span reads up to
// three elements past the span's run and writes up to three past the
// stream's new end.
const gatherPad = 4

// soa is a structure-of-arrays view of atoms: position, charge, Born
// radius and — float64 tiers only, nil on f32 — reciprocal radius. The
// six fields share one backing array, flat, field f starting at
// f·len(flat)/srcFields; what a gather appends it writes through flat.
type soa[T lane] struct {
	x, y, z, q, r, ir []T
	flat              []T
}

// newSoa allocates an n-atom SoA over one backing array, every field
// followed by gatherPad elements of slack.
func newSoa[T lane](n int, withIR bool) soa[T] {
	st := n + gatherPad
	flat := make([]T, srcFields*st)
	field := func(f int) []T { return flat[f*st : f*st+n : f*st+n] }
	s := soa[T]{x: field(0), y: field(1), z: field(2), q: field(3), r: field(4), flat: flat}
	if withIR {
		s.ir = field(5)
	}
	return s
}

// prefix returns the view of the first n atoms.
func (s *soa[T]) prefix(n int) soa[T] {
	v := soa[T]{x: s.x[:n], y: s.y[:n], z: s.z[:n], q: s.q[:n], r: s.r[:n]}
	if s.ir != nil {
		v.ir = s.ir[:n]
	}
	return v
}

// A gather source is a flat array of elements in BLOCKS: the elements
// [lo, lo+c) of one block store field f of element i at
// srcFields·lo + f·c + i, and gatherPad elements of slack follow the last
// block. A block is what a list entry names — one leaf's atoms, one node's
// occupied bins — so an entry's six short runs are adjacent (one or two
// cache lines for the usual two atoms, where six arrays are six) and each
// run can be read as one vector of four whose surplus lanes are the next
// run's. The atoms source is blocked by the atoms tree's LEAVES: an
// internal node's [aLo, aHi) covers several blocks and is not one, which
// is sound because near and Sym entries and rows are always leaves. The
// bins source is blocked by node (nzOff), far entries being any node.

// putElem stores element i of the c-element block blk starts with: an atom
// or pseudo-atom at (x, y, z) of charge q and Born radius r.
func putElem[T lane](blk []T, c, i int, x, y, z, q, r float64) {
	blk[i], blk[c+i], blk[2*c+i], blk[3*c+i], blk[4*c+i], blk[5*c+i] = T(x), T(y), T(z), T(q), T(r), T(1/r)
}

// gatherFunc appends the blocks [lo[e], hi[e]) of the blocked source src
// for every entry e of list to the stream s at position n, charges scaled
// by w, and returns the new length.
type gatherFunc[T lane] func(s *soa[T], n int, src []T, lo, hi, list []int32, w T) int

// gather is the portable gatherFunc, an element loop: every tier's on
// hosts without the assembly, the f32 tier's everywhere. The float64
// tiers' on AVX2 hosts is gatherAsm (simd_amd64.go), which copies a span
// as whole vectors of four without a branch on its length; the same copy
// written in Go — through [4]T array pointers — compiles to a memmove call
// or to 24 bounds checks per chunk and measured 17–21 ns per entry against
// this loop's 12.
func (s *soa[T]) gather(n int, src []T, lo, hi, list []int32, w T) int {
	st := len(s.flat) / srcFields
	field := func(f int) []T { return s.flat[f*st : (f+1)*st] }
	dx, dy, dz, dq, dr, dir := field(0), field(1), field(2), field(3), field(4), field(5)
	for _, e := range list {
		l, c := int(lo[e]), int(hi[e]-lo[e])
		p := src[srcFields*l : srcFields*(l+c)]
		for i := 0; i < c; i++ {
			dx[n], dy[n], dz[n], dq[n], dr[n], dir[n] = p[i], p[c+i], p[2*c+i], w*p[3*c+i], p[4*c+i], p[5*c+i]
			n++
		}
	}
	return n
}

// epolTier is what the row driver reads of one precision tier, in the
// tier's element type: the two gather sources — the atoms, blocked by
// leaf (leaf n's are [aLo[n], aHi[n])), and the binned pseudo-atoms of
// every atoms-tree node, blocked by node (node n's are [nzOff[n],
// nzOff[n+1])) — the gather that copies them, the node centers (for the
// moment corrections) and the tier's stream kernel. sweep returns
// Σ_o q_o · Σ_i q_i / f_GB(o, i) over the outer atoms o and the stream i,
// with f_GB² = r² + R_oR_i·exp(−r²/4R_oR_i).
type epolTier[T lane] struct {
	atoms, bins []T
	gather      gatherFunc[T]
	nx, ny, nz  []T
	sweep       func(o, s *soa[T]) float64
}

// epolScratch is one worker's gather-then-stream scratch: the stream of
// the active tier.
type epolScratch struct {
	f64 streamScratch[float64]
	f32 streamScratch[float32]
}

// streamScratch is the storage of a stream (s) and of an outer operand
// (o), and the two operand views handed to the kernel — kept here because
// arguments of an indirect call escape.
type streamScratch[T lane] struct {
	s, o, outer, stream soa[T]
}

// sweep gathers the stream — src's blocks [lo[e], hi[e]) of the entries e
// of once, then of twice with doubled charges — and the outer operand,
// the block of self's one entry, and runs the tier's kernel over them. It
// returns the kernel's sum, the stream length after once and in all, and
// the outer operand's length.
func (sc *streamScratch[T]) sweep(tk *epolTier[T], src []T, lo, hi, self, once, twice []int32) (e float64, nOnce, n, nv int) {
	nOnce = tk.gather(&sc.s, 0, src, lo, hi, once, 1)
	n = tk.gather(&sc.s, nOnce, src, lo, hi, twice, 2)
	nv = tk.gather(&sc.o, 0, src, lo, hi, self, 1)
	sc.outer, sc.stream = sc.o.prefix(nv), sc.s.prefix(n)
	return tk.sweep(&sc.outer, &sc.stream), nOnce, n, nv
}

// newEpolScratch allocates p workers' scratch for sweeping il under ctx.
// The capacities are sized once from the lists: no row gathers more than
// its near+sym entry count times the largest leaf, nor than its far entry
// count times the most occupied bins of any node; an outer operand is one
// leaf's atoms or one node's bins.
func newEpolScratch(ctx *EpolContext, il *InteractionLists, p int) []epolScratch {
	var maxLeaf, maxBins int32
	for _, l := range ctx.sys.Atoms.Leaves() {
		maxLeaf = max(maxLeaf, ctx.aHi[l]-ctx.aLo[l])
	}
	for n := range ctx.aLo {
		maxBins = max(maxBins, ctx.nzOff[n+1]-ctx.nzOff[n])
	}
	n := 0
	for row := range il.Rows {
		near := il.NearOff[row+1] - il.NearOff[row] + il.SymOff[row+1] - il.SymOff[row]
		far := il.FarOff[row+1] - il.FarOff[row]
		n = max(n, int(near*maxLeaf), int(far*maxBins))
	}
	no := int(max(maxLeaf, maxBins))
	sc := make([]epolScratch, p)
	for w := range sc {
		if ctx.tier == tierF32 {
			sc[w].f32.s, sc[w].f32.o = newSoa[float32](n, false), newSoa[float32](no, false)
		} else {
			sc[w].f64.s, sc[w].f64.o = newSoa[float64](n, true), newSoa[float64](no, true)
		}
	}
	return sc
}

// epolRow evaluates one compiled E_pol row (an atom leaf V) into acc:
// near entries are exact ordered pairs (including the diagonal when
// U == V), far entries interact the charge histograms bin-by-bin
// (Figure 3). sc is worker-private.
func epolRow(ctx *EpolContext, il *InteractionLists, row int, sc *epolScratch, acc *epolAccum) {
	if ctx.tier == tierF32 {
		epolRowT(ctx, &ctx.t32, il, row, &sc.f32, acc)
	} else {
		epolRowT(ctx, &ctx.t64, il, row, &sc.f64, acc)
	}
}

func epolRowT[T lane](ctx *EpolContext, tk *epolTier[T], il *InteractionLists, row int, sc *streamScratch[T], acc *epolAccum) {
	self := il.Rows[row : row+1]
	leaf := self[0]

	// Near field. Mutual pairs were compiled once (ilist.go): the per-pair
	// GB terms are bitwise symmetric, so a Sym leaf gathered with doubled
	// charges reproduces both ordered blocks of the recursion. 1 op per
	// entry plus |U|·|V| per block; a Sym block is charged for BOTH ordered
	// blocks it represents (kernels.go).
	near := il.Near[il.NearOff[row]:il.NearOff[row+1]]
	sym := il.Sym[il.SymOff[row]:il.SymOff[row+1]]
	e, nNear, n, nv := sc.sweep(tk, tk.atoms, ctx.aLo, ctx.aHi, self, near, sym)
	acc.energy += e
	acc.ops += float64((2*n-nNear)*nv + len(near) + len(sym))
	acc.nearTerms += float64(n * nv)
	acc.gatherAtoms += float64(n)
	acc.gatherSpans += float64(len(near) + len(sym))

	far := il.Far[il.FarOff[row]:il.FarOff[row+1]]
	if len(far) == 0 {
		return
	}
	// Far field: 1 op per entry plus one per populated bin pair.
	e, _, n, nv = sc.sweep(tk, tk.bins, ctx.nzOff, ctx.nzOff[1:], self, far, nil)
	acc.energy += e
	acc.ops += float64(n*nv + len(far))
	acc.farTerms += float64(n * nv)
	acc.gatherAtoms += float64(n)
	acc.gatherSpans += float64(len(far))
	if il.FarOrd == nil || ctx.farOrd == 0 {
		return
	}
	// Under a ladder EVERY entry adds the run order's moment correction of
	// farorder.go — the identical scalar float64 expression in every tier;
	// the per-entry rung (FarOrd) is admission/repair metadata, not an
	// evaluation order. The corrections read the charge moments, not the
	// bins, so they survive an empty histogram on either side, exactly as
	// in the recursion.
	cx, cy, cz := tk.nx[leaf], tk.ny[leaf], tk.nz[leaf]
	for _, un := range far {
		dx, dy, dz := float64(tk.nx[un]-cx), float64(tk.ny[un]-cy), float64(tk.nz[un]-cz)
		acc.energy += ctx.epolFarCorrection(un, leaf, dx, dy, dz, dx*dx+dy*dy+dz*dz, ctx.farOrd)
	}
}

// The portable stream kernels, one per tier. On AVX2+FMA hosts
// (simd_amd64.go) each is replaced by its assembly counterpart.

// epolStreamExact is the exact tier: IEEE float64 arithmetic, math.Sqrt,
// math.Exp, a true divide, one running sum per outer atom. The exponent
// is formed by multiplying the gathered reciprocal radii instead of
// dividing — ≤ 2 ulp off −r²/4R_oR_i, inside the 1e-12 contract.
func epolStreamExact(o, s *soa[float64]) float64 {
	sx := s.x
	sy, sz, sq, sr, sir := s.y[:len(sx)], s.z[:len(sx)], s.q[:len(sx)], s.r[:len(sx)], s.ir[:len(sx)]
	var e float64
	for a, ox := range o.x {
		oy, oz, ro, c := o.y[a], o.z[a], o.r[a], 0.25*o.ir[a]
		var sum float64
		for i := range sx {
			dx, dy, dz := ox-sx[i], oy-sy[i], oz-sz[i]
			r2 := dx*dx + dy*dy + dz*dz
			sum += sq[i] / math.Sqrt(r2+ro*sr[i]*math.Exp(-r2*c*sir[i]))
		}
		e += o.q[a] * sum
	}
	return e
}

// epolStreamApprox is the approximate-math tier (Params.Math =
// Approximate): the recursion's own operands through mathx.Exp and
// mathx.RSqrt, so the compiled path stays on the recursive one.
func epolStreamApprox(o, s *soa[float64]) float64 {
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

// epolStreamLanes is the laned tier's portable kernel: epolStreamApprox
// restructured into width-4 blocks that batch the transcendentals through
// mathx.ExpLanes4/RSqrtLanes4 (four independent chains in flight), the
// sub-width remainder peeled through the scalar kernels. It carries the
// tier's BIT-COMPATIBILITY invariant with epolStreamApprox: each lane
// performs exactly the scalar operation sequence and the block epilogue
// adds the four terms in index order, so a single-threaded run produces
// the identical float64 sum (TestLanesTierBitCompatible). The assembly
// kernel that replaces it on AVX2 hosts uses FMA contraction and pairwise
// lane reduction — pinned to this path by TestAsmKernelsMatchPortable.
func epolStreamLanes(o, s *soa[float64]) float64 {
	sx := s.x
	sy, sz, sq, sr := s.y[:len(sx)], s.z[:len(sx)], s.q[:len(sx)], s.r[:len(sx)]
	nb := len(sx) &^ (mathx.LaneWidth - 1)
	var e float64
	for a, ox := range o.x {
		oy, oz, ro := o.y[a], o.z[a], o.r[a]
		var sum float64
		var r2l, rrl, fl [mathx.LaneWidth]float64
		for i := 0; i < nb; i += mathx.LaneWidth {
			for l := 0; l < mathx.LaneWidth; l++ {
				dx, dy, dz := ox-sx[i+l], oy-sy[i+l], oz-sz[i+l]
				r2 := dx*dx + dy*dy + dz*dz
				rr := ro * sr[i+l]
				r2l[l], rrl[l] = r2, rr
				fl[l] = -r2 / (4 * rr)
			}
			mathx.ExpLanes4(&fl)
			for l := 0; l < mathx.LaneWidth; l++ {
				fl[l] = r2l[l] + rrl[l]*fl[l]
			}
			mathx.RSqrtLanes4(&fl)
			sum += sq[i] * fl[0]
			sum += sq[i+1] * fl[1]
			sum += sq[i+2] * fl[2]
			sum += sq[i+3] * fl[3]
		}
		for i := nb; i < len(sx); i++ {
			dx, dy, dz := ox-sx[i], oy-sy[i], oz-sz[i]
			r2 := dx*dx + dy*dy + dz*dz
			rr := ro * sr[i]
			sum += sq[i] * mathx.RSqrt(r2+rr*mathx.Exp(-r2/(4*rr)))
		}
		e += o.q[a] * sum
	}
	return e
}

// epolStreamF32 is the f32 tier's portable kernel: float32 pair terms in
// width-4 lanes with four independent float32 partial sums per outer atom,
// reduced to float64 once per outer atom (the tier's contract is its
// measured error budget, not bits — TestF32TierErrorBudget).
func epolStreamF32(o, s *soa[float32]) float64 {
	sx := s.x
	sy, sz, sq, sr := s.y[:len(sx)], s.z[:len(sx)], s.q[:len(sx)], s.r[:len(sx)]
	nb := len(sx) &^ (mathx.LaneWidth - 1)
	var e float64
	for a, ox := range o.x {
		oy, oz, ro := o.y[a], o.z[a], o.r[a]
		var s0, s1, s2, s3 float32
		var r2l, rrl, fl [mathx.LaneWidth]float32
		for i := 0; i < nb; i += mathx.LaneWidth {
			for l := 0; l < mathx.LaneWidth; l++ {
				dx, dy, dz := ox-sx[i+l], oy-sy[i+l], oz-sz[i+l]
				r2 := dx*dx + dy*dy + dz*dz
				rr := ro * sr[i+l]
				r2l[l], rrl[l] = r2, rr
				fl[l] = -r2 / (4 * rr)
			}
			mathx.ExpLanes4x32(&fl)
			for l := 0; l < mathx.LaneWidth; l++ {
				fl[l] = r2l[l] + rrl[l]*fl[l]
			}
			mathx.RSqrtLanes4x32(&fl)
			s0 += sq[i] * fl[0]
			s1 += sq[i+1] * fl[1]
			s2 += sq[i+2] * fl[2]
			s3 += sq[i+3] * fl[3]
		}
		sum := (s0 + s1) + (s2 + s3)
		for i := nb; i < len(sx); i++ {
			dx, dy, dz := ox-sx[i], oy-sy[i], oz-sz[i]
			r2 := dx*dx + dy*dy + dz*dz
			rr := ro * sr[i]
			sum += sq[i] * mathx.RSqrt32(r2+rr*mathx.Exp32(-r2/(4*rr)))
		}
		e += float64(o.q[a]) * float64(sum)
	}
	return e
}
