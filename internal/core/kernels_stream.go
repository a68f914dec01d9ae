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
//     recursion's own bin-pair term.
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
// radius and reciprocal radius. The six fields share one backing array,
// flat, field f starting at f·len(flat)/srcFields; what a gather appends it
// writes through flat.
type soa struct {
	x, y, z, q, r, ir []float64
	flat              []float64
}

// newSoa allocates an n-atom SoA over one backing array, every field
// followed by gatherPad elements of slack.
func newSoa(n int) soa {
	st := n + gatherPad
	flat := make([]float64, srcFields*st)
	field := func(f int) []float64 { return flat[f*st : f*st+n : f*st+n] }
	return soa{x: field(0), y: field(1), z: field(2), q: field(3), r: field(4), ir: field(5), flat: flat}
}

// prefix returns the view of the first n atoms.
func (s *soa) prefix(n int) soa {
	return soa{x: s.x[:n], y: s.y[:n], z: s.z[:n], q: s.q[:n], r: s.r[:n], ir: s.ir[:n]}
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
func putElem(blk []float64, c, i int, x, y, z, q, r float64) {
	blk[i], blk[c+i], blk[2*c+i], blk[3*c+i], blk[4*c+i], blk[5*c+i] = x, y, z, q, r, 1/r
}

// gatherFunc appends the blocks [lo[e], hi[e]) of the blocked source src
// for every entry e of list to the stream s at position n, charges scaled
// by w, and returns the new length.
type gatherFunc func(s *soa, n int, src []float64, lo, hi, list []int32, w float64) int

// gather is the portable gatherFunc, an element loop. On AVX2 hosts it is
// gatherAsm (simd_amd64.go), which copies a span as whole vectors of four
// without a branch on its length; the same copy written in Go — through
// [4]float64 array pointers — compiles to a memmove call or to 24 bounds
// checks per chunk and measured 17–21 ns per entry against this loop's 12.
func (s *soa) gather(n int, src []float64, lo, hi, list []int32, w float64) int {
	st := len(s.flat) / srcFields
	field := func(f int) []float64 { return s.flat[f*st : (f+1)*st] }
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

// epolTier is what the row driver reads of one precision tier: the two
// gather sources — the atoms, blocked by leaf (leaf n's are [aLo[n],
// aHi[n])), and the binned pseudo-atoms of every atoms-tree node, blocked
// by node (node n's are [nzOff[n], nzOff[n+1])) — the gather that copies
// them and the tier's stream kernel. sweep returns
// Σ_o q_o · Σ_i q_i / f_GB(o, i) over the outer atoms o and the stream i,
// with f_GB² = r² + R_oR_i·exp(−r²/4R_oR_i).
type epolTier struct {
	atoms, bins []float64
	gather      gatherFunc
	sweep       func(o, s *soa) float64
}

// epolScratch is one worker's gather-then-stream scratch: the storage of a
// stream (s) and of an outer operand (o), and the two operand views handed
// to the kernel — kept here because arguments of an indirect call escape.
type epolScratch struct {
	s, o, outer, stream soa
}

// sweep gathers the stream — src's blocks [lo[e], hi[e]) of the entries e
// of once, then of twice with doubled charges — and the outer operand,
// the block of self's one entry, and runs the tier's kernel over them. It
// returns the kernel's sum, the stream length after once and in all, and
// the outer operand's length.
func (sc *epolScratch) sweep(tk *epolTier, src []float64, lo, hi, self, once, twice []int32) (e float64, nOnce, n, nv int) {
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
		sc[w].s, sc[w].o = newSoa(n), newSoa(no)
	}
	return sc
}

// epolRow evaluates one compiled E_pol row (an atom leaf V) into acc:
// near entries are exact ordered pairs (including the diagonal when
// U == V), far entries interact the charge histograms bin-by-bin
// (Figure 3). sc is worker-private.
func epolRow(ctx *EpolContext, il *InteractionLists, row int, sc *epolScratch, acc *epolAccum) {
	tk := &ctx.stream
	self := il.Rows[row : row+1]

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
}

// The portable stream kernels, one per tier. On AVX2+FMA hosts
// (simd_amd64.go) each is replaced by its assembly counterpart.

// epolStreamExact is the exact tier: IEEE float64 arithmetic, math.Sqrt,
// math.Exp, a true divide, one running sum per outer atom. The exponent
// is formed by multiplying the gathered reciprocal radii instead of
// dividing — ≤ 2 ulp off −r²/4R_oR_i, inside the 1e-12 contract.
func epolStreamExact(o, s *soa) float64 {
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

// epolStreamLanes is the laned tier's portable kernel: the recursion's own
// operands through the approximate-math kernels, in width-4 blocks that
// batch the transcendentals through mathx.ExpLanes4/RSqrtLanes4 (four
// independent chains in flight), the sub-width remainder peeled through
// the scalar mathx.Exp/mathx.RSqrt. It carries the tier's
// BIT-COMPATIBILITY invariant with the scalar approximate-math sweep (a
// test oracle, kernels_oracle_test.go): each lane performs exactly the
// scalar operation sequence and the block epilogue adds the four terms in
// index order, so every row sums to the identical float64
// (TestLanesTierBitCompatible). The assembly kernel that replaces it on
// AVX2 hosts uses FMA contraction and pairwise lane reduction — pinned to
// this path by TestAsmKernelsMatchPortable.
func epolStreamLanes(o, s *soa) float64 {
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
