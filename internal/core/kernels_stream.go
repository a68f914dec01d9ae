package core

import (
	"math"
	"math/bits"

	"gbpolar/internal/mathx"
)

// Gather-then-stream evaluation of the compiled E_pol lists (DESIGN.md
// §6). A compiled row holds hundreds of near leaves of ~2 atoms each and
// hundreds of far nodes of ~2 occupied histogram bins each; a kernel
// called once per entry never leaves its prologue. sweepRuns instead COPIES
// a set of runs' operands into one worker-private SoA stream and sweeps the
// stream with a single f_GB kernel call, twice per set — per tile for the
// runs every one of its rows takes, against all of those rows, and per row
// for its share of the tile's own runs, which one masked gather copies into
// every row's stream at once (epolTile):
//
//   - near: the stream is the atoms of the Near (weight 1) and Sym
//     (weight 2, folded into the charge — ×2 is exact) leaves; the outer
//     operand is the row leaves' own atoms, one leaf after the other;
//   - far: the far field of Figure 3 IS a near field between binned
//     pseudo-atoms. Its R_uR_v surrogate R_min²(1+ε)^{i+j} factors as
//     ρ_i·ρ_j with ρ_b = R_min(1+ε)^b, so the (i, j) bin-pair term of nodes
//     U, V is exactly f_GB between a pseudo-atom at U's center with charge
//     q_U[i] and Born radius ρ_i and one at V's center with q_V[j], ρ_j.
//     EpolContext lays every node's occupied bins out as such pseudo-atoms
//     (epolTier.bins, one block per node, indexed like nzOff); the stream
//     is the far nodes' pseudo-atoms, the outer operand the row leaves'. No
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

// soaSize is the backing array length of an n-atom SoA.
func soaSize(n int) int { return srcFields * (n + gatherPad) }

// newSoa allocates an n-atom SoA over one backing array, every field
// followed by gatherPad elements of slack.
func newSoa(n int) soa { return soaOver(make([]float64, soaSize(n)), n) }

// soaOver lays an n-atom SoA out over flat, soaSize(n) elements long.
func soaOver(flat []float64, n int) soa {
	st := n + gatherPad
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

// laneStreams is a tile's eight lane streams, what the masked gather fills:
// lane l's stream is s[l], n[l] elements long, gathered from spans[l]
// entries, with room for cap[l]. base[l] and stride[l] are where the
// assembly (gatherMasked4) finds s[l]'s storage — its first element and the
// distance from one field to the next.
type laneStreams struct {
	base   [tileLanes]*float64
	stride [tileLanes]int
	n      [tileLanes]int
	spans  [tileLanes]int
	cap    [tileLanes]int
	s      [tileLanes]soa
}

// lanesSize is the backing array length of lane streams with room for
// n[l] elements in lane l.
func lanesSize(n *[tileLanes]int) (size int) {
	for _, c := range n {
		size += soaSize(c)
	}
	return size
}

// newLaneStreams lays lane streams with room for n[l] elements in lane l out
// over flat, at least lanesSize(n) elements long.
func newLaneStreams(flat []float64, n *[tileLanes]int) (ls laneStreams) {
	for l, c := range n {
		ls.set(l, soaOver(flat[:soaSize(c):soaSize(c)], c))
		flat = flat[soaSize(c):]
	}
	return ls
}

// set makes s lane l's storage.
func (ls *laneStreams) set(l int, s soa) {
	ls.s[l], ls.base[l], ls.stride[l], ls.cap[l] = s, &s.flat[0], len(s.flat)/srcFields, len(s.x)
}

// reset empties the streams.
func (ls *laneStreams) reset() { ls.n, ls.spans = [tileLanes]int{}, [tileLanes]int{} }

// laneGatherFunc appends the blocks [lo[e], hi[e]) of the blocked source src
// for the entries e of list to the stream of every lane of e's mask (masks,
// one per entry), charges scaled by w, up to the first entry a lane of its
// mask has no room for, and returns the entries gathered. room is the least
// room of the lanes: until the entries' spans sum past it, every entry fits.
type laneGatherFunc func(ls *laneStreams, src []float64, lo, hi, list []int32, masks []uint8, w float64, room int) int

// gather is the portable laneGatherFunc: soa.gather's element loop, once for
// every lane of an entry's mask. On AVX2 hosts it is gatherMaskedAsm
// (simd_amd64.go), the same copy as whole vectors of four.
func (ls *laneStreams) gather(src []float64, lo, hi, list []int32, masks []uint8, w float64, room int) int {
	for k, e := range list {
		m, c := masks[k], int(hi[e]-lo[e])
		room -= c
		for b := m; room < 0 && b != 0; b &= b - 1 {
			if l := bits.TrailingZeros8(b); ls.n[l]+c > ls.cap[l] {
				return k
			}
		}
		for ; m != 0; m &= m - 1 {
			l := bits.TrailingZeros8(m)
			ls.n[l] = ls.s[l].gather(ls.n[l], src, lo, hi, list[k:k+1], w)
			ls.spans[l]++
		}
	}
	return len(list)
}

// fill gathers the entries of list into the lanes of their masks with the
// tier's gather, giving a lane that has no room for an entry room for it and
// a quarter more.
func (ls *laneStreams) fill(tk *epolTier, src []float64, lo, hi, list []int32, masks []uint8, w float64) {
	for {
		room := math.MaxInt
		for l := range ls.cap {
			room = min(room, ls.cap[l]-ls.n[l])
		}
		k := tk.laneGather(ls, src, lo, hi, list, masks, w, room)
		if k == len(list) {
			return
		}
		c := int(hi[list[k]] - lo[list[k]])
		for m := masks[k]; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros8(m); ls.n[l]+c > ls.cap[l] {
				old, need := ls.s[l], ls.n[l]+c
				ls.set(l, newSoa(need+need/4))
				for f, field := range [...][]float64{old.x, old.y, old.z, old.q, old.r, old.ir} {
					copy(ls.s[l].flat[f*ls.stride[l]:], field[:ls.n[l]])
				}
			}
		}
		list, masks = list[k:], masks[k:]
	}
}

// epolTier is what the row driver reads of one precision tier: the two
// gather sources — the atoms, blocked by leaf (leaf n's are [aLo[n],
// aHi[n])), and the binned pseudo-atoms of every atoms-tree node, blocked
// by node (node n's are [nzOff[n], nzOff[n+1])) — the two gathers that copy
// them, an outer operand and a tile's streams, and the tier's stream
// kernel. sweep returns Σ_o q_o · Σ_i q_i / f_GB(o, i) over the outer atoms
// o and the stream i, with f_GB² = r² + R_oR_i·exp(−r²/4R_oR_i).
type epolTier struct {
	atoms, bins []float64
	gather      gatherFunc
	laneGather  laneGatherFunc
	sweep       func(o, s *soa) float64
}

// epolScratch is one worker's gather-then-stream scratch: the storage of a
// stream (s), of a tile's lane streams (lanes) and of an outer operand (o),
// and the two operand views handed to the kernel — kept here because
// arguments of an indirect call escape. maxBins is the most occupied bins
// of any node: a far run's stream is at most that many a node (fitFar).
type epolScratch struct {
	s, o, outer, stream soa
	lanes               laneStreams
	maxBins             int
}

// sweep gathers the stream — src's blocks [lo[e], hi[e]) of the entries e
// of once, then of twice with doubled charges — and runs the tier's kernel
// over it (sweepStream). It returns the kernel's sum, the stream length
// after once and in all, and the outer operand's length.
func (sc *epolScratch) sweep(tk *epolTier, src []float64, lo, hi, self, once, twice []int32) (e float64, nOnce, n, nv int) {
	nOnce = tk.gather(&sc.s, 0, src, lo, hi, once, 1)
	n = tk.gather(&sc.s, nOnce, src, lo, hi, twice, 2)
	e, nv = sc.sweepStream(tk, src, lo, hi, self, &sc.s, n)
	return e, nOnce, n, nv
}

// sweepStream gathers the outer operand, the blocks of the entries of self,
// and runs the tier's kernel over it and the first n elements of stream. It
// returns the kernel's sum and the outer operand's length.
func (sc *epolScratch) sweepStream(tk *epolTier, src []float64, lo, hi, self []int32, stream *soa, n int) (e float64, nv int) {
	nv = tk.gather(&sc.o, 0, src, lo, hi, self, 1)
	sc.outer, sc.stream = sc.o.prefix(nv), stream.prefix(n)
	return tk.sweep(&sc.outer, &sc.stream), nv
}

// newEpolScratch allocates p workers' scratch for the E_pol sweep under
// ctx of lists whose streams near measures: exactly (nearExtents, counted
// by the pass that prices the tiles), or else bounds (boundExtents). A
// stream holds what the lists' entries gather into it — a tile's shared
// runs, lane l's share of its own ones — the shared stream over the lanes'
// storage. A far run gathers a node's occupied bins, which are known only
// once the histograms are: the shared stream makes room for a far run that
// may not fit when it meets one (fitFar), and a lane stream grows when an
// entry does not fit (laneStreams.fill). An outer operand is a tile's
// leaves, at most eight leaves' atoms or eight nodes' bins.
func newEpolScratch(ctx *EpolContext, near nearExtents, p int) []epolScratch {
	maxLeaf, maxBins := largestBlocks(ctx)
	sc := make([]epolScratch, p)
	for w := range sc {
		// A tile's shared runs are swept before its lane streams are filled
		// (epolTile): the shared stream lies over the lanes' storage.
		flat := make([]float64, max(lanesSize(&near.lanes), soaSize(near.shared)))
		sc[w].s, sc[w].lanes = soaOver(flat[:soaSize(near.shared)], near.shared), newLaneStreams(flat, &near.lanes)
		sc[w].o, sc[w].maxBins = newSoa(tileLanes*int(max(maxLeaf, maxBins))), int(maxBins)
	}
	return sc
}

// boundExtents bounds the streams of il's tiles from its runs' lengths
// alone, for lists whose nearExtents are not known. A tile's shared runs
// gather at most their near and Sym entries times the largest leaf, or
// their far entries times the most occupied bins of any node. Each lane
// starts with room for the longest own run of a tile, near and Sym together
// or far, in entries, times the mean atoms of a leaf or occupied bins of a
// node — about the longest lane's at the ledger's molecules — and grows if
// it needs more (laneStreams.fill).
func boundExtents(ctx *EpolContext, il *InteractionLists) (near nearExtents) {
	maxLeaf, maxBins := largestBlocks(ctx)
	ownNear, ownFar := 0, 0
	for t := range il.tiles() {
		sh, ow := il.tileRuns(t), il.ownRuns(t)
		near.shared = max(near.shared, (len(sh[kindNear])+len(sh[kindSym]))*int(maxLeaf), len(sh[runFar])*int(maxBins))
		ownNear = max(ownNear, len(ow.runs[kindNear])+len(ow.runs[kindSym]))
		ownFar = max(ownFar, len(ow.runs[runFar]))
	}
	meanLeaf := float64(len(ctx.Radii)) / float64(len(ctx.sys.Atoms.Leaves()))
	meanBins := float64(len(ctx.nzQ)) / float64(len(ctx.aLo))
	for l := range near.lanes {
		near.lanes[l] = int(max(float64(ownNear)*meanLeaf, float64(ownFar)*meanBins))
	}
	return near
}

// largestBlocks returns the most atoms of any leaf and the most occupied
// bins of any node under ctx.
func largestBlocks(ctx *EpolContext) (maxLeaf, maxBins int32) {
	for _, l := range ctx.sys.Atoms.Leaves() {
		maxLeaf = max(maxLeaf, ctx.aHi[l]-ctx.aLo[l])
	}
	for n := range ctx.aLo {
		maxBins = max(maxBins, ctx.nzOff[n+1]-ctx.nzOff[n])
	}
	return maxLeaf, maxBins
}

// fitFar makes the stream room for the occupied bins of the far nodes far:
// at most maxBins a node, and when that bound passes the stream's room, the
// nodes' count of them and a quarter more.
func (sc *epolScratch) fitFar(ctx *EpolContext, far []int32) {
	if len(far)*sc.maxBins <= len(sc.s.x) {
		return
	}
	n := 0
	for _, e := range far {
		n += int(ctx.nzOff[e+1] - ctx.nzOff[e])
	}
	if n > len(sc.s.x) {
		sc.s = newSoa(n + n/4)
	}
}

// epolTile evaluates E_pol tile t of il into acc: the runs every row of the
// tile takes, swept once against all of the rows (sweepRuns), then each
// row's share of the tile's own runs. Those are gathered once for all rows
// — each entry's block into the stream of every row its mask names, near
// leaves (Near, then Sym with doubled charges) and then far nodes into the
// same streams — and each row's stream swept against the row as sweepRuns
// sweeps one row. The rows' sums are added to acc row by row, near before
// far, as a sweep of one row at a time adds them. sc is worker-private.
func epolTile(ctx *EpolContext, il *InteractionLists, t int, sc *epolScratch, acc *epolAccum) {
	lo, hi := il.tileRows(t)
	rows, tk, ls := il.Rows[lo:hi], &ctx.stream, &sc.lanes
	shared, own := il.tileRuns(t), il.ownRuns(t)
	sc.sweepRuns(ctx, rows, &shared, acc)

	ls.reset()
	ls.fill(tk, tk.atoms, ctx.aLo, ctx.aHi, own.runs[kindNear], own.masks[kindNear], 1)
	nOnce := ls.n
	ls.fill(tk, tk.atoms, ctx.aLo, ctx.aHi, own.runs[kindSym], own.masks[kindSym], 2)
	near, nNear, spans := [tileLanes]float64{}, ls.n, ls.spans
	var nvNear [tileLanes]int
	for l := range rows {
		if spans[l] > 0 {
			near[l], nvNear[l] = sc.sweepStream(tk, tk.atoms, ctx.aLo, ctx.aHi, rows[l:l+1], &ls.s[l], ls.n[l])
		}
	}
	ls.reset()
	ls.fill(tk, tk.bins, ctx.nzOff, ctx.nzOff[1:], own.runs[runFar], own.masks[runFar], 1)
	for l := range rows {
		if spans[l] > 0 {
			acc.addNear(near[l], nOnce[l], nNear[l], nvNear[l], 1, spans[l])
		}
		if ls.spans[l] > 0 {
			e, nv := sc.sweepStream(tk, tk.bins, ctx.nzOff, ctx.nzOff[1:], rows[l:l+1], &ls.s[l], ls.n[l])
			acc.addFar(e, ls.n[l], nv, 1, ls.spans[l])
		}
	}
}

// sweepRuns evaluates runs — entries every leaf of self takes — against
// those leaves into acc: near entries are exact ordered pairs (including
// the diagonal when U == V), far entries interact the charge histograms
// bin by bin (Figure 3). The outer operand is the leaves' atoms, for the far
// run their pseudo-atoms, one leaf after the other, so an entry is gathered
// and swept once for all of them; it is charged once for each, as a list
// per row charges it.
func (sc *epolScratch) sweepRuns(ctx *EpolContext, self []int32, runs *[runFar + 1][]int32, acc *epolAccum) {
	tk, rows := &ctx.stream, len(self)

	// Near field. Mutual pairs were compiled once (ilist.go): the per-pair
	// GB terms are bitwise symmetric, so a Sym leaf gathered with doubled
	// charges reproduces both ordered blocks of the recursion.
	if near, sym := runs[kindNear], runs[kindSym]; len(near)+len(sym) > 0 {
		e, nNear, n, nv := sc.sweep(tk, tk.atoms, ctx.aLo, ctx.aHi, self, near, sym)
		acc.addNear(e, nNear, n, nv, rows, len(near)+len(sym))
	}
	if far := runs[runFar]; len(far) > 0 {
		sc.fitFar(ctx, far)
		e, _, n, nv := sc.sweep(tk, tk.bins, ctx.nzOff, ctx.nzOff[1:], self, far, nil)
		acc.addFar(e, n, nv, rows, len(far))
	}
}

// addNear adds to acc a near sweep's sum e and what it cost: spans entries
// for each of rows rows, a stream of n atoms — the first nOnce of weight 1 —
// against an outer operand of nv. 1 op per entry and row plus |U|·|V| per
// block; a Sym block is charged for BOTH ordered blocks it represents
// (kernels.go).
func (acc *epolAccum) addNear(e float64, nOnce, n, nv, rows, spans int) {
	acc.energy += e
	acc.ops += float64((2*n-nOnce)*nv + rows*spans)
	acc.nearTerms += float64(n * nv)
	acc.gatherAtoms += float64(n)
	acc.gatherSpans += float64(spans)
}

// addFar is addNear for a far sweep: 1 op per entry and row plus one per
// populated bin pair.
func (acc *epolAccum) addFar(e float64, n, nv, rows, spans int) {
	acc.energy += e
	acc.ops += float64(n*nv + rows*spans)
	acc.farTerms += float64(n * nv)
	acc.gatherAtoms += float64(n)
	acc.gatherSpans += float64(spans)
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
// (TestLanesTierBitCompatible). The assembly kernels that replace it —
// epolStreamLanes4 on AVX2 hosts, epolStreamLanes8 where the host also has
// AVX-512F, the same bits — use FMA contraction and pairwise lane reduction,
// pinned to this path by TestAsmKernelsMatchPortable.
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
