package core

import (
	"math/rand"
	"testing"

	"gbpolar/internal/sched"
)

// The E_pol stream kernels at the ledger's fixture (the 20 000-atom
// generated protein, Morton trees): one single-worker sweep of every
// compiled tile per iteration — gather, near stream and far stream —
// reported as ns per streamed term (near pair terms + far bin-pair terms),
// and beside it the gather alone, so the gather/kernel split of a sweep is
// read from two benchmark rows; the whole E_pol sweep by rows and by tiles;
// then the Born far sweep, by rows and by tiles, and the Born near sweep,
// scalar and by the row kernel. Run with `make bench-kernels`.

// benchEpolFixture is the ledger fixture ready to sweep on one worker under
// precision p, with the assembly on or off for the benchmark's duration,
// and RunShared's result to check a sweep against.
func benchEpolFixture(b *testing.B, p Precision, asm bool) (*EpolContext, *InteractionLists, *epolScratch, *Result) {
	if asm && !useAsmKernels {
		b.Skip("no AVX2+FMA assembly kernels in this build or on this host")
	}
	sys, _, _ := testSystem(b, 20000, 1, mortonParams())
	sys.Params.Precision = p
	pool := sched.NewPool(2)
	defer pool.Close()
	il := sys.Lists(pool).Epol
	res, err := RunShared(sys, SharedOptions{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	slotRadii := make([]float64, len(res.BornRadii))
	for slot, orig := range sys.Atoms.Index {
		slotRadii[slot] = res.BornRadii[orig]
	}
	host := useAsmKernels
	b.Cleanup(func() { useAsmKernels = host })
	useAsmKernels = asm
	ctx := NewEpolContext(sys, slotRadii)
	return ctx, il, &listScratch(ctx, il, 1)[0], res
}

func benchEpolStream(b *testing.B, p Precision, asm bool) {
	ctx, il, scratch, res := benchEpolFixture(b, p, asm)
	var acc epolAccum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = epolAccum{}
		for tile := range il.tiles() {
			epolTile(ctx, il, tile, scratch, &acc)
		}
	}
	terms := acc.nearTerms + acc.farTerms
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/terms, "ns/term")
	b.ReportMetric(terms, "terms")
	if e := relErr(ctx.Finish(acc.energy), res.Epol); e > 1e-9 {
		b.Fatalf("swept E_pol is %.3g from RunShared's", e)
	}
}

func BenchmarkEpolStreamExact(b *testing.B) { benchEpolStream(b, PrecisionExact, false) }

// benchEpolStreamAsm is benchEpolStream through a tier's assembly on each
// kernel: avx2 (the width-4 kernel) and avx512 (the AVX-512F one, skipped on
// hosts without AVX-512F).
func benchEpolStreamAsm(b *testing.B, p Precision) {
	for _, isa := range []struct {
		name string
		zmm  bool
	}{{"avx2", false}, {"avx512", true}} {
		b.Run(isa.name, func(b *testing.B) {
			if isa.zmm && !hostAVX512 {
				b.Skip("no AVX-512F on this host")
			}
			b.Cleanup(func() { useAVX512 = hostAVX512 })
			useAVX512 = isa.zmm
			benchEpolStream(b, p, true)
		})
	}
}

// BenchmarkEpolStreamExactAsm is the exact tier's assembly sweep on
// epolStreamExact4 (avx2) and epolStreamExact8 (avx512).
func BenchmarkEpolStreamExactAsm(b *testing.B) { benchEpolStreamAsm(b, PrecisionExact) }

// BenchmarkEpolStreamLanes is the lanes tier's assembly sweep on
// epolStreamLanes4 (avx2) and epolStreamLanes8 (avx512).
func BenchmarkEpolStreamLanes(b *testing.B) { benchEpolStreamAsm(b, PrecisionLanes) }

// BenchmarkEpolKernelInCache is each tier's assembly stream kernel alone,
// on operands that stay in L1: 16 outer atoms against a stream of 512, swept
// 1 000 times per iteration, in ns per term — the exact tier's avx2
// (epolStreamExact4) and avx512 (epolStreamExact8), the lanes tier's
// lanes-avx2 (epolStreamLanes4) and lanes-avx512 (epolStreamLanes8); the
// avx512 rows are skipped on hosts without AVX-512F.
func BenchmarkEpolKernelInCache(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	o, s := randomSoa(rng, 16), randomSoa(rng, 512)
	for _, k := range []struct {
		name string
		fn   func(o, s *soa) float64
		run  bool
	}{
		{"avx2", epolStreamExactAsm, useAsmKernels},
		{"avx512", epolStreamExactAsm8, hostAVX512},
		{"lanes-avx2", epolStreamLanesAsm, useAsmKernels},
		{"lanes-avx512", epolStreamLanesAsm8, hostAVX512},
	} {
		b.Run(k.name, func(b *testing.B) {
			if !k.run {
				b.Skip("no such assembly kernel in this build or on this host")
			}
			const calls = 1000
			for i := 0; i < b.N; i++ {
				for c := 0; c < calls; c++ {
					kernelSink += k.fn(&o, &s)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls*len(o.x)*len(s.x)), "ns/term")
		})
	}
}

// kernelSink keeps the benchmarked kernels' sums live.
var kernelSink float64

// gatherSink keeps the benchmarked gathers' results live.
var gatherSink int

// gatherRuns stages what epolTile hands its kernels for a tile's runs
// against its leaves self — near and Sym, then far, each beside the outer
// operands: shared runs into one stream, against all of self, own runs into
// the lanes of their masks, each against its leaf — and returns the
// elements copied.
func gatherRuns(ctx *EpolContext, sc *epolScratch, self []int32, runs *laneRuns, shared bool) int {
	tk, ls, atoms := &ctx.stream, &sc.lanes, 0
	for _, src := range []struct {
		src    []float64
		lo, hi []int32
		runs   []int
	}{{tk.atoms, ctx.aLo, ctx.aHi, []int{kindNear, kindSym}}, {tk.bins, ctx.nzOff, ctx.nzOff[1:], []int{runFar}}} {
		ls.reset()
		n := 0
		for _, r := range src.runs {
			w := 1.0
			if r == kindSym {
				w = 2
			}
			if shared {
				n = tk.gather(&sc.s, n, src.src, src.lo, src.hi, runs.runs[r], w)
				continue
			}
			ls.fill(tk, src.src, src.lo, src.hi, runs.runs[r], runs.masks[r], w)
		}
		if shared {
			atoms += n + tk.gather(&sc.o, 0, src.src, src.lo, src.hi, self, 1)
			continue
		}
		for l := range self {
			atoms += ls.n[l] + tk.gather(&sc.o, 0, src.src, src.lo, src.hi, self[l:l+1], 1)
		}
	}
	return atoms
}

// benchEpolGather is a sweep's staging without its kernels: per tile its
// shared runs against all of its rows, then its own runs into its rows'
// lane streams, as epolTile gathers them.
func benchEpolGather(b *testing.B, asm bool) {
	ctx, il, sc, _ := benchEpolFixture(b, PrecisionExact, asm)
	atoms := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atoms = 0
		for tile := range il.tiles() {
			lo, hi := il.tileRows(tile)
			shared, own := laneRuns{runs: il.tileRuns(tile)}, il.ownRuns(tile)
			atoms += gatherRuns(ctx, sc, il.Rows[lo:hi], &shared, true) + gatherRuns(ctx, sc, il.Rows[lo:hi], &own, false)
		}
	}
	gatherSink = atoms
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	// Every stored near, Sym and far entry, and four outer operands a row:
	// two with its tile, two alone.
	entries := len(il.OwnNear) + len(il.OwnSym) + len(il.OwnFar) + len(il.TileNear) + len(il.TileSym) + len(il.TileFar) + 4*len(il.Rows)
	b.ReportMetric(ns/float64(entries), "ns/entry")
	b.ReportMetric(ns/float64(atoms), "ns/atom")
}

func BenchmarkEpolGatherAsm(b *testing.B)      { benchEpolGather(b, true) }
func BenchmarkEpolGatherPortable(b *testing.B) { benchEpolGather(b, false) }

// benchEpolSweep times one whole compiled E_pol sweep per iteration on one
// worker, on each tier with the host's kernels: by rows — every row's whole
// runs, the lists merged back (perRowLists) as the sweep ran before the
// E_pol tiles, as tiles of one row (rowLists.tiled) — or by tiles, each
// tile's shared runs swept once against all of its rows and then each row's
// share of its own runs (epolTile). Both give E_pol within 1e-9 of
// RunShared's and count the same terms.
func benchEpolSweep(b *testing.B, tiles bool) {
	for _, tier := range streamBitsTiers {
		b.Run(tier.name, func(b *testing.B) {
			ctx, il, _, res := benchEpolFixture(b, tier.prec, useAsmKernels)
			if !tiles {
				il = perRowLists(il, ctx.sys.Atoms).tiled()
			}
			sc := &listScratch(ctx, il, 1)[0]
			sweep := func(acc *epolAccum) {
				for tile := range il.tiles() {
					epolTile(ctx, il, tile, sc, acc)
				}
			}
			var acc epolAccum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc = epolAccum{}
				sweep(&acc)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			terms := acc.nearTerms + acc.farTerms
			b.ReportMetric(ns/1e6, "ms/sweep")
			b.ReportMetric(ns/terms, "ns/term")
			b.ReportMetric(acc.gatherAtoms, "gathered")
			if e := relErr(ctx.Finish(acc.energy), res.Epol); e > 1e-9 {
				b.Fatalf("swept E_pol is %.3g from RunShared's", e)
			}
		})
	}
}

func BenchmarkEpolSweepRows(b *testing.B) { benchEpolSweep(b, false) }
func BenchmarkEpolSweepTile(b *testing.B) { benchEpolSweep(b, true) }

// The Born far sweep at the same fixture, one worker, exact tier: every
// compiled row's far terms into the node sums, reported as ns per
// (row, node) far term. Rows is the per-row loop over each row's whole far
// set — the lists merged back (perRowLists), as the sweep ran before tiles;
// Tile sweeps each tile's shared run and then its own run eight rows to a
// node, the own run by its lane masks, through the assembly; TilePortable
// is Tile on the portable loop. The three leave the same bits in every node
// sum.
func benchBornSweep(b *testing.B, tiles, asm bool) {
	if asm && !useAsmKernels {
		b.Skip("no AVX2+FMA assembly kernels in this build or on this host")
	}
	sys, _, _ := testSystem(b, 20000, 1, mortonParams())
	pool := sched.NewPool(2)
	il := sys.Lists(pool).Born
	pool.Close()
	rows := perRowLists(il, sys.Atoms)
	host := useAsmKernels
	b.Cleanup(func() { useAsmKernels = host })
	useAsmKernels = asm
	sweep := func(node []float64) {
		if !tiles {
			for row, leaf := range rows.Rows {
				bornFar0(sys, leaf, rows.Far[rows.FarOff[row]:rows.FarOff[row+1]], node)
			}
			return
		}
		for t := range il.tiles() {
			lo, hi := il.tileRows(t)
			var q bornLanes
			q.set(sys, il.Rows[lo:hi])
			full, own := []uint8{uint8(1)<<(hi-lo) - 1}, il.ownRuns(t)
			bornFarLanes(sys, &q, hi-lo, il.tileRuns(t)[runFar], full, 0, node)
			bornFarLanes(sys, &q, hi-lo, own.runs[runFar], own.masks[runFar], 1, node)
		}
	}
	want := make([]float64, len(sys.Atoms.Nodes))
	for row, leaf := range rows.Rows {
		bornFar0(sys, leaf, rows.Far[rows.FarOff[row]:rows.FarOff[row+1]], want)
	}
	node := make([]float64, len(want))
	sweep(node)
	if err := sameBits("node", node, want); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(node)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(il.NumFar()), "ns/term")
	b.ReportMetric(float64(il.NumFar()), "terms")
}

func BenchmarkBornSweepRows(b *testing.B)         { benchBornSweep(b, false, false) }
func BenchmarkBornSweepTile(b *testing.B)         { benchBornSweep(b, true, true) }
func BenchmarkBornSweepTilePortable(b *testing.B) { benchBornSweep(b, true, false) }

// The Born near sweep at the same fixture, one worker: every compiled row's
// near entries into the atom sums (bornNear), reported as ns per (atom,
// q-point) near term — by the scalar loop, and by the row kernel (one call a
// row, the row's near atoms its lanes), which leaves the same bits in every
// atom sum.
func benchBornNear(b *testing.B, asm bool) {
	if asm && !useAsmKernels {
		b.Skip("no AVX2+FMA assembly kernels in this build or on this host")
	}
	sys, _, _ := testSystem(b, 20000, 1, mortonParams())
	pool := sched.NewPool(2)
	il := perRowLists(sys.Lists(pool).Born, sys.Atoms)
	pool.Close()
	host := useAsmKernels
	b.Cleanup(func() { useAsmKernels = host })
	sweepRows := func(acc *bornAccum) {
		for row, leaf := range il.Rows {
			bornNear(sys, leaf, il.Near[il.NearOff[row]:il.NearOff[row+1]], acc)
		}
	}
	sweep := func(kernel bool) *bornAccum {
		useAsmKernels = kernel
		acc := newBornAccum(sys)
		sweepRows(acc)
		return acc
	}
	if err := sameBits("atom", sweep(asm).atom, sweep(false).atom); err != nil {
		b.Fatal(err)
	}
	terms := 0
	for row, leaf := range il.Rows {
		for _, al := range il.Near[il.NearOff[row]:il.NearOff[row+1]] {
			terms += sys.Atoms.Nodes[al].Count() * sys.QPts.Nodes[leaf].Count()
		}
	}
	useAsmKernels = asm
	acc := newBornAccum(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepRows(acc)
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/1e6, "ms/sweep")
	b.ReportMetric(ns/float64(terms), "ns/term")
	b.ReportMetric(float64(terms), "terms")
}

func BenchmarkBornNearSweep(b *testing.B) {
	b.Run("scalar", func(b *testing.B) { benchBornNear(b, false) })
	b.Run("kernel", func(b *testing.B) { benchBornNear(b, true) })
}
