package core

import (
	"testing"

	"gbpolar/internal/sched"
)

// The E_pol stream kernels at the ledger's fixture (the 20 000-atom
// generated protein, Morton trees): one single-worker sweep of every
// compiled row per iteration, gather and far-field convolution included,
// reported as ns per streamed term (near pair terms + far occupied-sum
// terms). Run with `make bench-kernels`.

func benchEpolStream(b *testing.B, p Precision, asm bool) {
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
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	useAsmKernels = asm
	ctx := NewEpolContext(sys, slotRadii)
	scratch := newEpolScratch(ctx, il, 1)
	var acc epolAccum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = epolAccum{}
		for row := range il.Rows {
			epolRow(ctx, il, row, &scratch[0], &acc)
		}
	}
	terms := acc.nearTerms + acc.farTerms
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/terms, "ns/term")
	b.ReportMetric(terms, "terms")
	if e := relErr(ctx.Finish(acc.energy), res.Epol); e > 1e-9 {
		b.Fatalf("swept E_pol is %.3g from RunShared's", e)
	}
}

func BenchmarkEpolStreamExact(b *testing.B)    { benchEpolStream(b, PrecisionExact, false) }
func BenchmarkEpolStreamExactAsm(b *testing.B) { benchEpolStream(b, PrecisionExact, true) }
func BenchmarkEpolStreamLanes(b *testing.B)    { benchEpolStream(b, PrecisionLanes, true) }
func BenchmarkEpolStreamF32(b *testing.B)      { benchEpolStream(b, PrecisionF32, true) }
