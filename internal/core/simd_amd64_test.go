//go:build amd64 && !purego

package core

import (
	"math"
	"math/rand"
	"testing"

	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
)

// The exact tier's vector exponential (EXPNEG4 in simd_amd64.s) is
// mathx.ExpNeg on four lanes: the same IEEE operation sequence, so the
// same bits — which is what carries ExpNeg's measured ≤1-ulp bound
// (mathx.TestExpNegWithinOneULP, 2²⁴ samples against math/big) over to
// the assembly. 2²² stratified arguments of (−746, 0], every binade edge,
// the underflow range and the special values.
func TestExpNegAsmMatchesPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(13))
	var xs []float64
	const strata = 1 << 12
	for s := 0; s < strata; s++ {
		for i := 0; i < 1<<10; i++ {
			xs = append(xs, -746*(float64(s)+rng.Float64())/strata)
		}
	}
	for e := -1074; e <= 9; e++ {
		x := -math.Ldexp(1, e)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(-1)))
	}
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, -708-38*rng.Float64(), -math.Ldexp(1+rng.Float64(), rng.Intn(70)-60))
	}
	xs = append(xs, 0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), -745.1332191019411, -745.1332191019412, -746, -1e300)
	for len(xs)%8 != 0 {
		xs = append(xs, -1)
	}
	kernels := []struct {
		name  string
		lanes int
		fn    func(dst, src []float64)
		run   bool
	}{{"EXPNEG4", 4, expNeg4, true}, {"EXPNEG8", 8, expNeg8, useAVX512}}
	for _, k := range kernels {
		if !k.run {
			t.Logf("%s: no AVX-512F on this host", k.name)
			continue
		}
		got := make([]float64, len(xs))
		k.fn(got, xs)
		for i, x := range xs {
			want := mathx.ExpNeg(x)
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] != got[i] && want != want) {
				t.Fatalf("%s: x = %v (lane %d): asm %v (%x), mathx.ExpNeg %v (%x)", k.name, x, i%k.lanes, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
		t.Logf("%s: %d arguments bit-identical", k.name, len(xs))
	}
}

// The vector span copy against the portable gather, element for element,
// and both against the layout's definition (field f of element i of block
// [lo, lo+c) at 6·lo + f·c + i): span lengths on both sides of every chunk
// boundary, empty spans, lists that end on the source's last block (whose
// last chunk over-reads into the padding), start offsets of every residue
// mod 4, both weights, empty lists. The stream is pre-filled with canaries:
// the assembly may write at most three lanes past the new end and nothing
// before the start offset, the portable gather nothing outside the two.
func TestGatherMatchesPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(24))
	spanLens := []int{0, 1, 2, 3, 4, 5, 8, 9, 33}
	for trial := 0; trial < 400; trial++ {
		lengths := make([]int, 1+rng.Intn(12))
		for b := range lengths {
			lengths[b] = spanLens[rng.Intn(len(spanLens))]
		}
		src, off := randomBlocks(rng, lengths)
		last := int32(len(lengths) - 1)
		var list []int32
		switch trial % 8 {
		case 0: // empty list
		case 1:
			list = []int32{last}
		default:
			for i := rng.Intn(20); i > 0; i-- {
				list = append(list, int32(rng.Intn(len(lengths))))
			}
			list = append(list, last)
		}
		total := 0
		for _, e := range list {
			total += lengths[e]
		}
		start := rng.Intn(9)
		w := float64(1 + trial%2)

		var want [srcFields][]float64
		for _, e := range list {
			lo, c := int(off[e]), lengths[e]
			for i := 0; i < c; i++ {
				for f := range want {
					v := src[srcFields*lo+f*c+i]
					if f == 3 {
						v *= w
					}
					want[f] = append(want[f], v)
				}
			}
		}

		asm, portable := newSoa(start+total), newSoa(start+total)
		for i := range asm.flat {
			asm.flat[i], portable.flat[i] = gatherCanary, gatherCanary
		}
		nAsm := gatherAsm(&asm, start, src, off, off[1:], list, w)
		nPortable := portable.gather(start, src, off, off[1:], list, w)
		if nAsm != start+total || nPortable != start+total {
			t.Fatalf("trial %d: new length asm %d, portable %d, want %d", trial, nAsm, nPortable, start+total)
		}
		st := len(asm.flat) / srcFields
		for f := 0; f < srcFields; f++ {
			a, p := asm.flat[f*st:(f+1)*st], portable.flat[f*st:(f+1)*st]
			for i := 0; i < st; i++ {
				switch {
				case i < start || i >= nAsm+gatherPad:
					if !isCanary(a[i]) {
						t.Fatalf("trial %d: assembly wrote field %d element %d, outside [%d, %d+%d)", trial, f, i, start, nAsm, gatherPad)
					}
				case i < nAsm:
					if a[i] != p[i] || a[i] != want[f][i-start] {
						t.Fatalf("trial %d (lengths %v, list %v, start %d, w %v): field %d element %d: assembly %v, portable %v, layout %v",
							trial, lengths, list, start, w, f, i, a[i], p[i], want[f][i-start])
					}
				}
				if (i < start || i >= nPortable) && !isCanary(p[i]) {
					t.Fatalf("trial %d: portable gather wrote field %d element %d, outside [%d, %d)", trial, f, i, start, nPortable)
				}
			}
		}
	}
}

// No canary reaches a sum, and no worker writes another's scratch: a whole
// evaluation with every word of the workers' streams, lane streams and
// outer operands and of the sources' padding set to a NaN gives the bits of
// a clean one, and leaves the idle worker's scratch untouched.
func TestGatherCanariesStayDead(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA on this host")
	}
	for _, tier := range streamBitsTiers {
		p := mortonParams()
		p.Precision = tier.prec
		f := newStreamFixture(t, tier.name, molecule.GenProtein("canary", 400, 17), p)
		ctx := NewEpolContext(f.sys, f.radii)
		il := f.sys.Lists(nil).Epol
		sweep := func(sc *epolScratch) (acc epolAccum) {
			for tile := range il.tiles() {
				epolTile(ctx, il, tile, sc, &acc)
			}
			return acc
		}
		clean := sweep(&listScratch(ctx, il, 1)[0])

		scratch := listScratch(ctx, il, 2)
		flats := func(sc *epolScratch) [][]float64 {
			fl := [][]float64{sc.s.flat, sc.o.flat}
			for l := range sc.lanes.s {
				fl = append(fl, sc.lanes.s[l].flat)
			}
			return fl
		}
		for w := range scratch {
			for _, flat := range flats(&scratch[w]) {
				for i := range flat {
					flat[i] = gatherCanary
				}
			}
		}
		for _, src := range [][]float64{ctx.stream.atoms, ctx.stream.bins} {
			for i := len(src) - gatherPad; i < len(src); i++ {
				src[i] = gatherCanary
			}
		}
		got := sweep(&scratch[0])
		if math.Float64bits(got.energy) != math.Float64bits(clean.energy) {
			t.Errorf("%s: pair sum %v (%#x) over canary-filled scratch, %v (%#x) over clean scratch",
				tier.name, got.energy, math.Float64bits(got.energy), clean.energy, math.Float64bits(clean.energy))
		}
		for _, flat := range flats(&scratch[1]) {
			for i, v := range flat {
				if !isCanary(v) {
					t.Fatalf("%s: the idle worker's scratch was written at %d", tier.name, i)
				}
			}
		}
	}
}
