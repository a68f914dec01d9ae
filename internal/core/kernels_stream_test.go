package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// streamTiers are the two compiled-kernel tiers with the tolerance each
// holds against the per-entry oracles (kernels_oracle_test.go): the
// portable kernels evaluate the oracles' own terms in another order
// (1e-12), and the assembly adds FMA contraction and a polynomial exp on
// the laned tier (1e-9, TestAsmKernelsMatchPortable's bound) and nothing
// above 1e-13 on the exact tier.
var streamTiers = []struct {
	name             string
	prec             Precision
	portable, asmTol float64
}{
	{"exact", PrecisionExact, 1e-12, 1e-12},
	{"lanes", PrecisionLanes, 1e-12, 1e-9},
}

// hostAVX512 is the host's AVX-512 dispatch, whatever a test has set
// useAVX512 to since.
var hostAVX512 = useAVX512

// avx512Sides are the useAVX512 settings a kernel-identity test runs
// under: the host's dispatch and, where that is AVX-512F, forced off.
func avx512Sides() []bool {
	if hostAVX512 {
		return []bool{true, false}
	}
	return []bool{false}
}

// dimerMolecule is a lattice of ±q dimers 0.6 Å apart: the two atoms of
// a dimer see the same environment, land in the same Born-radius bin and
// cancel there EXACTLY, so most leaves have an empty occupied-bin list —
// the far field's degenerate case: far entries with no histogram terms.
func dimerMolecule(side int) *molecule.Molecule {
	mol := &molecule.Molecule{Name: "dimers"}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				c := geom.V(float64(i), float64(j), float64(k)).Scale(4.5)
				mol.Atoms = append(mol.Atoms,
					molecule.Atom{Pos: c.Add(geom.V(0.3, 0, 0)), Charge: 0.4, Radius: 1.7},
					molecule.Atom{Pos: c.Sub(geom.V(0.3, 0, 0)), Charge: -0.4, Radius: 1.7})
			}
		}
	}
	return mol
}

// streamFixture is a system with its Born radii in slot order — what an
// E_pol sweep starts from.
type streamFixture struct {
	name  string
	sys   *System
	radii []float64
}

func newStreamFixture(t testing.TB, name string, mol *molecule.Molecule, params Params) streamFixture {
	t.Helper()
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	radii := make([]float64, len(res.BornRadii))
	for slot, orig := range sys.Atoms.Index {
		radii[slot] = res.BornRadii[orig]
	}
	return streamFixture{name, sys, radii}
}

func streamFixtures(t testing.TB, params Params) []streamFixture {
	two := &molecule.Molecule{Name: "two", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Charge: 0.7, Radius: 1.5},
		{Pos: geom.V(2.1, 0.4, -0.3), Charge: -0.3, Radius: 1.9},
	}}
	return []streamFixture{
		newStreamFixture(t, "globular", molecule.GenProtein("g", 700, 3), params),
		newStreamFixture(t, "shell", molecule.GenCapsid("s", 700, 16, 20, 4), params),
		newStreamFixture(t, "one-leaf", molecule.GenProtein("l", 6, 5), params),
		newStreamFixture(t, "two-atom", two, params),
		newStreamFixture(t, "dimers", dimerMolecule(5), params),
	}
}

// sweep evaluates every compiled tile with the production sweep on a pool
// of p workers.
func (f streamFixture) sweep(ctx *EpolContext, il *InteractionLists, p int) epolAccum {
	pool := sched.NewPool(p)
	defer pool.Close()
	scratch := newEpolScratch(ctx, il, p)
	accs := make([]epolAccum, p)
	tiles := il.tiles()
	sched.ParallelFor(pool, tiles, rowGrain(tiles, p), func(lo, hi, w int) {
		for tile := lo; tile < hi; tile++ {
			epolTile(ctx, il, tile, &scratch[w], &accs[w])
		}
	})
	var sum epolAccum
	for _, a := range accs {
		sum.energy += a.energy
		sum.ops += a.ops
		sum.nearTerms += a.nearTerms
		sum.farTerms += a.farTerms
		sum.gatherAtoms += a.gatherAtoms
		sum.gatherSpans += a.gatherSpans
	}
	return sum
}

// The differential harness of the gather-then-stream driver: against the
// per-entry oracles over molecule shape × tier × pool size — the raw pair
// sum to the tier's tolerance, Ops EXACTLY (the driver charges per row what
// the oracles charge per entry, a tile's shared entry once for each of its
// rows), and the streamed-work counters against the lists they are derived
// from. The oracles read the lists merged back into rows (perRowLists).
func TestStreamDriverMatchesPerEntryOracles(t *testing.T) {
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	hostAsm := useAsmKernels
	for _, f := range streamFixtures(t, DefaultParams()) {
		il := f.sys.Lists(nil).Epol
		rows := perRowLists(il, f.sys.Atoms)
		if f.name == "dimers" {
			ctx := NewEpolContext(f.sys, f.radii)
			degenerate := 0
			for row, leaf := range rows.Rows {
				if ctx.nzOff[leaf] == ctx.nzOff[leaf+1] && rows.FarOff[row] < rows.FarOff[row+1] {
					degenerate++
				}
			}
			if degenerate == 0 {
				t.Fatal("dimers fixture has no row with an empty histogram and far entries")
			}
		}
		for _, tier := range streamTiers {
			f.sys.Params.Precision = tier.prec
			useAsmKernels = false
			ctx := NewEpolContext(f.sys, f.radii)
			oracle := newEpolOracle(ctx)
			conv := make([]float64, len(ctx.rr))
			var want epolAccum
			for row := range rows.Rows {
				epolRowOracle(oracle, rows, row, conv, &want)
			}
			for _, asm := range []bool{false, true} {
				if asm && !hostAsm {
					continue
				}
				useAsmKernels = asm
				ctx := NewEpolContext(f.sys, f.radii)
				tol := tier.portable
				if asm {
					tol = tier.asmTol
				}
				for _, p := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/asm=%v/pool=%d", f.name, tier.name, asm, p)
					got := f.sweep(ctx, il, p)
					if e := relErr(got.energy, want.energy); !(e <= tol) {
						t.Errorf("%s: pair sum %.17g vs oracle %.17g (rel %.3g > %.0e)", name, got.energy, want.energy, e, tol)
					}
					if got.ops != want.ops {
						t.Errorf("%s: ops %v, oracle %v", name, got.ops, want.ops)
					}
					// A shared entry is gathered once, an own one once for each
					// row its mask names.
					own := popcount(il.OwnNearMask) + popcount(il.OwnSymMask) + popcount(il.OwnFarMask)
					if entries := float64(own + len(il.TileNear) + len(il.TileSym) + len(il.TileFar)); got.gatherSpans != entries {
						t.Errorf("%s: gathered for %v list entries, lists hold %v", name, got.gatherSpans, entries)
					}
					if got.nearTerms <= 0 || (il.NumFar() > 0 && f.name != "dimers" && got.farTerms <= 0) {
						t.Errorf("%s: near_terms %v, far_terms %v", name, got.nearTerms, got.farTerms)
					}
				}
			}
		}
	}
}

// The exact tier's assembly against its portable kernel on a whole
// evaluation: every step but the exponential is the same IEEE operation,
// the exponential is within 1 ulp of math.Exp's, and the lane reduction
// reorders the sum — 1e-13 relative bounds all three.
//
// The assembly runs with the AVX-512F kernel dispatched where the host has
// it and forced off: the two return the same bits.
func TestStreamExactAsmMatchesPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA assembly kernels in this build or on this host")
	}
	defer func() { useAsmKernels, useAVX512 = true, hostAVX512 }()
	sys, _, _ := testSystem(t, 4000, 95, DefaultParams())
	sides := avx512Sides()
	var asm []*Result
	for _, zmm := range sides {
		useAVX512 = zmm
		asm = append(asm, runTier(t, sys, PrecisionExact))
	}
	useAsmKernels = false
	portable := runTier(t, sys, PrecisionExact)
	for i, res := range asm {
		if math.Float64bits(res.Epol) != math.Float64bits(asm[0].Epol) {
			t.Errorf("exact tier: AVX2 E_pol %.17g, AVX-512F %.17g", res.Epol, asm[0].Epol)
		}
		e := relErr(res.Epol, portable.Epol)
		t.Logf("exact tier (AVX-512F %v): asm vs portable E_pol rel err %.3g", sides[i], e)
		if !(e <= 1e-13) {
			t.Errorf("exact tier: asm E_pol %.17g vs portable %.17g, rel err %.3g > 1e-13", res.Epol, portable.Epol, e)
		}
	}
}

// randomSoa fills n atoms in a 20 Å box with positive charges (so no
// cancellation hides a missed or doubled tail element).
func randomSoa(rng *rand.Rand, n int) soa {
	a := newSoa(n)
	for i := 0; i < n; i++ {
		a.x[i], a.y[i], a.z[i] = 20*rng.Float64(), 20*rng.Float64(), 20*rng.Float64()
		a.q[i], a.r[i] = 0.1+rng.Float64(), 1+3*rng.Float64()
		a.ir[i] = 1 / a.r[i]
	}
	return a
}

// refStream is the kernels' defining sum in plain float64.
func refStream(o, s *soa) float64 {
	var e float64
	for a := range o.x {
		for i := range s.x {
			dx, dy, dz := o.x[a]-s.x[i], o.y[a]-s.y[i], o.z[a]-s.z[i]
			r2, rr := dx*dx+dy*dy+dz*dz, o.r[a]*s.r[i]
			e += o.q[a] * s.q[i] / math.Sqrt(r2+rr*math.Exp(-r2/(4*rr)))
		}
	}
	return e
}

// Tails and hazards of every stream kernel: stream lengths 0…33 and
// 2^k−1, 2^k, 2^k+1 above (every lane-remainder of the width-4 kernels, and
// of the AVX-512F kernels' blocks of eight and trips of sixteen) × outer
// lengths 0…3 against the defining sum; an outer atom exactly at the origin
// (masked-off tail lanes would compute 0/√0 there); zero charges.
func TestStreamKernelTailsAndHazards(t *testing.T) {
	kernels := []struct {
		name string
		fn   func(o, s *soa) float64
		tol  float64
		run  bool
	}{
		{"exact", epolStreamExact, 1e-13, true},
		{"approx", epolStreamApprox, 5e-4, true},
		{"lanes", epolStreamLanes, 5e-4, true},
		{"exact-asm", epolStreamExactAsm, 1e-13, useAsmKernels},
		{"exact-asm8", epolStreamExactAsm8, 1e-13, useAVX512},
		{"lanes-asm", epolStreamLanesAsm, 5e-4, useAsmKernels},
		{"lanes-asm8", epolStreamLanesAsm8, 5e-4, useAVX512},
	}
	var lengths []int
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 63, 64, 65, 127, 128, 129)
	rng := rand.New(rand.NewSource(11))
	for _, n := range lengths {
		for no := 0; no <= 3; no++ {
			s := randomSoa(rng, n)
			o := randomSoa(rng, no)
			if no > 0 {
				o.x[0], o.y[0], o.z[0] = 0, 0, 0 // the origin hazard
			}
			want := refStream(&o, &s)
			for _, k := range kernels {
				if !k.run {
					continue
				}
				got := k.fn(&o, &s)
				if e := relErr(got, want); !(e <= k.tol) {
					t.Errorf("%s: n=%d outer=%d: %.17g vs %.17g (rel %.3g > %.0e)", k.name, n, no, got, want, e, k.tol)
				}
			}

			// Zero charges on either side: exactly zero, never NaN.
			for i := range s.q {
				s.q[i] = 0
			}
			for _, k := range kernels {
				if !k.run {
					continue
				}
				if got := k.fn(&o, &s); got != 0 {
					t.Errorf("%s: n=%d outer=%d: zero stream charges give %v", k.name, n, no, got)
				}
			}
		}
	}
}

// randomStreamShape is one shape of the kernel-identity tests: outer 0–17
// atoms and stream 0–130 — every remainder mod 4, 8 and 16 of the stream, so
// every path through the AVX-512F kernels' two-block trips, single block and
// masked tail — with mixed-sign stream charges, an outer atom at the origin
// in a third of the trials (the masked lanes' 0/√0 hazard) and zero charges
// in a fifth of them, some stream charges or all.
func randomStreamShape(rng *rand.Rand, trial int) (o, s soa) {
	no, n := rng.Intn(18), rng.Intn(131)
	o, s = randomSoa(rng, no), randomSoa(rng, n)
	for i := range s.q {
		s.q[i] -= 0.6
	}
	if no > 0 && trial%3 == 0 {
		o.x[0], o.y[0], o.z[0] = 0, 0, 0
	}
	if trial%5 == 0 {
		for i := range s.q {
			if trial%2 == 0 || rng.Intn(2) == 0 {
				s.q[i] = 0
			}
		}
	}
	return o, s
}

// sameKernelBits runs want and got on trials random shapes
// (randomStreamShape) and fails at the first whose float64 differs.
func sameKernelBits(t *testing.T, seed int64, trials int, got, want func(o, s *soa) float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		o, s := randomStreamShape(rng, trial)
		w, g := want(&o, &s), got(&o, &s)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("trial %d (outer %d, stream %d): %v (%#x), want %v (%#x)",
				trial, len(o.x), len(s.x), g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// The exact tier's AVX-512F stream kernel returns epolStreamExact4's bits on
// every shape: 3 600 random outer × stream operands (randomStreamShape).
func TestEpolStreamExact8MatchesExact4(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512F on this host")
	}
	sameKernelBits(t, 33, 3600, epolStreamExactAsm8, epolStreamExactAsm)
}

// The lanes tier's AVX-512F stream kernel returns epolStreamLanes4's bits on
// every shape: 4 000 random outer × stream operands (randomStreamShape).
func TestEpolStreamLanes8MatchesLanes4(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512F on this host")
	}
	sameKernelBits(t, 34, 4000, epolStreamLanesAsm8, epolStreamLanesAsm)
}

// Dropping the old exact kernels' expSkip branch changed no bit: beyond
// r² = 160·R_uR_v the smoothing term rounds away, so f² == r² bitwise
// with or without the exp call — for the recursion's exponent −r²/4rr and
// for the stream kernel's reciprocal form alike — and a stream sweep with
// the branch restored returns the identical float64.
func TestExpSkipBitwiseNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1_000_000; i++ {
		ru, rv := 0.8+6*rng.Float64(), 0.8+6*rng.Float64()
		rr := ru * rv
		r2 := rr * expSkip * (1 + math.Exp(8*rng.Float64())*rng.Float64())
		if f2 := r2 + rr*math.Exp(-r2/(4*rr)); f2 != r2 {
			t.Fatalf("r²=%v rr=%v: f² = %v differs from r² past the skip threshold", r2, rr, f2)
		}
		if f2 := r2 + rr*math.Exp(-r2*(0.25*(1/ru))*(1/rv)); f2 != r2 {
			t.Fatalf("r²=%v rr=%v: reciprocal-form f² = %v differs from r²", r2, rr, f2)
		}
	}

	// A stream with most atoms past the threshold: 300 Å box, radii ~1–4.
	s := randomSoa(rng, 4096)
	for i := range s.x {
		s.x[i], s.y[i], s.z[i] = 15*s.x[i], 15*s.y[i], 15*s.z[i]
		s.q[i] -= 0.6
	}
	o := randomSoa(rng, 3)
	var withSkip float64
	skipped := 0
	for a := range o.x {
		c := 0.25 * o.ir[a]
		var sum float64
		for i := range s.x {
			dx, dy, dz := o.x[a]-s.x[i], o.y[a]-s.y[i], o.z[a]-s.z[i]
			r2 := dx*dx + dy*dy + dz*dz
			rr := o.r[a] * s.r[i]
			f2 := r2
			if r2 < expSkip*rr {
				f2 = r2 + rr*math.Exp(-r2*c*s.ir[i])
			} else {
				skipped++
			}
			sum += s.q[i] / math.Sqrt(f2)
		}
		withSkip += o.q[a] * sum
	}
	if skipped < 1000 {
		t.Fatalf("only %d of %d pairs past the skip threshold", skipped, 3*4096)
	}
	if got := epolStreamExact(&o, &s); math.Float64bits(got) != math.Float64bits(withSkip) {
		t.Errorf("epolStreamExact %x vs the same loop with expSkip %x", math.Float64bits(got), math.Float64bits(withSkip))
	}
}

// gatherCanary is the NaN the gather tests pre-fill storage with: a store
// anywhere it must not land changes the bit pattern.
var gatherCanary = math.Float64frombits(0x7ff8dead0000beef)

func isCanary(v float64) bool { return math.Float64bits(v) == math.Float64bits(gatherCanary) }

// randomBlocks builds a blocked gather source of the given block lengths
// with a distinct value in every field of every element, its padding set to
// the canary, and the blocks' offset table (block b is [off[b], off[b+1])).
func randomBlocks(rng *rand.Rand, lengths []int) (src []float64, off []int32) {
	off = make([]int32, len(lengths)+1)
	for b, c := range lengths {
		off[b+1] = off[b] + int32(c)
	}
	src = make([]float64, srcFields*int(off[len(lengths)])+gatherPad)
	for i := range src {
		src[i] = 1 + rng.Float64()
	}
	for i := len(src) - gatherPad; i < len(src); i++ {
		src[i] = gatherCanary
	}
	return src, off
}

// The masked gather that fills a tile's lane streams (epolTier.laneGather:
// gatherMaskedAsm on AVX2 hosts, laneStreams.gather in every build) against
// the gather of one stream (soa.gather), lane by lane: each lane's stream is,
// element for element, the portable gather of the entries whose mask has
// its bit, and its entry count theirs. Span lengths on both sides of every
// chunk boundary, empty spans, lists ending on the source's last block,
// masks of one lane to eight, both weights, lanes of every capacity; the
// lanes are pre-filled with canaries, and the copy may write at most three
// lanes past a lane's new end (gatherPad) and nothing else. Into lanes with
// room for a part, the gather stops before the first entry that does not
// fit, and laneStreams.fill, which grows them, ends with the same streams.
func TestLaneGatherMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	spanLens := []int{0, 1, 2, 3, 4, 5, 8, 9, 33}
	gathers := map[string]laneGatherFunc{"portable": (*laneStreams).gather}
	if useAsmKernels {
		gathers["asm"] = gatherMaskedAsm
	}
	for trial := 0; trial < 400; trial++ {
		lengths := make([]int, 1+rng.Intn(12))
		for b := range lengths {
			lengths[b] = spanLens[rng.Intn(len(spanLens))]
		}
		src, off := randomBlocks(rng, lengths)
		var list []int32
		var masks []uint8
		for i := rng.Intn(20); i >= 0; i-- {
			list = append(list, int32(rng.Intn(len(lengths))))
			masks = append(masks, uint8(1+rng.Intn(255)))
		}
		list[len(list)-1] = int32(len(lengths) - 1)
		w := float64(1 + trial%2)
		// Each lane: its entries, gathered into one stream.
		var want [tileLanes]soa
		var n, spans [tileLanes]int
		for l := range want {
			lane := laneRun(nil, list, masks, l)
			for _, e := range lane {
				n[l] += lengths[e]
			}
			want[l] = newSoa(n[l])
			want[l].gather(0, src, off, off[1:], lane, w)
			spans[l] = len(lane)
		}
		for name, gather := range gathers {
			// Lanes with room for all, and lanes with room for a part, which
			// the gather stops short of and fill grows.
			for _, short := range []bool{false, true} {
				var ls laneStreams
				for l := range ls.s {
					c := n[l] + rng.Intn(3)
					if short {
						c = rng.Intn(n[l] + 1)
					}
					ls.set(l, newSoa(c))
					for i := range ls.s[l].flat {
						ls.s[l].flat[i] = gatherCanary
					}
				}
				if short {
					ls.fill(&epolTier{laneGather: gather}, src, off, off[1:], list, masks, w)
				} else if got := gather(&ls, src, off, off[1:], list, masks, w, 0); got != len(list) {
					t.Fatalf("trial %d, %s: gathered %d of %d entries into lanes with room for all", trial, name, got, len(list))
				}
				for l := range ls.s {
					if ls.n[l] != n[l] || ls.spans[l] != spans[l] {
						t.Fatalf("trial %d, %s, short %v, lane %d: %d elements of %d entries, want %d of %d", trial, name, short, l, ls.n[l], ls.spans[l], n[l], spans[l])
					}
					st, pad := ls.stride[l], gatherPad
					if name == "portable" {
						pad = 0
					}
					for f := 0; f < srcFields; f++ {
						got := ls.s[l].flat[f*st : (f+1)*st]
						for i, v := range got {
							switch {
							case i < n[l]:
								if math.Float64bits(v) != math.Float64bits(want[l].flat[f*(n[l]+gatherPad)+i]) {
									t.Fatalf("trial %d, %s, short %v, lane %d: field %d element %d is %v, the lane's gather %v", trial, name, short, l, f, i, v, want[l].flat[f*(n[l]+gatherPad)+i])
								}
							case i >= n[l]+pad && !isCanary(v) && !short:
								t.Fatalf("trial %d, %s, lane %d: field %d element %d written, past [0, %d+%d)", trial, name, l, f, i, n[l], pad)
							}
						}
					}
				}
			}
		}
	}
}
