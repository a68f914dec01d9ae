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

// sweep evaluates every compiled row with the production driver on a pool
// of p workers.
func (f streamFixture) sweep(ctx *EpolContext, il *InteractionLists, p int) epolAccum {
	pool := sched.NewPool(p)
	defer pool.Close()
	scratch := newEpolScratch(ctx, il, p)
	accs := make([]epolAccum, p)
	sched.ParallelFor(pool, len(il.Rows), rowGrain(len(il.Rows), p), func(lo, hi, w int) {
		for row := lo; row < hi; row++ {
			epolRow(ctx, il, row, &scratch[w], &accs[w])
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
// the oracles charge per entry), and the streamed-work counters against the
// lists they are derived from.
func TestStreamDriverMatchesPerEntryOracles(t *testing.T) {
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	hostAsm := useAsmKernels
	for _, f := range streamFixtures(t, DefaultParams()) {
		il := f.sys.Lists(nil).Epol
		if f.name == "dimers" {
			ctx := NewEpolContext(f.sys, f.radii)
			degenerate := 0
			for row, leaf := range il.Rows {
				if ctx.nzOff[leaf] == ctx.nzOff[leaf+1] && il.FarOff[row] < il.FarOff[row+1] {
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
			for row := range il.Rows {
				epolRowOracle(oracle, il, row, conv, &want)
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
					if entries := float64(len(il.Near) + len(il.Sym) + len(il.Far)); got.gatherSpans != entries {
						t.Errorf("%s: gathered for %v list entries, lists hold %v", name, got.gatherSpans, entries)
					}
					if got.nearTerms <= 0 || (len(il.Far) > 0 && f.name != "dimers" && got.farTerms <= 0) {
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
func TestStreamExactAsmMatchesPortable(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA assembly kernels in this build or on this host")
	}
	sys, _, _ := testSystem(t, 4000, 95, DefaultParams())
	asm := runTier(t, sys, PrecisionExact)
	useAsmKernels = false
	defer func() { useAsmKernels = true }()
	portable := runTier(t, sys, PrecisionExact)
	e := relErr(asm.Epol, portable.Epol)
	t.Logf("exact tier: asm vs portable E_pol rel err %.3g", e)
	if !(e <= 1e-13) {
		t.Errorf("exact tier: asm E_pol %.17g vs portable %.17g, rel err %.3g > 1e-13", asm.Epol, portable.Epol, e)
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

// Tails and hazards of every stream kernel: stream lengths 0…9 and 4k±1
// (every lane-remainder of the width-4 kernels) × outer lengths 0…3 against
// the defining sum; an outer atom exactly at the origin (masked-off tail
// lanes would compute 0/√0 there); zero charges.
func TestStreamKernelTailsAndHazards(t *testing.T) {
	kernels := []struct {
		name string
		fn   func(o, s *soa) float64
		tol  float64
		asm  bool
	}{
		{"exact", epolStreamExact, 1e-13, false},
		{"approx", epolStreamApprox, 5e-4, false},
		{"lanes", epolStreamLanes, 5e-4, false},
		{"exact-asm", epolStreamExactAsm, 1e-13, true},
		{"lanes-asm", epolStreamLanesAsm, 5e-4, true},
	}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 129}
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
				if k.asm && !useAsmKernels {
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
				if k.asm && !useAsmKernels {
					continue
				}
				if got := k.fn(&o, &s); got != 0 {
					t.Errorf("%s: n=%d outer=%d: zero stream charges give %v", k.name, n, no, got)
				}
			}
		}
	}
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
