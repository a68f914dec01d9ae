package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
)

// streamBitsCase is one molecule × parameter set of TestStreamBitsUnchanged.
type streamBitsCase struct {
	name   string
	mol    func() *molecule.Molecule
	params func(*Params)
}

// zeroBlockProtein is a protein whose atoms in one octant about the
// centroid carry no charge: the leaves there bin nothing, so their
// occupied-bin spans — as stream entries and as outer operands — are
// empty.
func zeroBlockProtein() *molecule.Molecule {
	mol := molecule.GenProtein("zero-block", 700, 9)
	var c geom.Vec3
	for _, a := range mol.Atoms {
		c = c.Add(a.Pos)
	}
	c = c.Scale(1 / float64(len(mol.Atoms)))
	for i := range mol.Atoms {
		if p := mol.Atoms[i].Pos; p.X < c.X && p.Y < c.Y && p.Z < c.Z {
			mol.Atoms[i].Charge = 0
		}
	}
	return mol
}

// dumbbell is two small proteins 400 Å apart: at ε = 0.05 the opening
// multiplier is 41, so only a molecule this long has a far field at all —
// and its far nodes then hold tens of atoms in many narrow bins.
func dumbbell() *molecule.Molecule {
	mol := molecule.GenProtein("dumbbell", 300, 11)
	far := molecule.GenProtein("dumbbell", 300, 12)
	far.ApplyTransform(geom.Translate(geom.V(400, 0, 0)))
	mol.Atoms = append(mol.Atoms, far.Atoms...)
	return mol
}

var streamBitsCases = []streamBitsCase{
	{name: "protein1500", mol: func() *molecule.Molecule { return molecule.GenProtein("bits", 1500, 7) }},
	{name: "capsid", mol: func() *molecule.Molecule { return molecule.GenCapsid("bits", 900, 16, 20, 4) }},
	{name: "two-atom", mol: func() *molecule.Molecule {
		return &molecule.Molecule{Name: "two", Atoms: []molecule.Atom{
			{Pos: geom.V(0, 0, 0), Charge: 0.7, Radius: 1.5},
			{Pos: geom.V(2.1, 0.4, -0.3), Charge: -0.3, Radius: 1.9},
		}}
	}},
	{name: "one-leaf", mol: func() *molecule.Molecule { return molecule.GenProtein("l", 6, 5) }},
	{name: "zero-block", mol: zeroBlockProtein},
	{name: "leafcap1", mol: func() *molecule.Molecule { return molecule.GenProtein("bits", 600, 8) }, params: func(p *Params) { p.LeafCap = 1 }},
	{name: "leafcap3", mol: func() *molecule.Molecule { return molecule.GenProtein("bits", 600, 8) }, params: func(p *Params) { p.LeafCap = 3 }},
	{name: "leafcap32", mol: func() *molecule.Molecule { return molecule.GenProtein("bits", 600, 8) }, params: func(p *Params) { p.LeafCap = 32 }},
	{name: "eps005", mol: dumbbell, params: func(p *Params) { p.EpsEpol = 0.05 }},
}

// streamBitsTiers are the float64 tiers, whose stream the gather feeds
// unchanged numbers in an unchanged order.
var streamBitsTiers = []struct {
	name string
	prec Precision
}{
	{"exact", PrecisionExact},
	{"lanes", PrecisionLanes},
}

// streamBitsGolden is E_pol's bit pattern with the assembly kernels and
// with the portable ones, and the evaluation's op count.
type streamBitsGolden struct {
	asm, portable uint64
	ops           float64
}

// E_pol, to the last bit, with the assembly kernels and — `-tags purego`,
// or the dispatch switch off — with the portable ones: one worker, so the
// row and merge order is fixed; each case fresh, after three repaired
// jiggles, and after a rigid re-pose (GBPOL_STREAM_BITS_RECORD=1 prints the
// table). The goldens were recorded first on the commit before the
// leaf-blocked gather source, and re-recorded once, when the E_pol tiles
// came: a tile's shared runs are swept once against all of its rows, which
// changes the order E_pol's terms are summed in — every value moved by at
// most 2.3e-15 relative, and every op count held. Four lanes rows
// (zero-block/repaired, leafcap3/reposed, leafcap32/fresh and
// leafcap32/reposed) had their assembly side re-recorded once more when
// the Born near sweep moved to the row kernel: the laned tier's assembly
// Born sums were those of an FMA kernel and are now the scalar loop's, so
// its Born radii, and E_pol after them, moved by 1–2 ulp; the exact rows
// and every portable value held. The exact tier's assembly runs with the
// AVX-512F stream kernel dispatched where the host has it and forced off,
// to the same golden.
func TestStreamBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("other architectures fuse multiply-adds differently; the bits are a statement about amd64")
	}
	record := os.Getenv("GBPOL_STREAM_BITS_RECORD") == "1"
	defer func(v bool) { useAsmKernels, useAVX512 = v, hostAVX512 }(useAsmKernels)
	hostAsm := useAsmKernels
	for _, c := range streamBitsCases {
		params := mortonParams()
		if c.params != nil {
			c.params(&params)
		}
		mol := c.mol()
		f := newStreamFixture(t, c.name, mol, params)
		sys := f.sys
		if c.name == "eps005" || c.name == "zero-block" {
			checkStreamBitsFixture(t, f)
		}
		check := func(stage string) {
			for _, tier := range streamBitsTiers {
				key := c.name + "/" + stage + "/" + tier.name
				var got streamBitsGolden
				for _, asm := range []bool{true, false} {
					if asm && !hostAsm {
						continue
					}
					useAsmKernels = asm
					sys.Params.Precision = tier.prec
					for i, zmm := range avx512Sides() {
						useAVX512 = zmm
						res, err := RunShared(sys, SharedOptions{Threads: 1})
						if err != nil {
							t.Fatal(err)
						}
						bits := math.Float64bits(res.Epol)
						switch {
						case !asm:
							got.portable = bits
						case i == 0:
							got.asm = bits
						case bits != got.asm:
							t.Errorf("%s: E_pol bits %#x with the AVX-512F kernel, %#x without", key, got.asm, bits)
						}
						got.ops = res.Ops
					}
				}
				if record {
					fmt.Printf("STREAMBITS\t%q: {%#x, %#x, %v},\n", key, got.asm, got.portable, got.ops)
					continue
				}
				want, ok := streamBitsGoldens[key]
				if !ok {
					t.Fatalf("no golden for %s", key)
				}
				if hostAsm && got.asm != want.asm {
					t.Errorf("%s: assembly E_pol bits %#x (%.17g), parent had %#x (%.17g)",
						key, got.asm, math.Float64frombits(got.asm), want.asm, math.Float64frombits(want.asm))
				}
				if got.portable != want.portable {
					t.Errorf("%s: portable E_pol bits %#x (%.17g), parent had %#x (%.17g)",
						key, got.portable, math.Float64frombits(got.portable), want.portable, math.Float64frombits(want.portable))
				}
				if got.ops != want.ops {
					t.Errorf("%s: ops %v, parent had %v", key, got.ops, want.ops)
				}
			}
		}
		check("fresh")

		rng := rand.New(rand.NewSource(31))
		pos := mol.Positions()
		for step := 0; step < 3; step++ {
			pos = jigglePositions(rng, pos, 0.03)
			if _, err := sys.UpdateAtomsRepair(pos, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		check("repaired")

		sys.ApplyRigidTransform(geom.Translate(geom.V(3, -2, 5)).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.7)))
		check("reposed")
	}
}

// checkStreamBitsFixture asserts that a case exercises what it is there
// for: far entries longer than one chunk of four (eps005), or rows and far
// entries whose occupied-bin span is empty (zero-block).
func checkStreamBitsFixture(t *testing.T, f streamFixture) {
	t.Helper()
	name := f.name
	ctx := NewEpolContext(f.sys, f.radii)
	il := f.sys.Lists(nil).Epol
	long, empty := 0, 0
	for _, n := range slices.Concat(il.OwnFar, il.TileFar) {
		switch c := ctx.nzOff[n+1] - ctx.nzOff[n]; {
		case c > 4:
			long++
		case c == 0:
			empty++
		}
	}
	t.Logf("%s: %d far entries, %d of more than four bins, %d of none", name, len(il.OwnFar), long, empty)
	if name == "eps005" && long == 0 {
		t.Fatalf("%s has no far entry of more than four occupied bins", name)
	}
	if name == "zero-block" && empty == 0 {
		t.Fatalf("%s has no far entry with an empty occupied-bin span", name)
	}
}

var streamBitsGoldens = map[string]streamBitsGolden{
	"protein1500/fresh/exact":    {0xc0ada03712907dfa, 0xc0ada03712907df6, 3.259842e+06},
	"protein1500/fresh/lanes":    {0xc0ada03711a7f04b, 0xc0ada03711a6e311, 3.259842e+06},
	"protein1500/repaired/exact": {0xc0adc16959d0eb70, 0xc0adc16959d0eb70, 3.223888e+06},
	"protein1500/repaired/lanes": {0xc0adc1695901a961, 0xc0adc1695900c37f, 3.223888e+06},
	"protein1500/reposed/exact":  {0xc0adc16959d0eb73, 0xc0adc16959d0eb73, 3.223888e+06},
	"protein1500/reposed/lanes":  {0xc0adc1695901a966, 0xc0adc1695900c37e, 3.223888e+06},
	"capsid/fresh/exact":         {0xc09a01f429e74513, 0xc09a01f429e74515, 2.162016e+06},
	"capsid/fresh/lanes":         {0xc09a01f42a11d6dc, 0xc09a01f42a11ce7b, 2.162016e+06},
	"capsid/repaired/exact":      {0xc09a135f5a6e6fae, 0xc09a135f5a6e6fb0, 2.088015e+06},
	"capsid/repaired/lanes":      {0xc09a135f5b0c3494, 0xc09a135f5b0c1ad1, 2.088015e+06},
	"capsid/reposed/exact":       {0xc09a135f5a6e6fae, 0xc09a135f5a6e6fb0, 2.088015e+06},
	"capsid/reposed/lanes":       {0xc09a135f5b0c3493, 0xc09a135f5b0c1ad2, 2.088015e+06},
	"two-atom/fresh/exact":       {0xc0276774dd44071b, 0xc0276774dd44071b, 2142},
	"two-atom/fresh/lanes":       {0xc0276774dd462534, 0xc0276774dd403e01, 2142},
	"two-atom/repaired/exact":    {0xc026e6eb593805e8, 0xc026e6eb593805e8, 2152},
	"two-atom/repaired/lanes":    {0xc026e6eb593a16ff, 0xc026e6eb59335aeb, 2152},
	"two-atom/reposed/exact":     {0xc026e6eb593805e6, 0xc026e6eb593805e6, 2152},
	"two-atom/reposed/lanes":     {0xc026e6eb593a16ff, 0xc026e6eb59335aeb, 2152},
	"one-leaf/fresh/exact":       {0xc042f9c97d3123fd, 0xc042f9c97d3123fd, 6140},
	"one-leaf/fresh/lanes":       {0xc042f9c97cf78aa8, 0xc042f9c97cf73456, 6140},
	"one-leaf/repaired/exact":    {0xc042f7b8649cc0c1, 0xc042f7b8649cc0c2, 6140},
	"one-leaf/repaired/lanes":    {0xc042f7b863a31ba7, 0xc042f7b863a2d2ee, 6140},
	"one-leaf/reposed/exact":     {0xc042f7b8649cc0c1, 0xc042f7b8649cc0c2, 6140},
	"one-leaf/reposed/lanes":     {0xc042f7b863a31ba7, 0xc042f7b863a2d2ef, 6140},
	"zero-block/fresh/exact":     {0xc082616c7aa78eba, 0xc082616c7aa78eb9, 890902},
	"zero-block/fresh/lanes":     {0xc082616c7a858507, 0xc082616c7a853d27, 890902},
	"zero-block/repaired/exact":  {0xc082566f5ce2ffb6, 0xc082566f5ce2ffb6, 892256},
	"zero-block/repaired/lanes":  {0xc082566f5dd9c775, 0xc082566f5dd94d2b, 892256},
	"zero-block/reposed/exact":   {0xc082566f5ce2ffb6, 0xc082566f5ce2ffb6, 892256},
	"zero-block/reposed/lanes":   {0xc082566f5dd9c773, 0xc082566f5dd94d2a, 892256},
	"leafcap1/fresh/exact":       {0xc08552671b3abe98, 0xc08552671b3abe98, 723605},
	"leafcap1/fresh/lanes":       {0xc08552671abccfc7, 0xc08552671abc6ec4, 723605},
	"leafcap1/repaired/exact":    {0xc085bbdb460ca357, 0xc085bbdb460ca357, 734696},
	"leafcap1/repaired/lanes":    {0xc085bbdb46d899a4, 0xc085bbdb46d822ff, 734696},
	"leafcap1/reposed/exact":     {0xc085bbdb460ca357, 0xc085bbdb460ca356, 734696},
	"leafcap1/reposed/lanes":     {0xc085bbdb46d899a0, 0xc085bbdb46d82302, 734696},
	"leafcap3/fresh/exact":       {0xc0862cf8a40999d0, 0xc0862cf8a40999d3, 612264},
	"leafcap3/fresh/lanes":       {0xc0862cf8a410006b, 0xc0862cf8a40f5832, 612264},
	"leafcap3/repaired/exact":    {0xc085cf30e2b4b262, 0xc085cf30e2b4b262, 616987},
	"leafcap3/repaired/lanes":    {0xc085cf30e370a376, 0xc085cf30e36ff3c4, 616987},
	"leafcap3/reposed/exact":     {0xc085cf30e2b4b260, 0xc085cf30e2b4b262, 616987},
	"leafcap3/reposed/lanes":     {0xc085cf30e370a375, 0xc085cf30e36ff3c5, 616987},
	"leafcap32/fresh/exact":      {0xc0861c0654297702, 0xc0861c0654297708, 1.682145e+06},
	"leafcap32/fresh/lanes":      {0xc0861c06562855c1, 0xc0861c0656283182, 1.682145e+06},
	"leafcap32/repaired/exact":   {0xc086126384c76354, 0xc086126384c76359, 1.610806e+06},
	"leafcap32/repaired/lanes":   {0xc086126385e7c610, 0xc086126385e7af68, 1.610806e+06},
	"leafcap32/reposed/exact":    {0xc086126384c76358, 0xc086126384c7635a, 1.610806e+06},
	"leafcap32/reposed/lanes":    {0xc086126385e7c612, 0xc086126385e7af67, 1.610806e+06},
	"eps005/fresh/exact":         {0xc040cb68626cc686, 0xc040cb68626cc686, 222239},
	"eps005/fresh/lanes":         {0xc040cb68626f70d7, 0xc040cb68626e60cf, 222239},
	"eps005/repaired/exact":      {0xc040ca4286706239, 0xc040ca428670623a, 223154},
	"eps005/repaired/lanes":      {0xc040ca428674b725, 0xc040ca428673a5d9, 223154},
	"eps005/reposed/exact":       {0xc040ca428670623a, 0xc040ca4286706238, 223154},
	"eps005/reposed/lanes":       {0xc040ca428674b724, 0xc040ca428673a5d7, 223154},
}
