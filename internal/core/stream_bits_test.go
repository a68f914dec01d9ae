package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
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
	math mathx.Mode
}{
	{"exact", PrecisionExact, mathx.Exact},
	{"approx", PrecisionExact, mathx.Approximate},
	{"lanes", PrecisionLanes, mathx.Exact},
}

// streamBitsGolden is E_pol's bit pattern with the assembly kernels and
// with the portable ones, and the evaluation's op count.
type streamBitsGolden struct {
	asm, portable uint64
	ops           float64
}

// E_pol, to the last bit, is what the commit before the leaf-blocked
// gather source computed: every golden below was recorded by this file on
// that commit, before any other line of the change was written
// (GBPOL_STREAM_BITS_RECORD=1 prints the table), with the assembly kernels
// and — `-tags purego`, or the dispatch switch off — with the portable
// ones. One worker, so the row and merge order is fixed; each case fresh,
// after three repaired jiggles, and after a rigid re-pose.
func TestStreamBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("other architectures fuse multiply-adds differently; the bits are a statement about amd64")
	}
	record := os.Getenv("GBPOL_STREAM_BITS_RECORD") == "1"
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
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
					sys.Params.Precision, sys.Params.Math = tier.prec, tier.math
					res, err := RunShared(sys, SharedOptions{Threads: 1})
					if err != nil {
						t.Fatal(err)
					}
					if asm {
						got.asm = math.Float64bits(res.Epol)
					} else {
						got.portable = math.Float64bits(res.Epol)
					}
					got.ops = res.Ops
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
	for _, n := range il.Far {
		switch c := ctx.nzOff[n+1] - ctx.nzOff[n]; {
		case c > 4:
			long++
		case c == 0:
			empty++
		}
	}
	t.Logf("%s: %d far entries, %d of more than four bins, %d of none", name, len(il.Far), long, empty)
	if name == "eps005" && long == 0 {
		t.Fatalf("%s has no far entry of more than four occupied bins", name)
	}
	if name == "zero-block" && empty == 0 {
		t.Fatalf("%s has no far entry with an empty occupied-bin span", name)
	}
}

var streamBitsGoldens = map[string]streamBitsGolden{
	"protein1500/fresh/exact":     {0xc0ada03712907dff, 0xc0ada03712907e05, 3.259842e+06},
	"protein1500/fresh/approx":    {0xc0ada03711a6e315, 0xc0ada03711a6e315, 3.259842e+06},
	"protein1500/fresh/lanes":     {0xc0ada03711a7f040, 0xc0ada03711a6e315, 3.259842e+06},
	"protein1500/repaired/exact":  {0xc0adc16959d0eb6f, 0xc0adc16959d0eb6d, 3.223888e+06},
	"protein1500/repaired/approx": {0xc0adc1695900c38d, 0xc0adc1695900c38d, 3.223888e+06},
	"protein1500/repaired/lanes":  {0xc0adc1695901a951, 0xc0adc1695900c38d, 3.223888e+06},
	"protein1500/reposed/exact":   {0xc0adc16959d0eb74, 0xc0adc16959d0eb72, 3.223888e+06},
	"protein1500/reposed/approx":  {0xc0adc1695900c391, 0xc0adc1695900c391, 3.223888e+06},
	"protein1500/reposed/lanes":   {0xc0adc1695901a953, 0xc0adc1695900c391, 3.223888e+06},
	"capsid/fresh/exact":          {0xc09a01f429e7450e, 0xc09a01f429e74510, 2.162016e+06},
	"capsid/fresh/approx":         {0xc09a01f42a11ce7b, 0xc09a01f42a11ce7b, 2.162016e+06},
	"capsid/fresh/lanes":          {0xc09a01f42a11d6de, 0xc09a01f42a11ce7b, 2.162016e+06},
	"capsid/repaired/exact":       {0xc09a135f5a6e6fb9, 0xc09a135f5a6e6fb9, 2.088015e+06},
	"capsid/repaired/approx":      {0xc09a135f5b0c1ad7, 0xc09a135f5b0c1ad7, 2.088015e+06},
	"capsid/repaired/lanes":       {0xc09a135f5b0c348c, 0xc09a135f5b0c1ad7, 2.088015e+06},
	"capsid/reposed/exact":        {0xc09a135f5a6e6fb8, 0xc09a135f5a6e6fb9, 2.088015e+06},
	"capsid/reposed/approx":       {0xc09a135f5b0c1ad5, 0xc09a135f5b0c1ad5, 2.088015e+06},
	"capsid/reposed/lanes":        {0xc09a135f5b0c348f, 0xc09a135f5b0c1ad5, 2.088015e+06},
	"two-atom/fresh/exact":        {0xc0276774dd44071b, 0xc0276774dd44071b, 2142},
	"two-atom/fresh/approx":       {0xc0276774dd403e01, 0xc0276774dd403e01, 2142},
	"two-atom/fresh/lanes":        {0xc0276774dd462534, 0xc0276774dd403e01, 2142},
	"two-atom/repaired/exact":     {0xc026e6eb593805e8, 0xc026e6eb593805e8, 2152},
	"two-atom/repaired/approx":    {0xc026e6eb59335aeb, 0xc026e6eb59335aeb, 2152},
	"two-atom/repaired/lanes":     {0xc026e6eb593a16ff, 0xc026e6eb59335aeb, 2152},
	"two-atom/reposed/exact":      {0xc026e6eb593805e6, 0xc026e6eb593805e6, 2152},
	"two-atom/reposed/approx":     {0xc026e6eb59335aeb, 0xc026e6eb59335aeb, 2152},
	"two-atom/reposed/lanes":      {0xc026e6eb593a16ff, 0xc026e6eb59335aeb, 2152},
	"one-leaf/fresh/exact":        {0xc042f9c97d3123fd, 0xc042f9c97d3123fd, 6140},
	"one-leaf/fresh/approx":       {0xc042f9c97cf73456, 0xc042f9c97cf73456, 6140},
	"one-leaf/fresh/lanes":        {0xc042f9c97cf78aa8, 0xc042f9c97cf73456, 6140},
	"one-leaf/repaired/exact":     {0xc042f7b8649cc0c1, 0xc042f7b8649cc0c2, 6140},
	"one-leaf/repaired/approx":    {0xc042f7b863a2d2ee, 0xc042f7b863a2d2ee, 6140},
	"one-leaf/repaired/lanes":     {0xc042f7b863a31ba7, 0xc042f7b863a2d2ee, 6140},
	"one-leaf/reposed/exact":      {0xc042f7b8649cc0c1, 0xc042f7b8649cc0c2, 6140},
	"one-leaf/reposed/approx":     {0xc042f7b863a2d2ef, 0xc042f7b863a2d2ef, 6140},
	"one-leaf/reposed/lanes":      {0xc042f7b863a31ba7, 0xc042f7b863a2d2ef, 6140},
	"zero-block/fresh/exact":      {0xc082616c7aa78ec4, 0xc082616c7aa78ec4, 890902},
	"zero-block/fresh/approx":     {0xc082616c7a853d26, 0xc082616c7a853d26, 890902},
	"zero-block/fresh/lanes":      {0xc082616c7a85850c, 0xc082616c7a853d26, 890902},
	"zero-block/repaired/exact":   {0xc082566f5ce2ffb9, 0xc082566f5ce2ffb5, 892256},
	"zero-block/repaired/approx":  {0xc082566f5dd94d2c, 0xc082566f5dd94d2c, 892256},
	"zero-block/repaired/lanes":   {0xc082566f5dd9c771, 0xc082566f5dd94d2c, 892256},
	"zero-block/reposed/exact":    {0xc082566f5ce2ffba, 0xc082566f5ce2ffbb, 892256},
	"zero-block/reposed/approx":   {0xc082566f5dd94d2a, 0xc082566f5dd94d2a, 892256},
	"zero-block/reposed/lanes":    {0xc082566f5dd9c771, 0xc082566f5dd94d2a, 892256},
	"leafcap1/fresh/exact":        {0xc08552671b3abe9d, 0xc08552671b3abe9b, 723605},
	"leafcap1/fresh/approx":       {0xc08552671abc6eba, 0xc08552671abc6eba, 723605},
	"leafcap1/fresh/lanes":        {0xc08552671abccfc9, 0xc08552671abc6eba, 723605},
	"leafcap1/repaired/exact":     {0xc085bbdb460ca34e, 0xc085bbdb460ca34c, 734696},
	"leafcap1/repaired/approx":    {0xc085bbdb46d822f5, 0xc085bbdb46d822f5, 734696},
	"leafcap1/repaired/lanes":     {0xc085bbdb46d899a0, 0xc085bbdb46d822f5, 734696},
	"leafcap1/reposed/exact":      {0xc085bbdb460ca352, 0xc085bbdb460ca350, 734696},
	"leafcap1/reposed/approx":     {0xc085bbdb46d822f4, 0xc085bbdb46d822f4, 734696},
	"leafcap1/reposed/lanes":      {0xc085bbdb46d8999f, 0xc085bbdb46d822f4, 734696},
	"leafcap3/fresh/exact":        {0xc0862cf8a40999ce, 0xc0862cf8a40999cc, 612264},
	"leafcap3/fresh/approx":       {0xc0862cf8a40f582a, 0xc0862cf8a40f582a, 612264},
	"leafcap3/fresh/lanes":        {0xc0862cf8a410006b, 0xc0862cf8a40f582a, 612264},
	"leafcap3/repaired/exact":     {0xc085cf30e2b4b263, 0xc085cf30e2b4b267, 616987},
	"leafcap3/repaired/approx":    {0xc085cf30e36ff3c4, 0xc085cf30e36ff3c4, 616987},
	"leafcap3/repaired/lanes":     {0xc085cf30e370a372, 0xc085cf30e36ff3c4, 616987},
	"leafcap3/reposed/exact":      {0xc085cf30e2b4b260, 0xc085cf30e2b4b264, 616987},
	"leafcap3/reposed/approx":     {0xc085cf30e36ff3c5, 0xc085cf30e36ff3c5, 616987},
	"leafcap3/reposed/lanes":      {0xc085cf30e370a372, 0xc085cf30e36ff3c5, 616987},
	"leafcap32/fresh/exact":       {0xc0861c0654297706, 0xc0861c0654297706, 1.682145e+06},
	"leafcap32/fresh/approx":      {0xc0861c065628317c, 0xc0861c065628317c, 1.682145e+06},
	"leafcap32/fresh/lanes":       {0xc0861c06562855c1, 0xc0861c065628317c, 1.682145e+06},
	"leafcap32/repaired/exact":    {0xc086126384c76355, 0xc086126384c76355, 1.610806e+06},
	"leafcap32/repaired/approx":   {0xc086126385e7af69, 0xc086126385e7af69, 1.610806e+06},
	"leafcap32/repaired/lanes":    {0xc086126385e7c609, 0xc086126385e7af69, 1.610806e+06},
	"leafcap32/reposed/exact":     {0xc086126384c76356, 0xc086126384c76356, 1.610806e+06},
	"leafcap32/reposed/approx":    {0xc086126385e7af6a, 0xc086126385e7af6a, 1.610806e+06},
	"leafcap32/reposed/lanes":     {0xc086126385e7c609, 0xc086126385e7af6a, 1.610806e+06},
	"eps005/fresh/exact":          {0xc040cb68626cc688, 0xc040cb68626cc688, 222239},
	"eps005/fresh/approx":         {0xc040cb68626e60d4, 0xc040cb68626e60d4, 222239},
	"eps005/fresh/lanes":          {0xc040cb68626f70d5, 0xc040cb68626e60d4, 222239},
	"eps005/repaired/exact":       {0xc040ca4286706237, 0xc040ca4286706230, 223154},
	"eps005/repaired/approx":      {0xc040ca428673a5d7, 0xc040ca428673a5d7, 223154},
	"eps005/repaired/lanes":       {0xc040ca428674b725, 0xc040ca428673a5d7, 223154},
	"eps005/reposed/exact":        {0xc040ca4286706237, 0xc040ca4286706234, 223154},
	"eps005/reposed/approx":       {0xc040ca428673a5d6, 0xc040ca428673a5d6, 223154},
	"eps005/reposed/lanes":        {0xc040ca428674b726, 0xc040ca428673a5d6, 223154},
}
