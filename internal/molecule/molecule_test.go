package molecule

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
)

func TestGenProteinDeterministic(t *testing.T) {
	a := GenProtein("p", 500, 42)
	b := GenProtein("p", 500, 42)
	if len(a.Atoms) != 500 || len(b.Atoms) != 500 {
		t.Fatalf("atom counts %d, %d", len(a.Atoms), len(b.Atoms))
	}
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatalf("atom %d differs between identical seeds", i)
		}
	}
	c := GenProtein("p", 500, 43)
	same := 0
	for i := range a.Atoms {
		if a.Atoms[i] == c.Atoms[i] {
			same++
		}
	}
	if same == len(a.Atoms) {
		t.Error("different seeds produced identical molecules")
	}
}

func TestGenProteinValid(t *testing.T) {
	for _, n := range []int{1, 10, 400, 5000} {
		m := GenProtein("p", n, 7)
		if m.NumAtoms() != n {
			t.Fatalf("n=%d: got %d atoms", n, m.NumAtoms())
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestGenProteinDensity(t *testing.T) {
	m := GenProtein("p", 4000, 11)
	// Radius of gyration of a uniform ball of radius R is R·sqrt(3/5);
	// check the generated molecule is packed, not a sparse gas.
	c := geom.Centroid(m.Positions())
	var rg2 float64
	for _, a := range m.Atoms {
		rg2 += a.Pos.Dist2(c)
	}
	rg := math.Sqrt(rg2 / float64(m.NumAtoms()))
	// Expected ball radius for 4000 atoms at lattice density.
	expR := latticeSpacing * math.Cbrt(3*4000/(4*math.Pi))
	expRg := expR * math.Sqrt(3.0/5)
	if rg < 0.7*expRg || rg > 1.3*expRg {
		t.Errorf("radius of gyration %.2f, expected ≈%.2f", rg, expRg)
	}
}

func TestGenProteinCompact(t *testing.T) {
	// No atom pair should be absurdly close (lattice + jitter guarantees
	// a minimum separation of spacing − 2·jitter = 1.3 Å).
	m := GenProtein("p", 300, 3)
	for i := 0; i < m.NumAtoms(); i++ {
		for j := i + 1; j < m.NumAtoms(); j++ {
			if d := m.Atoms[i].Pos.Dist(m.Atoms[j].Pos); d < 1.2 {
				t.Fatalf("atoms %d,%d only %.3f Å apart", i, j, d)
			}
		}
	}
}

func TestGenCapsidShell(t *testing.T) {
	inner, outer := 40.0, 50.0
	m := GenCapsid("shell", 5000, inner, outer, 5)
	if m.NumAtoms() != 5000 {
		t.Fatalf("got %d atoms", m.NumAtoms())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, a := range m.Atoms {
		r := a.Pos.Norm()
		if r < inner-1 || r > outer+1 {
			t.Fatalf("atom %d at radius %.2f outside shell [%v,%v]", i, r, inner, outer)
		}
	}
}

func TestGenCapsidSwappedRadii(t *testing.T) {
	m := GenCapsid("shell", 100, 50, 40, 5) // swapped on purpose
	for _, a := range m.Atoms {
		r := a.Pos.Norm()
		if r < 39 || r > 51 {
			t.Fatalf("atom outside shell at %.2f", r)
		}
	}
}

func TestCMVAnalogueScaling(t *testing.T) {
	m := CMVAnalogue(0.01, 1)
	if n := m.NumAtoms(); n != 5096 {
		t.Errorf("scale 0.01: %d atoms, want 5096", n)
	}
	tiny := CMVAnalogue(1e-9, 1)
	if tiny.NumAtoms() != 100 {
		t.Errorf("minimum clamp: %d", tiny.NumAtoms())
	}
}

func TestZDockLikeSizes(t *testing.T) {
	sizes := ZDockLikeSizes()
	if len(sizes) != 84 {
		t.Fatalf("suite has %d entries, want 84", len(sizes))
	}
	if sizes[0].Atoms != 400 {
		t.Errorf("smallest = %d, want 400", sizes[0].Atoms)
	}
	if sizes[len(sizes)-1].Atoms != 16301 {
		t.Errorf("largest = %d, want 16301", sizes[len(sizes)-1].Atoms)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i].Atoms < sizes[i-1].Atoms {
			t.Errorf("sizes not monotone at %d", i)
		}
	}
}

func TestMergeAndClone(t *testing.T) {
	a := GenProtein("a", 50, 1)
	b := GenLigand("b", 20, 2)
	c := Merge("complex", a, b)
	if c.NumAtoms() != 70 {
		t.Fatalf("merged has %d atoms", c.NumAtoms())
	}
	cl := c.Clone()
	cl.Atoms[0].Charge = 99
	if c.Atoms[0].Charge == 99 {
		t.Error("Clone shares storage with original")
	}
}

func TestApplyTransform(t *testing.T) {
	m := GenLigand("l", 30, 3)
	orig := m.Clone()
	tr := geom.Translate(geom.V(10, 0, 0))
	m.ApplyTransform(tr)
	for i := range m.Atoms {
		want := orig.Atoms[i].Pos.Add(geom.V(10, 0, 0))
		if m.Atoms[i].Pos != want {
			t.Fatalf("atom %d moved to %v, want %v", i, m.Atoms[i].Pos, want)
		}
	}
	// Rigid transforms preserve pairwise distances and therefore energies.
	rot := geom.RotateAxis(geom.V(1, 2, 3), 1.1)
	m2 := orig.Clone()
	m2.ApplyTransform(rot)
	d0 := orig.Atoms[0].Pos.Dist(orig.Atoms[29].Pos)
	d1 := m2.Atoms[0].Pos.Dist(m2.Atoms[29].Pos)
	if math.Abs(d0-d1) > 1e-9 {
		t.Errorf("rotation changed distance %v -> %v", d0, d1)
	}
}

func TestValidateCatchesBadAtoms(t *testing.T) {
	good := GenProtein("g", 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good.Clone()
	bad.Atoms[3].Radius = -1
	if bad.Validate() == nil {
		t.Error("negative radius not caught")
	}
	bad2 := good.Clone()
	bad2.Atoms[0].Charge = math.NaN()
	if bad2.Validate() == nil {
		t.Error("NaN charge not caught")
	}
	bad3 := good.Clone()
	bad3.Atoms[0].Pos.X = math.Inf(1)
	if bad3.Validate() == nil {
		t.Error("infinite position not caught")
	}
}

// CheckAtoms takes a radius down to MinRadius, whose square is the smallest
// normal float64, and no smaller; nor one whose square overflows.
func TestCheckAtomsRadiusFloor(t *testing.T) {
	for r, ok := range map[float64]bool{
		MinRadius:                      true,
		1.5:                            true,
		math.Nextafter(MinRadius, 0):   false,
		1e-200:                         false,
		math.SmallestNonzeroFloat64:    false,
		math.Sqrt(math.MaxFloat64):     true,
		2 * math.Sqrt(math.MaxFloat64): false,
	} {
		m := &Molecule{Atoms: []Atom{{Radius: 1.5}, {Radius: r}}}
		if err := m.CheckAtoms(); (err == nil) != ok {
			t.Errorf("radius %g: CheckAtoms says %v", r, err)
		}
		if sq := r * r; ok != (sq >= 0x1p-1022 && !math.IsInf(sq, 0)) {
			t.Errorf("radius %g: its square %g", r, sq)
		}
	}
}

func TestTotalChargeFinite(t *testing.T) {
	m := GenProtein("p", 2000, 17)
	q := m.TotalCharge()
	if math.IsNaN(q) || math.Abs(q) > 200 {
		t.Errorf("implausible total charge %v", q)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := GenProtein("p", 100, 1)
	if got := m.MemoryBytes(); got != 100*40 {
		t.Errorf("MemoryBytes = %d", got)
	}
}

func TestBounds(t *testing.T) {
	m := &Molecule{Atoms: []Atom{
		{Pos: geom.V(-1, 0, 5)},
		{Pos: geom.V(2, -3, 1)},
	}}
	b := m.Bounds()
	if b.Min != (geom.V(-1, -3, 1)) || b.Max != (geom.V(2, 0, 5)) {
		t.Errorf("Bounds = %v", b)
	}
}
