package gbmodels

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/nblist"
)

func buildNB(t *testing.T, m *molecule.Molecule, cutoff float64) *nblist.List {
	t.Helper()
	nb, err := nblist.Build(m.Positions(), cutoff, nblist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

func TestTau(t *testing.T) {
	got := Tau(80)
	want := CoulombConstant * (1 - 1.0/80)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Tau(80) = %v want %v", got, want)
	}
	if Tau(1) != 0 {
		t.Error("vacuum dielectric should give zero tau")
	}
}

func TestFGBLimits(t *testing.T) {
	// At r=0, f_GB = sqrt(Ri·Rj).
	if got := FGB(0, 2, 8); math.Abs(got-4) > 1e-12 {
		t.Errorf("FGB(0,2,8) = %v want 4", got)
	}
	// At large r, f_GB → r.
	r := 1000.0
	if got := FGB(r*r, 2, 3); math.Abs(got-r) > 1e-6 {
		t.Errorf("FGB large-r = %v want %v", got, r)
	}
	// Monotone in r.
	prev := 0.0
	for x := 0.5; x < 50; x += 0.5 {
		f := FGB(x*x, 1.5, 2.5)
		if f <= prev {
			t.Fatalf("FGB not monotone at r=%v", x)
		}
		prev = f
	}
}

// The pair term of EnergyAllPairs — a two-atom energy less the two atoms'
// self terms — has the sign of the charge product's opposite.
func TestPairEnergySigns(t *testing.T) {
	pair := func(qi, qj float64) float64 {
		a := molecule.Atom{Pos: geom.V(0, 0, 0), Charge: qi, Radius: 2}
		b := molecule.Atom{Pos: geom.V(2, 0, 0), Charge: qj, Radius: 2}
		both := &molecule.Molecule{Atoms: []molecule.Atom{a, b}}
		radii := []float64{2, 2}
		return EnergyAllPairs(both, radii, 80) -
			EnergyAllPairs(&molecule.Molecule{Atoms: []molecule.Atom{a}}, radii, 80) -
			EnergyAllPairs(&molecule.Molecule{Atoms: []molecule.Atom{b}}, radii, 80)
	}
	// Like charges: polarization stabilizes (negative contribution).
	if e := pair(1, 1); e >= 0 {
		t.Errorf("like-charge pair energy %v not negative", e)
	}
	// Opposite charges: positive (solvent screening is destabilizing for
	// attractive pairs).
	if e := pair(1, -1); e <= 0 {
		t.Errorf("opposite-charge pair energy %v not positive", e)
	}
}

func TestIsolatedAtomBornRadiusEqualsIntrinsic(t *testing.T) {
	m := &molecule.Molecule{Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Charge: 1, Radius: 1.5},
	}}
	nb := buildNB(t, m, 10)
	for _, model := range []Model{HCT{}, OBC{}, Still{}, VR6{}} {
		r := model.BornRadii(m, nb)
		var want float64
		switch model.(type) {
		case HCT, OBC:
			want = 1.5 - dielectricOffset
		default:
			want = 1.5
		}
		if math.Abs(r[0]-want) > 1e-9 {
			t.Errorf("%s: isolated Born radius %v, want %v", model.Name(), r[0], want)
		}
	}
}

func TestBornRadiiGrowWhenBuried(t *testing.T) {
	// An atom surrounded by others must have a larger Born radius than an
	// isolated one (more buried ⇒ weaker solvent interaction).
	center := molecule.Atom{Pos: geom.V(0, 0, 0), Charge: 1, Radius: 1.7}
	shellMol := &molecule.Molecule{Atoms: []molecule.Atom{center}}
	for i := 0; i < 30; i++ {
		th := float64(i) * 0.7
		ph := float64(i) * 1.3
		p := geom.V(math.Sin(th)*math.Cos(ph), math.Sin(th)*math.Sin(ph), math.Cos(th)).Scale(3.5)
		shellMol.Atoms = append(shellMol.Atoms, molecule.Atom{Pos: p, Radius: 1.7})
	}
	nb := buildNB(t, shellMol, 20)
	for _, model := range []Model{HCT{}, OBC{}, Still{}, VR6{}} {
		r := model.BornRadii(shellMol, nb)
		isolated := shellMol.Atoms[0].Radius
		if r[0] <= isolated {
			t.Errorf("%s: buried atom radius %v not larger than intrinsic %v",
				model.Name(), r[0], isolated)
		}
	}
}

func TestBornRadiiNeverBelowIntrinsic(t *testing.T) {
	m := molecule.GenProtein("clamp", 500, 61)
	nb := buildNB(t, m, 12)
	for _, model := range []Model{HCT{}, OBC{}, Still{}, VR6{}} {
		radii := model.BornRadii(m, nb)
		for i, r := range radii {
			lower := m.Atoms[i].Radius - dielectricOffset - 1e-9
			if r < lower || math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("%s: atom %d radius %v below intrinsic %v",
					model.Name(), i, r, lower)
			}
		}
	}
}

func TestModelsDisagreeSystematically(t *testing.T) {
	// Different GB flavors must produce different radii on a real
	// molecule — that is the paper's explanation for Figure 9's spread.
	m := molecule.GenProtein("spread", 400, 62)
	nb := buildNB(t, m, 12)
	hct := HCT{}.BornRadii(m, nb)
	still := Still{}.BornRadii(m, nb)
	vr6 := VR6{}.BornRadii(m, nb)
	diff := 0
	for i := range hct {
		if math.Abs(hct[i]-still[i]) > 1e-6 || math.Abs(hct[i]-vr6[i]) > 1e-6 {
			diff++
		}
	}
	if diff < len(hct)/2 {
		t.Errorf("models agree on %d/%d atoms — suspiciously identical", len(hct)-diff, len(hct))
	}
}

func TestEnergyNegativeForProtein(t *testing.T) {
	// Polarization energy is "typically negative" (paper, Section I).
	m := molecule.GenProtein("neg", 800, 65)
	nb := buildNB(t, m, 15)
	for _, model := range []Model{HCT{}, OBC{}, Still{}, VR6{}} {
		radii := model.BornRadii(m, nb)
		if e := EnergyAllPairs(m, radii, 80); e >= 0 {
			t.Errorf("%s: E_pol = %v, want negative", model.Name(), e)
		}
	}
}

func TestHCTIntegralNonNegativeAndDecaying(t *testing.T) {
	prev := math.Inf(1)
	for r := 3.0; r < 60; r += 0.5 {
		v := hctIntegral(r, 1.5, 1.2)
		if v < 0 {
			t.Fatalf("integral negative at r=%v: %v", r, v)
		}
		if v > prev {
			t.Fatalf("integral not decaying at r=%v", r)
		}
		prev = v
	}
}

func BenchmarkHCTRadii2k(b *testing.B) {
	m := molecule.GenProtein("bench", 2000, 66)
	nb, err := nblist.Build(m.Positions(), 12, nblist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HCT{}.BornRadii(m, nb)
	}
}
