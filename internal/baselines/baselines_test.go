package baselines

import (
	"errors"
	"math"
	"testing"

	"gbpolar/internal/gbmodels"
	"gbpolar/internal/molecule"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestRosterSpecsMatchTableII(t *testing.T) {
	want := map[string]struct{ model, par string }{
		"Gromacs 4.5.3": {"HCT", "Distributed (MPI)"},
		"NAMD 2.9":      {"OBC", "Distributed (MPI)"},
		"Amber 12":      {"HCT", "Distributed (MPI)"},
		"Tinker 6.0":    {"STILL", "Shared (OpenMP)"},
		"GBr6":          {"VR6", "Serial"},
	}
	for _, p := range All() {
		w, ok := want[p.Spec.Name]
		if !ok {
			t.Fatalf("unexpected package %q", p.Spec.Name)
		}
		if p.Spec.GBModel != w.model || p.Spec.Parallelism != w.par {
			t.Errorf("%s: %s/%s, want %s/%s",
				p.Spec.Name, p.Spec.GBModel, p.Spec.Parallelism, w.model, w.par)
		}
	}
	if len(All()) != 5 {
		t.Errorf("roster has %d packages", len(All()))
	}
}

func TestAllPackagesProduceNegativeEnergy(t *testing.T) {
	mol := molecule.GenProtein("base", 400, 101)
	for _, p := range All() {
		res, err := p.Run(mol, Options{Cores: 4})
		if err != nil {
			t.Fatalf("%s: %v", p.Spec.Name, err)
		}
		if res.Epol >= 0 {
			t.Errorf("%s: E_pol = %v, want negative", p.Spec.Name, res.Epol)
		}
		if res.ModelSeconds <= 0 || res.Ops <= 0 {
			t.Errorf("%s: no time/ops accounted (%v, %v)", p.Spec.Name, res.ModelSeconds, res.Ops)
		}
		if len(res.BornRadii) != mol.NumAtoms() {
			t.Errorf("%s: %d radii", p.Spec.Name, len(res.BornRadii))
		}
	}
}

func TestAmberMatchesSerialHCTReference(t *testing.T) {
	mol := molecule.GenProtein("ref", 250, 102)
	res, err := Amber.Run(mol, Options{Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	inv := gbmodels.HCTInverseRadiiRange(mol, 0, mol.NumAtoms(), gbmodels.HCTDescreenScale)
	radii := gbmodels.HCTRadiiFromInverse(mol, 0, inv)
	want := gbmodels.EnergyAllPairs(mol, radii, 80)
	if relErr(res.Epol, want) > 1e-9 {
		t.Errorf("Amber E=%v, all-pairs HCT reference %v", res.Epol, want)
	}
	for i := range radii {
		if relErr(res.BornRadii[i], radii[i]) > 1e-12 {
			t.Fatalf("radius %d: %v vs %v", i, res.BornRadii[i], radii[i])
		}
	}
}

func TestMPIResultIndependentOfRankCount(t *testing.T) {
	mol := molecule.GenProtein("ranks", 300, 103)
	e1, err := Amber.Run(mol, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	e6, err := Amber.Run(mol, Options{Cores: 6})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(e1.Epol, e6.Epol) > 1e-9 {
		t.Errorf("energy depends on rank count: %v vs %v", e1.Epol, e6.Epol)
	}
	if !(e6.ModelSeconds < e1.ModelSeconds) {
		t.Errorf("6 cores (%v s) not faster than 1 (%v s)", e6.ModelSeconds, e1.ModelSeconds)
	}
}

func TestAtomLimits(t *testing.T) {
	big := molecule.GenProtein("big", 13500, 104)
	if _, err := Tinker.Run(big, Options{Cores: 2}); !errors.Is(err, ErrAtomLimit) {
		t.Errorf("Tinker accepted %d atoms: %v", big.NumAtoms(), err)
	}
	if _, err := GBr6.Run(big, Options{Cores: 1}); !errors.Is(err, ErrAtomLimit) {
		t.Errorf("GBr6 accepted %d atoms: %v", big.NumAtoms(), err)
	}
	// Amber has no compiled limit.
	small := molecule.GenProtein("ok", 500, 105)
	if _, err := Amber.Run(small, Options{Cores: 2}); err != nil {
		t.Errorf("Amber failed on small molecule: %v", err)
	}
}

func TestAmberSlowerThanGromacsFasterThanNothing(t *testing.T) {
	// Figure 8 ordering at one node: Gromacs < Amber < NAMD in time.
	mol := molecule.GenProtein("order", 2500, 107)
	amber, err := Amber.Run(mol, Options{Cores: 12})
	if err != nil {
		t.Fatal(err)
	}
	gromacs, err := Gromacs.Run(mol, Options{Cores: 12})
	if err != nil {
		t.Fatal(err)
	}
	namd, err := NAMD.Run(mol, Options{Cores: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !(gromacs.ModelSeconds < amber.ModelSeconds) {
		t.Errorf("Gromacs (%v) not faster than Amber (%v)", gromacs.ModelSeconds, amber.ModelSeconds)
	}
	if !(amber.ModelSeconds < namd.ModelSeconds) {
		t.Errorf("Amber (%v) not faster than NAMD (%v)", amber.ModelSeconds, namd.ModelSeconds)
	}
}

func TestSerialAndSharedScaling(t *testing.T) {
	mol := molecule.GenProtein("scale", 1200, 108)
	t1, err := Tinker.Run(mol, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Tinker.Run(mol, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(t4.ModelSeconds < t1.ModelSeconds) {
		t.Errorf("Tinker 4 threads (%v) not faster than 1 (%v)", t4.ModelSeconds, t1.ModelSeconds)
	}
	// GBr6 ignores cores.
	g1, err := GBr6.Run(mol, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g8, err := GBr6.Run(mol, Options{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(g1.ModelSeconds, g8.ModelSeconds) > 1e-9 {
		t.Errorf("serial GBr6 time changed with cores: %v vs %v", g1.ModelSeconds, g8.ModelSeconds)
	}
}

func TestModelsDifferAcrossPackages(t *testing.T) {
	// Figure 9: different GB flavors give different energies.
	mol := molecule.GenProtein("flavors", 500, 109)
	amber, err := Amber.Run(mol, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	tinker, err := Tinker.Run(mol, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	gbr6, err := GBr6.Run(mol, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if relErr(amber.Epol, tinker.Epol) < 1e-6 {
		t.Error("Amber and Tinker energies identical — models not distinct")
	}
	if relErr(amber.Epol, gbr6.Epol) < 1e-6 {
		t.Error("Amber and GBr6 energies identical — models not distinct")
	}
}

func TestQuadraticGrowth(t *testing.T) {
	// Amber's all-pairs ops must grow ≈quadratically with M.
	small := molecule.GenProtein("q1", 500, 110)
	big := molecule.GenProtein("q2", 2000, 111)
	rs, err := Amber.Run(small, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Amber.Run(big, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := rb.Ops / rs.Ops
	if ratio < 12 || ratio > 20 { // (2000/500)² = 16
		t.Errorf("ops ratio %v for 4× atoms, want ≈16", ratio)
	}
}
