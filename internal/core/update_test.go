package core

import (
	"math"
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// An update of a system whose atoms tree has no Morton keys (the recursive
// builder's) rebuilds that tree, so the moved system is, bit for bit, a
// fresh system over the moved molecule: the same E_pol and the same Born
// radii.
func TestUpdateAtomsMatchesFreshSystem(t *testing.T) {
	for _, n := range []int{300, 1500} {
		mol := molecule.GenProtein("upd", n, 191)
		surf, err := surface.ForMolecule(mol, surface.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(mol, surf, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		sys.Lists(nil)

		// Perturb positions like an MD step.
		rng := rand.New(rand.NewSource(192))
		newPos := mol.Positions()
		for i := range newPos {
			newPos[i] = newPos[i].Add(geom.V(
				rng.NormFloat64()*0.3, rng.NormFloat64()*0.3, rng.NormFloat64()*0.3))
		}
		stats, err := sys.UpdateAtomsRepair(newPos, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Rebuilt || stats.Repaired {
			t.Fatalf("%d atoms: a keyless tree's update %+v, want a rebuild", n, stats)
		}
		if err := sys.Atoms.Validate(); err != nil {
			t.Fatal(err)
		}
		updated, err := RunShared(sys, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Reference: a fresh system over the moved molecule (same surface).
		movedMol := mol.Clone()
		for i := range movedMol.Atoms {
			movedMol.Atoms[i].Pos = newPos[i]
		}
		fresh, err := NewSystem(movedMol, surf, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunShared(fresh, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(updated.Epol) != math.Float64bits(ref.Epol) {
			t.Errorf("%d atoms: updated-system E_pol %.17g, fresh system %.17g", n, updated.Epol, ref.Epol)
		}
		for i := range ref.BornRadii {
			if math.Float64bits(updated.BornRadii[i]) != math.Float64bits(ref.BornRadii[i]) {
				t.Fatalf("%d atoms: Born radius %d is %.17g, fresh system %.17g",
					n, i, updated.BornRadii[i], ref.BornRadii[i])
			}
		}
	}
}

func TestUpdateAtomsRepeated(t *testing.T) {
	mol := molecule.GenProtein("updr", 300, 193)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(194))
	pos := mol.Positions()
	for step := 0; step < 10; step++ {
		for i := range pos {
			pos[i] = pos[i].Add(geom.V(
				rng.NormFloat64()*0.1, rng.NormFloat64()*0.1, rng.NormFloat64()*0.1))
		}
		if _, err := sys.UpdateAtomsRepair(pos, nil, nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		res, err := RunShared(sys, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Epol >= 0 {
			t.Fatalf("step %d: energy %v", step, res.Epol)
		}
	}
}

func TestUpdateAtomsBadLength(t *testing.T) {
	sys, _, _ := testSystem(t, 100, 195, DefaultParams())
	if _, err := sys.UpdateAtomsRepair(make([]geom.Vec3, 50), nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}
