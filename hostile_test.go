package gbpolar

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"

	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// Hostile numbers in an input file — every one of which strconv accepts —
// are refused at the door of every stage with one typed error naming the
// atom. Before, a NaN radius gave a finite but wrong energy, a negative
// radius or a NaN charge a NaN energy, a radius of 1e-200 Å an energy of
// −Inf and one just below molecule.MinRadius a huge finite one, and a NaN
// or infinite coordinate an all-NaN surface, each with a nil error.
func TestHostileAtomsRejected(t *testing.T) {
	clean := molecule.GenProtein("fixture", 500, 3)
	cleanSurf, err := surface.ForMolecule(clean, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 137
	for _, tc := range []struct {
		name   string
		poison func(a *molecule.Atom)
	}{
		{"NaN radius", func(a *molecule.Atom) { a.Radius = math.NaN() }},
		{"negative radius", func(a *molecule.Atom) { a.Radius = -1.5 }},
		{"NaN charge", func(a *molecule.Atom) { a.Charge = math.NaN() }},
		{"NaN coordinate", func(a *molecule.Atom) { a.Pos.Y = math.NaN() }},
		{"infinite coordinate", func(a *molecule.Atom) { a.Pos.Z = math.Inf(-1) }},
		{"tiny radius", func(a *molecule.Atom) { a.Radius = 1e-200 }},
		{"radius below the floor", func(a *molecule.Atom) { a.Radius = math.Nextafter(molecule.MinRadius, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The hostile value arrives the way a user's would: in a file,
			// every number written out in full.
			m := clean.Clone()
			tc.poison(&m.Atoms[victim])
			var file bytes.Buffer
			for i, a := range m.Atoms {
				fmt.Fprintf(&file, "ATOM %d X MOL A %d", i+1, i/10+1)
				for _, v := range []float64{a.Pos.X, a.Pos.Y, a.Pos.Z, a.Charge, a.Radius} {
					file.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
				}
				file.WriteString("\n")
			}
			mol, err := molecule.ReadPQR(&file)
			if err != nil {
				t.Fatalf("the parser takes any number strconv does, got %v", err)
			}

			check := func(stage string, err error) {
				t.Helper()
				var ae *molecule.AtomError
				switch {
				case err == nil:
					t.Errorf("%s accepted the molecule", stage)
				case !errors.Is(err, molecule.ErrBadAtom):
					t.Errorf("%s: %v is not an ErrBadAtom", stage, err)
				case !errors.As(err, &ae) || ae.Index != victim:
					t.Errorf("%s: %v does not name atom %d", stage, err, victim)
				}
			}
			_, err = surface.ForMolecule(mol, surface.Options{})
			check("surface.ForMolecule", err)
			_, err = core.NewSystem(mol, cleanSurf, core.DefaultParams())
			check("core.NewSystem", err)
			_, err = NewEngine(mol, Options{})
			check("NewEngine", err)
			_, err = NewEngineWithSurface(mol, cleanSurf, Options{})
			check("NewEngineWithSurface", err)
		})
	}
}
