// Package molecule defines the molecular model used throughout gbpolar —
// atoms with positions, partial charges and van der Waals radii — along
// with file I/O (PQR and XYZQR) and deterministic synthetic generators
// that stand in for the paper's inputs (the ZDock Benchmark Suite 2.0
// proteins and the BTV/CMV virus capsids; see DESIGN.md §2).
package molecule

import (
	"errors"
	"fmt"
	"math"

	"gbpolar/internal/geom"
)

// Atom is one atom of a molecule.
type Atom struct {
	// Pos is the atom center in Ångströms.
	Pos geom.Vec3
	// Charge is the partial charge in elementary charges.
	Charge float64
	// Radius is the van der Waals radius in Ångströms. It is the lower
	// clamp for the effective Born radius (an atom's Born radius can
	// never be smaller than its intrinsic radius).
	Radius float64
}

// Molecule is a named collection of atoms.
type Molecule struct {
	Name  string
	Atoms []Atom
}

// NumAtoms returns the number of atoms.
func (m *Molecule) NumAtoms() int { return len(m.Atoms) }

// Positions returns a freshly allocated slice of atom centers.
func (m *Molecule) Positions() []geom.Vec3 {
	pts := make([]geom.Vec3, len(m.Atoms))
	for i, a := range m.Atoms {
		pts[i] = a.Pos
	}
	return pts
}

// Bounds returns the bounding box of the atom centers (not inflated by
// radii).
func (m *Molecule) Bounds() geom.AABB {
	b := geom.Empty()
	for _, a := range m.Atoms {
		b = b.Extend(a.Pos)
	}
	return b
}

// TotalCharge returns the sum of partial charges.
func (m *Molecule) TotalCharge() float64 {
	var q float64
	for _, a := range m.Atoms {
		q += a.Charge
	}
	return q
}

// Clone returns a deep copy.
func (m *Molecule) Clone() *Molecule {
	return &Molecule{Name: m.Name, Atoms: append([]Atom(nil), m.Atoms...)}
}

// ApplyTransform rigidly re-poses the molecule in place.
//
// The paper's motivating drug-design workload re-poses a ligand at
// thousands of positions relative to a receptor; combined with
// octree.Octree.ApplyTransform this avoids rebuilding any data structure
// per pose.
func (m *Molecule) ApplyTransform(t geom.Transform) {
	for i := range m.Atoms {
		m.Atoms[i].Pos = t.Apply(m.Atoms[i].Pos)
	}
}

// Merge returns a new molecule containing the atoms of all inputs, in
// order. It is used to form receptor+ligand complexes.
func Merge(name string, ms ...*Molecule) *Molecule {
	out := &Molecule{Name: name}
	for _, m := range ms {
		out.Atoms = append(out.Atoms, m.Atoms...)
	}
	return out
}

// ErrBadAtom is what errors.Is matches on every *AtomError.
var ErrBadAtom = errors.New("molecule: bad atom")

// AtomError names the first atom whose numbers no energy can be computed
// from: a NaN or infinite coordinate or charge, or a radius that is not a
// positive finite number whose square is a normal float64. Such values
// would otherwise travel through the surface and the octrees and come out
// as a NaN or an infinite — or, worse, a finite but wrong — energy with no
// error at all.
type AtomError struct {
	Index  int    // position in Molecule.Atoms
	Reason string // e.g. "charge NaN is not finite"
}

func (e *AtomError) Error() string { return fmt.Sprintf("atom %d: %s", e.Index, e.Reason) }

// Is reports a match with ErrBadAtom.
func (e *AtomError) Is(target error) bool { return target == ErrBadAtom }

// MinRadius is the smallest radius CheckAtoms takes, ≈1.49e-154 Å: the
// smallest whose square is a normal float64. f_GB's self term divides by
// √(R·R), so a smaller radius gives an infinite — or a huge and wrong —
// energy.
const MinRadius = 0x1p-511

// CheckAtoms returns an *AtomError for the first atom with a non-finite
// position or charge or a radius below MinRadius or whose square overflows,
// in one pass over the atoms. surface.ForMolecule and core.NewSystem run it
// before any other work.
func (m *Molecule) CheckAtoms() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for i, a := range m.Atoms {
		switch {
		case !a.Pos.IsFinite():
			return &AtomError{i, fmt.Sprintf("position %v is not finite", a.Pos)}
		case !finite(a.Charge):
			return &AtomError{i, fmt.Sprintf("charge %g is not finite", a.Charge)}
		case !(a.Radius >= MinRadius && a.Radius*a.Radius <= math.MaxFloat64):
			return &AtomError{i, fmt.Sprintf("radius %g is not a positive number whose square is a normal float64", a.Radius)}
		}
	}
	return nil
}

// Validate checks physical sanity: everything CheckAtoms does, then radii
// of at most 5 Å and charges within ±2e. It returns the first problem found.
func (m *Molecule) Validate() error {
	if err := m.CheckAtoms(); err != nil {
		return fmt.Errorf("molecule %q: %w", m.Name, err)
	}
	for i, a := range m.Atoms {
		if a.Radius > 5 {
			return fmt.Errorf("molecule %q: atom %d has implausible radius %g", m.Name, i, a.Radius)
		}
		if math.Abs(a.Charge) > 2 {
			return fmt.Errorf("molecule %q: atom %d has implausible charge %g", m.Name, i, a.Charge)
		}
	}
	return nil
}

// MemoryBytes estimates the resident size of the molecule's atom array.
// The cluster runtime uses it to account for per-rank data replication
// (every rank holds the full molecule; Section IV.B of the paper).
func (m *Molecule) MemoryBytes() int64 {
	const atomBytes = 5 * 8 // three coordinates + charge + radius
	return int64(len(m.Atoms)) * atomBytes
}
