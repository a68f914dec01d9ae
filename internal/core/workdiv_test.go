package core

import (
	"math"
	"testing"
)

func TestSchemeString(t *testing.T) {
	if NodeNode.String() != "node-node" || AtomNode.String() != "atom-node" ||
		AtomAtom.String() != "atom-atom" {
		t.Error("Scheme.String broken")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should still print")
	}
}

// Node-based division yields the same result for every P (modulo
// floating-point summation order); atom-based division's approximation
// structure genuinely changes with the boundaries.
func TestNodeDivisionErrorIndependentOfP(t *testing.T) {
	sys, _, _ := testSystem(t, 500, 92, DefaultParams())
	var energies []float64
	for _, p := range []int{1, 3, 5} {
		res, err := RunDistributedScheme(sys, distCfg(p, 1, p, 1), NodeNode)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, res.Epol)
	}
	for i := 1; i < len(energies); i++ {
		if relErr(energies[i], energies[0]) > 1e-9 {
			t.Errorf("node-node energy changed with P: %v vs %v", energies[i], energies[0])
		}
	}
}

func TestAtomDivisionErrorVariesWithP(t *testing.T) {
	// The P-dependence enters through the Born phase: boundary-split
	// nodes lose the far-field shortcut and recurse deeper. The r⁻⁶ MAC
	// factor at ε=0.9 is ≈18.7× (far pairs are rare on small proteins),
	// so use a larger ε_Born where the far field actually fires.
	params := Params{EpsBorn: 3.0, EpsEpol: 0.9, EpsSolv: 80}
	sys, _, _ := testSystem(t, 2000, 93, params)
	var energies []float64
	for _, p := range []int{1, 3, 5} {
		res, err := RunDistributedScheme(sys, distCfg(p, 1, p, 1), AtomAtom)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, res.Epol)
	}
	// With P=1 the range covers everything, so it matches node-node; with
	// P=3/5 the boundaries split nodes and the value must move by more
	// than floating-point noise.
	if relErr(energies[1], energies[0]) < 1e-12 && relErr(energies[2], energies[0]) < 1e-12 {
		t.Errorf("atom-based division suspiciously P-independent: %v", energies)
	}
}

// Atom-based Born division traverses every q-leaf on every rank: more
// traversal work than node-based ("atom-node work division takes
// slightly more time than the purely node based", Section IV.A).
func TestAtomDivisionCostsMoreOps(t *testing.T) {
	sys, _, _ := testSystem(t, 600, 94, DefaultParams())
	nn, err := RunDistributedScheme(sys, distCfg(6, 1, 6, 1), NodeNode)
	if err != nil {
		t.Fatal(err)
	}
	an, err := RunDistributedScheme(sys, distCfg(6, 1, 6, 1), AtomNode)
	if err != nil {
		t.Fatal(err)
	}
	if an.Ops <= nn.Ops {
		t.Errorf("atom-node ops %v not above node-node ops %v", an.Ops, nn.Ops)
	}
}

func TestAtomRangeBornMatchesFullWhenSingleRank(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 95, DefaultParams())
	mac := sys.bornMAC()
	full := newBornAccum(sys)
	ranged := newBornAccum(sys)
	for _, q := range sys.QPts.Leaves() {
		ApproxIntegrals(sys, full, sys.Atoms.Root(), q, mac)
		ApproxIntegralsAtomRange(sys, ranged, sys.Atoms.Root(), q, mac,
			0, int32(sys.Mol.NumAtoms()))
	}
	for i := range full.node {
		if full.node[i] != ranged.node[i] {
			t.Fatalf("node %d: %v vs %v", i, full.node[i], ranged.node[i])
		}
	}
	for i := range full.atom {
		if full.atom[i] != ranged.atom[i] {
			t.Fatalf("atom %d: %v vs %v", i, full.atom[i], ranged.atom[i])
		}
	}
}

func TestAtomRangePartitionSumsToFull(t *testing.T) {
	// Splitting the atom range across "ranks" and summing accumulators
	// must cover every atom's s_a exactly once (node fields may differ —
	// that is the scheme's approximation artifact — but leaf-exact atom
	// terms partition cleanly).
	sys, _, _ := testSystem(t, 300, 96, DefaultParams())
	mac := sys.bornMAC()
	n := sys.Mol.NumAtoms()
	parts := newBornAccum(sys)
	for r := 0; r < 3; r++ {
		lo, hi := segment(n, 3, r)
		acc := newBornAccum(sys)
		for _, q := range sys.QPts.Leaves() {
			ApproxIntegralsAtomRange(sys, acc, sys.Atoms.Root(), q, mac, int32(lo), int32(hi))
		}
		// Atoms outside the owned range must be untouched.
		for i := 0; i < n; i++ {
			if (i < lo || i >= hi) && acc.atom[i] != 0 {
				t.Fatalf("rank %d wrote atom %d outside [%d,%d)", r, i, lo, hi)
			}
		}
		parts.add(acc)
	}
	// The union of the per-rank accumulators must produce finite,
	// physical Born radii for every atom (contributions may arrive via
	// either the leaf-exact atom terms or ancestor node terms).
	radii := make([]float64, n)
	PushIntegralsToAtoms(sys, parts, 0, n, radii)
	for i, r := range radii {
		if r <= 0 || math.IsNaN(r) {
			t.Fatalf("atom %d has radius %v after partitioned accumulation", i, r)
		}
	}
}
