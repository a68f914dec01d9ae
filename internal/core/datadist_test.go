package core

import (
	"testing"
)

func TestMeasureDataDistribution(t *testing.T) {
	sys, mol, _ := testSystem(t, 2000, 211, DefaultParams())
	rep, err := MeasureDataDistribution(sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerRank) != 8 {
		t.Fatalf("%d rank entries", len(rep.PerRank))
	}
	totalOwnedAtoms, totalOwnedQ := 0, 0
	for _, rd := range rep.PerRank {
		totalOwnedAtoms += rd.OwnedAtoms
		totalOwnedQ += rd.OwnedQPoints
		if rd.LETBytes <= 0 {
			t.Errorf("rank %d: LET bytes %d", rd.Rank, rd.LETBytes)
		}
		// Each rank's LET must be smaller than full replication (the
		// whole point of distributing the data).
		if rd.LETBytes >= rep.ReplicatedBytes {
			t.Errorf("rank %d: LET %d ≥ replicated %d", rd.Rank, rd.LETBytes, rep.ReplicatedBytes)
		}
	}
	// Partitions cover everything exactly once.
	if totalOwnedAtoms != mol.NumAtoms() {
		t.Errorf("owned atoms sum to %d, want %d", totalOwnedAtoms, mol.NumAtoms())
	}
	if totalOwnedQ != sys.Surf.NumPoints() {
		t.Errorf("owned q-points sum to %d, want %d", totalOwnedQ, sys.Surf.NumPoints())
	}
	if rep.Savings() <= 1 {
		t.Errorf("savings %.2f, want > 1", rep.Savings())
	}
}

func TestDataDistributionSavingsGrowWithP(t *testing.T) {
	sys, _, _ := testSystem(t, 3000, 212, DefaultParams())
	r2, err := MeasureDataDistribution(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	r12, err := MeasureDataDistribution(sys, 12)
	if err != nil {
		t.Fatal(err)
	}
	if r12.Savings() <= r2.Savings() {
		t.Errorf("savings did not grow with P: %.2fx at P=2, %.2fx at P=12",
			r2.Savings(), r12.Savings())
	}
}

func TestDataDistributionErrors(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 213, DefaultParams())
	if _, err := MeasureDataDistribution(sys, 0); err == nil {
		t.Error("P=0 accepted")
	}
}
