package core

import (
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

func TestDynamicHybridRanks(t *testing.T) {
	sys, _, _ := testSystem(t, 400, 182, DefaultParams())
	static, err := RunDistributed(sys, distCfg(2, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	dyn, _, err := RunDistributedDynamic(sys, distCfg(2, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if relErr(dyn.Epol, static.Epol) > 1e-9 {
		t.Errorf("hybrid dynamic E=%v static E=%v", dyn.Epol, static.Epol)
	}
}

// imbalancedSystem builds a molecule whose leaf costs differ wildly
// between the first and second half of the leaf ordering: a dense ball
// next to a sparse cloud — equal counts of leaves would load one rank far
// more than the others, and the static parts, cut at equal estimated cost
// (ElasticSpans), do not.
func imbalancedSystem(t *testing.T) *System {
	t.Helper()
	dense := molecule.GenProtein("dense", 2400, 183)
	sparse := molecule.GenCapsid("halo", 400, 60, 90, 184)
	mol := molecule.Merge("imbalanced", dense, sparse)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The static parts leave the estimate nothing to balance, so the imbalance
// here is one the estimate cannot see: ranks of unequal speed (HeteroSigma).
func TestDynamicStealsOnImbalance(t *testing.T) {
	sys := imbalancedSystem(t)
	cfg := distCfg(6, 1, 6, 1)
	cfg.HeteroSigma, cfg.Seed = 1, 42
	_, stats, err := RunDistributedDynamic(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steals == 0 {
		t.Error("no inter-rank steals on an imbalanced workload")
	}
	if stats.LeavesMigrated == 0 {
		t.Error("no leaves migrated")
	}
}

func TestDynamicImprovesStragglerTime(t *testing.T) {
	// The scenario inter-node stealing targets: per-rank compute noise
	// (OS jitter, heterogeneous nodes). Static pays the slowest rank's
	// full segment; dynamic migrates the straggler's work.
	sys, _, _ := testSystem(t, 2500, 187, DefaultParams())
	var statSum, dynSum float64
	totalSteals := 0
	var eStatic, eDyn float64
	for _, seed := range []int64{42, 43, 44, 45, 46} {
		cfg := distCfg(6, 1, 6, 1)
		// Persistent per-rank slowdown: the heterogeneous-node straggler
		// scenario dynamic balancing targets. Deterministic per seed.
		cfg.HeteroSigma = 2.0
		cfg.Seed = seed
		static, err := RunDistributed(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dyn, stats, err := RunDistributedDynamic(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		statSum += static.ModelSeconds
		dynSum += dyn.ModelSeconds
		totalSteals += stats.Steals
		eStatic, eDyn = static.Epol, dyn.Epol
	}
	if relErr(eDyn, eStatic) > 1e-9 {
		t.Fatalf("energy mismatch: %v vs %v", eDyn, eStatic)
	}
	if totalSteals == 0 {
		t.Fatal("no steals under heavy noise")
	}
	// Averaged over seeds, work stealing must absorb the stragglers.
	// (The Born phase stays static in both runners, so the total
	// improvement is bounded; observed ratios are ≈0.80–0.87.)
	if dynSum > 0.92*statSum {
		t.Errorf("dynamic mean %.5fs not clearly better than static mean %.5fs (steals=%d)",
			dynSum/5, statSum/5, totalSteals)
	}
}

func TestDynamicOverheadBoundedWhenBalanced(t *testing.T) {
	// On an already-balanced noiseless workload, the protocol must not
	// blow up the makespan (some shuffling overhead is acceptable).
	sys := imbalancedSystem(t)
	static, err := RunDistributed(sys, distCfg(6, 1, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	dyn, _, err := RunDistributedDynamic(sys, distCfg(6, 1, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if relErr(dyn.Epol, static.Epol) > 1e-9 {
		t.Fatalf("energy mismatch: %v vs %v", dyn.Epol, static.Epol)
	}
	if dyn.ModelSeconds > 1.4*static.ModelSeconds {
		t.Errorf("dynamic overhead too high: %.5fs vs static %.5fs",
			dyn.ModelSeconds, static.ModelSeconds)
	}
}

func TestDynamicDeterministicEnergy(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 185, DefaultParams())
	a, _, err := RunDistributedDynamic(sys, distCfg(3, 1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunDistributedDynamic(sys, distCfg(3, 1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Steal interleavings vary, but every leaf is processed exactly once,
	// so the energy can differ only by floating-point summation order.
	if relErr(a.Epol, b.Epol) > 1e-9 {
		t.Errorf("energies differ across runs: %v vs %v", a.Epol, b.Epol)
	}
}

func TestDynamicManyRanksStress(t *testing.T) {
	// Termination-protocol stress: many ranks, tiny work.
	sys, _, _ := testSystem(t, 150, 186, DefaultParams())
	for round := 0; round < 3; round++ {
		res, _, err := RunDistributedDynamic(sys, distCfg(12, 1, 12, 1))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Epol >= 0 {
			t.Fatalf("round %d: energy %v", round, res.Epol)
		}
	}
}
