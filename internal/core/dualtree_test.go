package core

import (
	"testing"

	"gbpolar/internal/mathx"
	"gbpolar/internal/sched"
)

func TestDualTreeMatchesSingleTreeExactly(t *testing.T) {
	// With ε→0 neither traversal approximates: both must equal naive.
	params := Params{EpsBorn: 1e-12, EpsEpol: 0.9, EpsSolv: 80}
	sys, mol, surf := testSystem(t, 250, 151, params)
	pool := sched.NewPool(2)
	defer pool.Close()
	radii, _ := DualTreeBornRadii(sys, pool)
	orig := sys.BornRadiiToOriginalOrder(radii)
	naive := NaiveBornRadii(mol, surf, mathx.Exact)
	for i := range naive {
		if relErr(orig[i], naive[i]) > 1e-9 {
			t.Fatalf("atom %d: dual-tree %v, naive %v", i, orig[i], naive[i])
		}
	}
}

func TestDualTreeAccuracyAtHeadlineEps(t *testing.T) {
	sys, mol, surf := testSystem(t, 800, 152, DefaultParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	radii, _ := DualTreeBornRadii(sys, pool)
	orig := sys.BornRadiiToOriginalOrder(radii)
	naive := NaiveBornRadii(mol, surf, mathx.Exact)
	// Same error class as the single-tree loose MAC (a few percent mean).
	var worst float64
	for i := range naive {
		if e := relErr(orig[i], naive[i]); e > worst {
			worst = e
		}
	}
	if worst > 0.5 {
		t.Errorf("worst dual-tree Born radius error %.1f%%", 100*worst)
	}
	// Energy with these radii stays near naive.
	naiveE := NaiveEpol(mol, naive, 80, mathx.Exact)
	e := NaiveEpol(mol, orig, 80, mathx.Exact)
	if relErr(e, naiveE) > 0.03 {
		t.Errorf("dual-tree-radii energy error %.2f%%", 100*relErr(e, naiveE))
	}
}

func TestDualTreeFewerOpsOnLargeMolecules(t *testing.T) {
	// The [6]-style dual traversal approximates whole T_Q subtrees, so it
	// must do no more kernel work than the single-tree variant, and
	// strictly less once the far field fires.
	sys, _, _ := testSystem(t, 4000, 153, DefaultParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	_, dualOps := DualTreeBornRadii(sys, pool)

	acc := newBornAccum(sys)
	mac := sys.bornMAC()
	for _, q := range sys.QPts.Leaves() {
		ApproxIntegrals(sys, acc, sys.Atoms.Root(), q, mac)
	}
	singleOps := acc.ops
	if dualOps >= singleOps {
		t.Errorf("dual-tree ops %.3g not below single-tree ops %.3g", dualOps, singleOps)
	}
}

func TestExpandPairsPartitionsTraversal(t *testing.T) {
	// Running the traversal from the expanded frontier must give exactly
	// the same accumulators as from (root, root).
	sys, _, _ := testSystem(t, 500, 154, DefaultParams())
	mac := sys.bornMAC()
	whole := newBornAccum(sys)
	DualTreeIntegrals(sys, whole, sys.Atoms.Root(), sys.QPts.Root(), mac)

	parts := newBornAccum(sys)
	for _, pr := range expandPairs(sys, mac, 64) {
		DualTreeIntegrals(sys, parts, pr.a, pr.q, mac)
	}
	for i := range whole.atom {
		if whole.atom[i] != parts.atom[i] {
			t.Fatalf("atom %d: %v vs %v", i, whole.atom[i], parts.atom[i])
		}
	}
	for i := range whole.node {
		if whole.node[i] != parts.node[i] {
			t.Fatalf("node %d: %v vs %v", i, whole.node[i], parts.node[i])
		}
	}
}
