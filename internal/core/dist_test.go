package core

import (
	"math"
	"testing"

	"gbpolar/internal/cluster"
)

func distCfg(procs, threads, perNode, nodes int) cluster.Config {
	return cluster.Config{
		Procs:          procs,
		ThreadsPerProc: threads,
		RanksPerNode:   perNode,
		Topology:       cluster.Lonestar4(nodes),
	}
}

// At the loosened orders of the list tables (orderParams), where far
// entries start nearer the root, both distributed paths — the modeled mpi
// runner and the elastic rank body the resilient/net runners share —
// reproduce the shared runner to reduction round-off: each rank evaluates
// only its own rows, and the cross-rank Born reduction must hand
// PushIntegralsToAtoms every rank's far-field integrals.
func TestDistributedFarOrderMatchesShared(t *testing.T) {
	for _, run := range []struct {
		name string
		fn   func(*System, cluster.Config) (*Result, error)
	}{{"mpi", RunDistributed}, {"elastic", RunDistributedResilient}} {
		t.Run(run.name, func(t *testing.T) {
			for _, order := range []int{1, 2} {
				sys, _, _ := testSystem(t, 400, 81, orderTestParams(order, 0.5))
				shared, err := RunShared(sys, SharedOptions{Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := run.fn(sys, distCfg(4, 1, 4, 1))
				if err != nil {
					t.Fatal(err)
				}
				if relErr(res.Epol, shared.Epol) > 1e-9 {
					t.Errorf("order %d: distributed E=%v shared E=%v", order, res.Epol, shared.Epol)
				}
				for i := range res.BornRadii {
					if relErr(res.BornRadii[i], shared.BornRadii[i]) > 1e-9 {
						t.Fatalf("order %d: atom %d radius mismatch: %v vs %v",
							order, i, res.BornRadii[i], shared.BornRadii[i])
					}
				}
			}
		})
	}
}

func TestDistributedReportPresent(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 82, DefaultParams())
	res, err := RunDistributed(sys, distCfg(4, 1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("no cluster report")
	}
	if res.Report.VirtualSeconds <= 0 {
		t.Error("virtual time not positive")
	}
	if res.Ops <= 0 {
		t.Error("no ops counted")
	}
}

// The paper's Section V.B memory observation: 12 single-threaded ranks
// replicate the data 12×; 2 ranks × 6 threads replicate it only 2× —
// a 6× (paper: 5.86×) ratio.
func TestMemoryReplicationRatio(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 83, DefaultParams())
	pure, err := RunDistributed(sys, distCfg(12, 1, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := RunDistributed(sys, distCfg(2, 6, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(pure.Report.TotalMemoryBytes) / float64(hybrid.Report.TotalMemoryBytes)
	if math.Abs(ratio-6) > 1e-9 {
		t.Errorf("memory ratio %v, want 6", ratio)
	}
}

// Modeled time must shrink as cores grow (the paper's Figures 5/6), and
// the hybrid configuration must beat pure MPI at large core counts
// (fewer ranks ⇒ less collective traffic).
func TestModeledScalability(t *testing.T) {
	sys, _, _ := testSystem(t, 1500, 84, DefaultParams())
	timeFor := func(procs, threads, perNode, nodes int) float64 {
		res, err := RunDistributed(sys, distCfg(procs, threads, perNode, nodes))
		if err != nil {
			t.Fatal(err)
		}
		return res.ModelSeconds
	}
	t12 := timeFor(12, 1, 12, 1)    // one node, pure MPI
	t48 := timeFor(48, 1, 12, 4)    // four nodes, pure MPI
	t144 := timeFor(144, 1, 12, 12) // twelve nodes, pure MPI
	if !(t48 < t12) {
		t.Errorf("48 cores (%v) not faster than 12 (%v)", t48, t12)
	}
	if !(t144 < t48) {
		t.Errorf("144 cores (%v) not faster than 48 (%v)", t144, t48)
	}
}

func TestHybridLessCommThanPureMPI(t *testing.T) {
	sys, _, _ := testSystem(t, 800, 85, DefaultParams())
	pure, err := RunDistributed(sys, distCfg(144, 1, 12, 12))
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := RunDistributed(sys, distCfg(24, 6, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Six times the ranks ⇒ six times the collective traffic (every rank
	// contributes the full s-field vector to the Allreduce). CommSeconds
	// is not compared directly because it includes straggler wait, which
	// depends on intra-rank load balance.
	bytesOf := func(r *Result) int64 {
		var b int64
		for _, rs := range r.Report.PerRank {
			b += rs.BytesSent
		}
		return b
	}
	if bp, bh := bytesOf(pure), bytesOf(hybrid); bp < 5*bh {
		t.Errorf("pure-MPI traffic %d not ≫ hybrid traffic %d", bp, bh)
	}
	// And the per-collective latency budget: pure MPI pays log₂(144)≈8
	// startup terms vs the hybrid's log₂(24)≈5.
	if !(hybrid.Report.VirtualSeconds > 0 && pure.Report.VirtualSeconds > 0) {
		t.Error("virtual clocks missing")
	}
}

func TestDistributedDeterministicModeledTime(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 86, DefaultParams())
	cfg := distCfg(4, 1, 4, 1)
	a, err := RunDistributed(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDistributed(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compute charges are deterministic without noise; only the energy
	// value (work stealing order) may differ in the last bits.
	if relErr(a.Epol, b.Epol) > 1e-9 {
		t.Errorf("energies differ: %v vs %v", a.Epol, b.Epol)
	}
}

func TestDistributedInvalidConfig(t *testing.T) {
	sys, _, _ := testSystem(t, 100, 87, DefaultParams())
	if _, err := RunDistributed(sys, distCfg(0, 1, 1, 1)); err == nil {
		t.Error("zero procs accepted")
	}
	// 24 ranks on one 12-core node.
	if _, err := RunDistributed(sys, distCfg(24, 1, 24, 1)); err == nil {
		t.Error("oversubscribed config accepted")
	}
}
