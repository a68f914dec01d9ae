package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// parityGolden pins what a deterministic row (p = 1, no noise, fixed
// OpsPerSecond) produced on the commit BEFORE the runners were folded
// into one pipeline (where this file was written and run first, against
// the six separate rank bodies): the energy's exact bits per kernel ISA
// on amd64, and — for the
// modeled rows — Report.VirtualSeconds and Σ PerRank.BytesSent, which are
// Figure 4's modeled cost and therefore every number in
// results/paper_replication.txt. Record new rows with
// GBPOL_PARITY_RECORD=1 go test -run TestPipelineParity -v (and again
// with -tags purego for the portable energies). The eight rows that divide
// a compiled Born sweep between ranks — modeled P ≥ 2 — were re-recorded
// once, when ranks began to own whole Born tiles of eight
// rows instead of rows: each rank's share of the Born rows, so its modeled
// clock and the bits its partial sums leave in the energy, moved with the
// span bounds. Every one-rank row kept its bits.
type parityGolden struct {
	asm, portable uint64 // bits of Result.Epol under KernelISA() "avx2+fma" / "portable"
	virt          uint64 // bits of Report.VirtualSeconds (0 for the shared rows)
	bytes         int64  // Σ PerRank.BytesSent
}

var parityGoldens = map[string]parityGolden{
	"protein/shared/p1":      {0xc09124f1232cd439, 0xc09124f1232cd438, 0, 0},
	"protein/modeled/P1-p1":  {0xc09124f1232cd439, 0xc09124f1232cd438, 0x3fa0912f92bfb5b8, 31080},
	"protein/modeled/P2-p1":  {0xc09124f1232cd43e, 0xc09124f1232cd441, 0x3f93340392b19df2, 50160},
	"protein/modeled/P4-p1":  {0xc09124f1232cd43a, 0xc09124f1232cd43c, 0x3f84ed65c98874ae, 88320},
	"protein/modeled/P7-p1":  {0xc09124f1232cd43a, 0xc09124f1232cd43d, 0x3f7a258c5690049a, 145560},
	"protein/modeled/P12-p1": {0xc09124f1232cd43c, 0xc09124f1232cd439, 0x3f6f9e081349dec6, 240960},
	"capsid/shared/p1":       {0xc0a28e991a742246, 0xc0a28e991a742246, 0, 0},
	"capsid/modeled/P1-p1":   {0xc0a28e991a742246, 0xc0a28e991a742246, 0x3f9445046bf57187, 24728},
	"capsid/modeled/P2-p1":   {0xc0a28e991a742245, 0xc0a28e991a742246, 0x3f8699531a25bd76, 39856},
	"capsid/modeled/P4-p1":   {0xc0a28e991a742246, 0xc0a28e991a742246, 0x3f77d8671266679c, 70112},
	"capsid/modeled/P7-p1":   {0xc0a28e991a742247, 0xc0a28e991a742248, 0x3f6d3979735e717a, 115496},
	"capsid/modeled/P12-p1":  {0xc0a28e991a742246, 0xc0a28e991a742247, 0x3f624b3e0e4ff151, 191136},
}

// parityOps is the fixed kernel rate of every modeled row, so virtual
// seconds do not depend on the host's calibration.
const parityOps = 100e6

func parityCfg(P, p int) cluster.Config {
	perNode := P
	if P*p > 12 {
		perNode = 12 / p
	}
	cfg := distCfg(P, p, perNode, (P+perNode-1)/perNode)
	cfg.OpsPerSecond = parityOps
	cfg.StallTimeout = 60 * time.Second
	return cfg
}

// TestPipelineParity is the one differential table over every plan shape
// the public runners accept: each row must reproduce the shared runner's
// E_pol and Born radii to 1e-12, and the deterministic rows must reproduce
// the pre-pipeline commit bit for bit. It absorbs the per-runner spot tests
// TestDistributedMatchesShared, TestResilientMatchesStaticFaultFree and
// TestDynamicMatchesStatic.
func TestPipelineParity(t *testing.T) {
	capsid := molecule.GenCapsid("parity-capsid", 1200, 22, 27, 172)
	csurf, err := surface.ForMolecule(capsid, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	csys, err := NewSystem(capsid, csurf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	psys, _, _ := testSystem(t, 1500, 171, DefaultParams())

	type row struct {
		name string
		run  func(t *testing.T, sys *System) *Result
		// pinned rows are deterministic and carry a golden.
		pinned bool
		check  func(t *testing.T, res *Result)
	}
	must := func(t *testing.T, res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rows := []row{
		{name: "shared/p1", pinned: true, run: func(t *testing.T, sys *System) *Result {
			res, err := RunShared(sys, SharedOptions{Threads: 1, OpsPerSecond: parityOps})
			return must(t, res, err)
		}},
		{name: "shared/p2", run: func(t *testing.T, sys *System) *Result {
			res, err := RunShared(sys, SharedOptions{Threads: 2})
			return must(t, res, err)
		}},
		{name: "shared/recursive", run: func(t *testing.T, sys *System) *Result {
			res, err := RunShared(sys, SharedOptions{Threads: 2, Recursive: true})
			return must(t, res, err)
		}},
	}
	for _, P := range []int{1, 2, 4, 7, 12} {
		for _, p := range []int{1, 2} {
			P, p := P, p
			rows = append(rows, row{
				name: fmt.Sprintf("modeled/P%d-p%d", P, p), pinned: p == 1,
				run: func(t *testing.T, sys *System) *Result {
					res, err := RunDistributed(sys, parityCfg(P, p))
					return must(t, res, err)
				},
			})
		}
	}
	rows = append(rows, row{
		name: "stealing/P4", run: func(t *testing.T, sys *System) *Result {
			res, stats, err := RunDistributedDynamic(sys, parityCfg(4, 1))
			if err == nil && stats == nil {
				t.Error("no DynStats")
			}
			return must(t, res, err)
		},
	}, row{
		name: "stealing/P1", run: func(t *testing.T, sys *System) *Result {
			res, stats, err := RunDistributedDynamic(sys, parityCfg(1, 1))
			if err == nil && stats.Steals != 0 {
				t.Errorf("P=1 stole %d times", stats.Steals)
			}
			return must(t, res, err)
		},
	}, row{
		name: "resilient/fault-free", run: func(t *testing.T, sys *System) *Result {
			return runResilient(t, sys, parityCfg(4, 1))
		},
		check: func(t *testing.T, res *Result) {
			if res.Report.Faults != nil {
				t.Errorf("fault-free run reported faults: %+v", res.Report.Faults)
			}
		},
	})
	for nth := 1; nth <= 3; nth++ {
		nth := nth
		rows = append(rows, row{
			name: fmt.Sprintf("crash/collective-%d", nth),
			run: func(t *testing.T, sys *System) *Result {
				cfg := parityCfg(4, 1)
				cfg.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
					{Kind: cluster.CrashAtCollective, Rank: 2, Nth: nth}}}
				return runResilient(t, sys, cfg)
			},
			check: func(t *testing.T, res *Result) {
				fr := res.Report.Faults
				if fr == nil || fr.Crashes != 1 || fr.Degraded || fr.RecomputedRows <= 0 {
					t.Errorf("fault report %+v, want one healed crash", fr)
				}
			},
		})
	}
	rows = append(rows, row{
		name: "tcp/P2", run: func(t *testing.T, sys *System) *Result {
			membership, checkpoint := netPaths(t)
			_, errs, wait := netWorkerGoroutines(membership, 2)
			res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
				Procs:          2,
				MembershipPath: membership,
				CheckpointPath: checkpoint,
				StallTimeout:   60 * time.Second,
			})
			wait()
			if errs[1] != nil {
				t.Fatalf("worker: %v", errs[1])
			}
			return must(t, res, err)
		},
		check: func(t *testing.T, res *Result) {
			if res.Report == nil || res.Report.Faults == nil || res.Report.Faults.Degraded {
				t.Errorf("clean net run degraded: %+v", res.Report)
			}
		},
	})

	record := os.Getenv("GBPOL_PARITY_RECORD") == "1"
	for _, fx := range []struct {
		name string
		sys  *System
	}{{"protein", psys}, {"capsid", csys}} {
		ref, err := RunShared(fx.sys, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			r := r
			t.Run(fx.name+"/"+r.name, func(t *testing.T) {
				res := r.run(t, fx.sys)
				const tol = 1e-12
				if e := relErr(res.Epol, ref.Epol); e > tol {
					t.Errorf("E_pol %.17g vs shared %.17g (rel %g > %g)", res.Epol, ref.Epol, e, tol)
				}
				if len(res.BornRadii) != len(ref.BornRadii) {
					t.Fatalf("%d radii, want %d", len(res.BornRadii), len(ref.BornRadii))
				}
				for i := range ref.BornRadii {
					if e := relErr(res.BornRadii[i], ref.BornRadii[i]); e > tol {
						t.Fatalf("atom %d radius %.17g vs shared %.17g (rel %g)", i, res.BornRadii[i], ref.BornRadii[i], e)
					}
				}
				if res.Ops <= 0 {
					t.Error("no ops counted")
				}
				if r.check != nil {
					r.check(t, res)
				}
				if !r.pinned {
					return
				}
				var virt uint64
				var sent int64
				if res.Report != nil {
					virt = math.Float64bits(res.Report.VirtualSeconds)
					for _, rs := range res.Report.PerRank {
						sent += rs.BytesSent
					}
				}
				key := fx.name + "/" + r.name
				if record {
					fmt.Printf("PARITY\t%q %s: epol %#x virt %#x bytes %d\n",
						key, KernelISA(), math.Float64bits(res.Epol), virt, sent)
					return
				}
				g, ok := parityGoldens[key]
				if !ok {
					t.Fatalf("no golden for pinned row %s", key)
				}
				if virt != g.virt || sent != g.bytes {
					t.Errorf("modeled cost moved: VirtualSeconds %#x (%g) bytes %d, parent had %#x (%g) bytes %d",
						virt, math.Float64frombits(virt), sent, g.virt, math.Float64frombits(g.virt), g.bytes)
				}
				want := g.portable
				if KernelISA() == "avx2+fma" {
					want = g.asm
				}
				// Other architectures fuse multiply-adds differently; the
				// energy's bits are a statement about amd64 only.
				if got := math.Float64bits(res.Epol); runtime.GOARCH == "amd64" && got != want {
					t.Errorf("E_pol bits %#x (%.17g), parent had %#x (%.17g)",
						got, res.Epol, want, math.Float64frombits(want))
				}
			})
		}
	}
}
