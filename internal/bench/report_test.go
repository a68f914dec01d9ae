package bench

import (
	"math"
	"strings"
	"testing"

	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
)

// tracedCrashRun runs a generated protein of the given size as a traced
// 4-rank resilient replay in which rank 1 crashes at its 2nd collective,
// and returns its observer. The cost model is pinned rather than
// calibrated, so the virtual clocks do not depend on the host.
func tracedCrashRun(t *testing.T, atoms int) *obs.Obs {
	t.Helper()
	p, err := prepare(molecule.GenProtein("crash", atoms, 1), core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	_, err = core.RunDistributed(p.sys, cluster.Config{
		Topology:       cluster.Lonestar4(1),
		Procs:          4,
		ThreadsPerProc: 1,
		RanksPerNode:   4,
		OpsPerSecond:   1e9,
		Seed:           1,
		Faults: &cluster.FaultPlan{Faults: []cluster.Fault{
			{Kind: cluster.CrashAtCollective, Rank: 1, Nth: 2},
		}},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestGateReportReconciliation: `gbtrace report` on a traced 4-rank
// resilient 5k-atom run must print per-phase wall/virtual breakdowns
// whose totals reconcile with the raw span sums, and must name the
// dominant phase and a max/mean imbalance factor per phase. The analysis
// is driven through the same JSONL round-trip the CLI uses.
func TestGateReportReconciliation(t *testing.T) {
	o := tracedCrashRun(t, 5000)

	// Re-ingest through the JSONL round-trip, exactly as cmd/gbtrace does.
	var jsonl strings.Builder
	if err := o.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	a := analyze.FromTrace(back)

	// Independent raw span sums straight off the event list.
	type sums struct{ wall, virt float64 }
	raw := map[string]*sums{}
	for _, ev := range back.Events() {
		if ev.Cat != "phase" || ev.Ph != "X" {
			continue
		}
		s := raw[ev.Name]
		if s == nil {
			s = &sums{}
			raw[ev.Name] = s
		}
		s.wall += ev.WallDurUS
		if ev.HasVirt && ev.Args["truncated"] == 0 {
			s.virt += ev.VirtDurUS
		}
	}
	if len(raw) == 0 {
		t.Fatal("traced run produced no phase spans")
	}
	for _, want := range []string{"build", "born", "push", "epol"} {
		if raw[want] == nil {
			t.Fatalf("no %q phase in trace; have %v", want, raw)
		}
	}
	for name, s := range raw {
		ps := a.Phase(name)
		if ps == nil {
			t.Fatalf("analysis dropped phase %q", name)
		}
		if e := relDiff(ps.Wall.TotalUS, s.wall); e > 1e-9 {
			t.Errorf("phase %s wall total %g != raw span sum %g", name, ps.Wall.TotalUS, s.wall)
		}
		if e := relDiff(ps.Virt.TotalUS, s.virt); e > 1e-9 {
			t.Errorf("phase %s virt total %g != raw span sum %g", name, ps.Virt.TotalUS, s.virt)
		}
		// A max/mean imbalance factor per phase, λ ≥ 1 by construction.
		if ps.Virt.TotalUS > 0 && ps.Virt.Imbalance < 1 {
			t.Errorf("phase %s imbalance %g < 1", name, ps.Virt.Imbalance)
		}
	}

	// The printed report names the dominant phase and the imbalance table.
	var buf strings.Builder
	if err := a.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dominant phase: "+a.DominantPhase) || a.DominantPhase == "" {
		t.Errorf("report does not name the dominant phase:\n%s", out)
	}
	for _, want := range []string{"w-imb", "v-imb", "born", "push", "epol", "straggler: rank"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// The crash shows up as recovery attribution (rank 1, 2nd collective).
	if a.Recovery.Crashes != 1 || a.Recovery.RecomputedRows <= 0 {
		t.Errorf("recovery attribution = %+v, want 1 crash with recomputed rows", a.Recovery)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}
