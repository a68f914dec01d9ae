package core

import (
	"fmt"
	"testing"
	"time"

	"gbpolar/internal/cluster"
)

// faultTolerance is the acceptance bound: a recovered run regroups
// floating-point sums (a survivor's accumulator absorbs the dead rank's
// rows), so bitwise equality is not expected — 1e-12 relative is.
const faultTolerance = 1e-12

func TestRedivideSpans(t *testing.T) {
	check := func(n, P int, dead []int) {
		t.Helper()
		asgn := RedivideSpans(n, P, dead)
		covered := make([]int, n)
		isDead := make(map[int]bool)
		for _, d := range dead {
			isDead[d] = true
		}
		for r, spans := range asgn {
			if isDead[r] && len(spans) > 0 {
				t.Errorf("n=%d P=%d dead=%v: dead rank %d still owns %v", n, P, dead, r, spans)
			}
			for _, sp := range spans {
				if sp.Lo < 0 || sp.Hi > n || sp.Lo >= sp.Hi {
					t.Errorf("bad span %+v", sp)
				}
				for i := sp.Lo; i < sp.Hi; i++ {
					covered[i]++
				}
			}
		}
		if len(dead) < P {
			for i, cnt := range covered {
				if cnt != 1 {
					t.Fatalf("n=%d P=%d dead=%v: row %d covered %d times", n, P, dead, i, cnt)
				}
			}
		}
	}
	check(100, 4, nil)
	check(100, 4, []int{2})
	check(100, 4, []int{2, 0})
	check(100, 4, []int{3, 1, 0})
	check(7, 3, []int{1})
	check(5, 8, []int{0, 7, 3}) // more ranks than rows
	check(1, 2, []int{0})

	// Pure function: identical inputs, identical partition.
	a := RedivideSpans(100, 4, []int{2, 0})
	b := RedivideSpans(100, 4, []int{2, 0})
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatal("redivision not deterministic")
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatal("redivision not deterministic")
			}
		}
	}

	// Death order matters for WHO gets what, but coverage always holds;
	// a survivor's assignment only ever grows.
	before := RedivideSpans(100, 4, []int{2})
	after := RedivideSpans(100, 4, []int{2, 0})
	for _, sp := range before[1] {
		found := false
		for _, sp2 := range after[1] {
			if sp2 == sp {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rank 1 lost span %+v after a second death", sp)
		}
	}
}

// resilientCfg builds the standard 4-rank config used by the fault
// tests; the short stall timeout bounds every blocking call in real
// time, so no test here can hang.
func resilientCfg(plan *cluster.FaultPlan) cluster.Config {
	cfg := distCfg(4, 1, 4, 1)
	cfg.Faults = plan
	cfg.StallTimeout = 30 * time.Second
	return cfg
}

// runResilient runs RunDistributedResilient under a real-time watchdog —
// the "never hangs" assertion made executable.
func runResilient(t *testing.T, sys *System, cfg cluster.Config) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunDistributedResilient(sys, cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(2 * time.Minute):
		t.Fatal("resilient run exceeded the per-test deadline")
		return nil
	}
}

// TestCrashAtEveryPhaseBoundary is the issue's acceptance criterion: a
// single rank crash at ANY phase boundary (each of the three collectives,
// plus mid-compute before the first) must leave the distributed runner
// completing with E_pol within 1e-12 relative of the fault-free value,
// with recovery metered on the virtual clock.
func TestCrashAtEveryPhaseBoundary(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, Params{})
	ref := runResilient(t, sys, resilientCfg(nil))

	type trigger struct {
		name  string
		fault func(victim int) cluster.Fault
	}
	var triggers []trigger
	// Collective boundaries 1..3: Born integrals, radii, energy.
	for nth := 1; nth <= 3; nth++ {
		nth := nth
		triggers = append(triggers, trigger{
			name: fmt.Sprintf("collective-%d", nth),
			fault: func(int) cluster.Fault {
				return cluster.Fault{Kind: cluster.CrashAtCollective, Nth: nth}
			},
		})
	}
	// Mid-compute crashes: virtual-clock triggers as fractions of the
	// VICTIM's own fault-free compute time. Its clock at the last crash
	// checkpoint (entry to the final collective) is at least its total
	// compute charge, so any fraction < 1 is guaranteed to fire.
	for _, frac := range []float64{0.0, 0.3, 0.7} {
		frac := frac
		triggers = append(triggers, trigger{
			name: fmt.Sprintf("clock-%.0f%%", frac*100),
			fault: func(victim int) cluster.Fault {
				vCompute := ref.Report.PerRank[victim].ComputeSeconds
				return cluster.Fault{Kind: cluster.CrashAtClock, Clock: frac * vCompute}
			},
		})
	}

	for _, victim := range []int{0, 2, 3} {
		for _, tr := range triggers {
			t.Run(fmt.Sprintf("rank%d/%s", victim, tr.name), func(t *testing.T) {
				f := tr.fault(victim)
				f.Rank = victim
				res := runResilient(t, sys, resilientCfg(&cluster.FaultPlan{Faults: []cluster.Fault{f}}))
				fr := res.Report.Faults
				if fr == nil {
					t.Fatal("no FaultReport")
				}
				if fr.Degraded {
					t.Fatalf("degraded on a 1-of-4 crash: %s", fr.DegradedReason)
				}
				if e := relErr(res.Epol, ref.Epol); e > faultTolerance {
					t.Errorf("E_pol %g vs fault-free %g (rel %g)", res.Epol, ref.Epol, e)
				}
				if fr.Crashes != 1 {
					t.Errorf("Crashes = %d, want 1", fr.Crashes)
				}
				if len(fr.Detections) == 0 {
					t.Error("no detections recorded")
				}
				if fr.RecomputedRows <= 0 {
					t.Error("no recomputed rows metered")
				}
				if fr.RecoverySeconds <= 0 {
					t.Error("no recovery time metered on the virtual clock")
				}
				if !res.Report.PerRank[victim].Died {
					t.Errorf("victim rank %d not marked Died", victim)
				}
			})
		}
	}
}

func TestTwoCrashesStillRecover(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, Params{})
	ref := runResilient(t, sys, resilientCfg(nil))
	plan := &cluster.FaultPlan{Faults: []cluster.Fault{
		{Kind: cluster.CrashAtCollective, Rank: 1, Nth: 1},
		{Kind: cluster.CrashAtCollective, Rank: 3, Nth: 2},
	}}
	res := runResilient(t, sys, resilientCfg(plan))
	fr := res.Report.Faults
	if fr.Degraded {
		t.Fatalf("degraded on 2-of-4 crashes: %s", fr.DegradedReason)
	}
	if e := relErr(res.Epol, ref.Epol); e > faultTolerance {
		t.Errorf("E_pol %g vs fault-free %g (rel %g)", res.Epol, ref.Epol, e)
	}
	if fr.Crashes != 2 {
		t.Errorf("Crashes = %d, want 2", fr.Crashes)
	}
}

// TestDegradesToSharedRunner: with P=2, one crash leaves a lone survivor
// — below the 2-rank floor — so the run must fall back to the shared
// runner and say why.
func TestDegradesToSharedRunner(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, Params{})
	shared, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := distCfg(2, 1, 2, 1)
	cfg.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{Kind: cluster.CrashAtCollective, Rank: 0, Nth: 2},
	}}
	cfg.StallTimeout = 30 * time.Second
	res := runResilient(t, sys, cfg)
	fr := res.Report.Faults
	if fr == nil || !fr.Degraded {
		t.Fatal("lone survivor did not degrade to the shared runner")
	}
	if fr.DegradedReason == "" {
		t.Error("degradation has no reason")
	}
	if e := relErr(res.Epol, shared.Epol); e > faultTolerance {
		t.Errorf("degraded E_pol %g vs shared %g (rel %g)", res.Epol, shared.Epol, e)
	}
}

// TestFaultMatrix is the `make faults` target: {crash, drop, delay} ×
// {Born phase, E_pol phase, collective boundary}. Crashes exercise the
// self-healing static runner (its only communication is collectives);
// drops and delays exercise the work-stealing runner's point-to-point
// protocol, where the modeled reliable transport must absorb them.
func TestFaultMatrix(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, Params{})
	ref := runResilient(t, sys, resilientCfg(nil))
	dynRef, _, err := RunDistributedDynamic(sys, distCfg(4, 1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}

	phases := []struct {
		name string
		mk   func(kind cluster.FaultKind) cluster.Fault
	}{
		{"born", func(kind cluster.FaultKind) cluster.Fault {
			return cluster.Fault{Kind: kind, Rank: 2, Clock: 0.2 * ref.ModelSeconds, Nth: 1, Count: 3,
				Peer: -1, Tag: cluster.AnyTag, Delay: 2 * time.Millisecond}
		}},
		{"epol", func(kind cluster.FaultKind) cluster.Fault {
			return cluster.Fault{Kind: kind, Rank: 2, Clock: 0.8 * ref.ModelSeconds, Nth: 3, Count: 3,
				Peer: -1, Tag: cluster.AnyTag, Delay: 2 * time.Millisecond}
		}},
		{"collective", func(kind cluster.FaultKind) cluster.Fault {
			return cluster.Fault{Kind: kind, Rank: 2, Clock: 0.5 * ref.ModelSeconds, Nth: 2, Count: 3,
				Peer: -1, Tag: cluster.AnyTag, Delay: 2 * time.Millisecond}
		}},
	}

	for _, ph := range phases {
		// Crash: the boundary variant uses CrashAtCollective, the phase
		// variants CrashAtClock.
		kind := cluster.CrashAtClock
		if ph.name == "collective" {
			kind = cluster.CrashAtCollective
		}
		t.Run("crash/"+ph.name, func(t *testing.T) {
			plan := &cluster.FaultPlan{Faults: []cluster.Fault{ph.mk(kind)}}
			res := runResilient(t, sys, resilientCfg(plan))
			if res.Report.Faults.Degraded {
				t.Fatalf("degraded: %s", res.Report.Faults.DegradedReason)
			}
			if e := relErr(res.Epol, ref.Epol); e > faultTolerance {
				t.Errorf("E_pol rel err %g", e)
			}
		})

		for _, kind := range []cluster.FaultKind{cluster.DropMessages, cluster.DelayMessages} {
			kind := kind
			t.Run(kind.String()+"/"+ph.name, func(t *testing.T) {
				cfg := distCfg(4, 1, 4, 1)
				cfg.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{ph.mk(kind)}}
				cfg.StallTimeout = 30 * time.Second
				res, _, err := RunDistributedDynamic(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Report != nil && res.Report.Faults != nil && res.Report.Faults.Degraded {
					if res.Report.Faults.DegradedReason == "" {
						t.Error("degraded without a reason")
					}
					t.Logf("degraded cleanly: %s", res.Report.Faults.DegradedReason)
				}
				if e := relErr(res.Epol, dynRef.Epol); e > faultTolerance {
					t.Errorf("E_pol %g vs dynamic ref %g (rel %g)", res.Epol, dynRef.Epol, e)
				}
			})
		}
	}
}

// TestChaosDeterministic runs 50 evaluations under a fixed-seed random
// fault schedule. Every run must either complete with E_pol within 1e-12
// of the fault-free reference or degrade cleanly with a reported reason —
// and never hang (per-evaluation watchdog).
func TestChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	sys, _, _ := testSystem(t, 150, 11, Params{})
	ref := runResilient(t, sys, resilientCfg(nil))

	const evals = 50
	recovered, degraded := 0, 0
	for i := 0; i < evals; i++ {
		plan := cluster.RandomFaultPlan(1000+int64(i), 4, 2, ref.ModelSeconds)
		cfg := resilientCfg(plan)
		cfg.StallTimeout = 15 * time.Second
		res := runResilient(t, sys, cfg)
		fr := res.Report.Faults
		if fr == nil {
			t.Fatalf("eval %d: no fault report", i)
		}
		if fr.Degraded {
			degraded++
			if fr.DegradedReason == "" {
				t.Errorf("eval %d: degraded without a reason", i)
			}
			continue
		}
		recovered++
		if e := relErr(res.Epol, ref.Epol); e > faultTolerance {
			t.Errorf("eval %d: E_pol %g vs %g (rel %g), plan %+v", i, res.Epol, ref.Epol, e, plan.Faults)
		}
	}
	t.Logf("chaos: %d recovered, %d degraded cleanly", recovered, degraded)
	if recovered == 0 {
		t.Error("no evaluation recovered — the schedule is not exercising recovery")
	}

	// Determinism: replaying one seed reproduces the energy bitwise.
	plan := cluster.RandomFaultPlan(1003, 4, 2, ref.ModelSeconds)
	a := runResilient(t, sys, resilientCfg(plan))
	b := runResilient(t, sys, resilientCfg(cluster.RandomFaultPlan(1003, 4, 2, ref.ModelSeconds)))
	if a.Epol != b.Epol {
		t.Errorf("same fault seed, different energies: %g vs %g", a.Epol, b.Epol)
	}
}
