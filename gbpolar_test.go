package gbpolar

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
)

var ctx = context.Background()

func TestQuickstartFlow(t *testing.T) {
	mol := GenerateProtein("quick", 400, 1)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compute(ctx, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epol >= 0 {
		t.Errorf("E_pol = %v, want negative", res.Epol)
	}
	if len(res.BornRadii) != mol.NumAtoms() {
		t.Errorf("%d radii for %d atoms", len(res.BornRadii), mol.NumAtoms())
	}
	naiveE, _ := eng.ComputeNaive()
	if rel := math.Abs((res.Epol - naiveE) / naiveE); rel > 0.05 {
		t.Errorf("error vs naive %.2f%%", 100*rel)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("nil molecule accepted")
	}
	if _, err := NewEngine(&Molecule{}, Options{}); err == nil {
		t.Error("empty molecule accepted")
	}
	bad := GenerateProtein("bad", 10, 2)
	bad.Atoms[0].Radius = -1
	if _, err := NewEngine(bad, Options{}); err == nil {
		t.Error("invalid molecule accepted")
	}
}

func TestComputeDistributedFacade(t *testing.T) {
	mol := GenerateProtein("dist", 300, 3)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := eng.Compute(ctx, Plan{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compute(ctx, Plan{Cluster: &Cluster{Procs: 4, ThreadsPerProc: 1, Modeled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((res.Epol-shared.Epol)/shared.Epol) > 1e-9 {
		t.Errorf("distributed %v vs shared %v", res.Epol, shared.Epol)
	}
	if res.Report == nil {
		t.Error("no cluster report")
	}
	if _, err := eng.Compute(ctx, Plan{Cluster: &Cluster{}}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestReposeInvariance(t *testing.T) {
	// Rigidly re-posing the whole system must not change the energy —
	// and must not require rebuilding the engine.
	mol := GenerateProtein("pose", 250, 4)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Compute(ctx, Plan{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Repose(geom.Translate(geom.V(30, -12, 5)).Compose(geom.RotateAxis(geom.V(1, 1, 1), 1.0)))
	after, err := eng.Compute(ctx, Plan{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs((after.Epol - before.Epol) / before.Epol); rel > 1e-9 {
		t.Errorf("energy changed by %.3g under rigid motion: %v -> %v", rel, before.Epol, after.Epol)
	}
}

func TestOptionsPlumbed(t *testing.T) {
	mol := GenerateProtein("opts", 300, 5)
	loose, err := NewEngine(mol, Options{EpsEpol: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewEngine(mol, Options{EpsEpol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.Compute(ctx, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tight.Compute(ctx, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Ops <= rl.Ops {
		t.Errorf("tight eps ops %v not above loose eps ops %v", rt.Ops, rl.Ops)
	}
	naive, _ := loose.ComputeNaive()
	if math.Abs((rt.Epol-naive)/naive) > math.Abs((rl.Epol-naive)/naive)+0.01 {
		t.Error("tighter eps did not improve (or hold) accuracy")
	}
}

func TestFileRoundTripViaFacade(t *testing.T) {
	dir := t.TempDir()
	mol := GenerateLigand("lig", 30, 6)
	path := filepath.Join(dir, "lig.pqr")
	if err := SaveMolecule(path, mol); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMolecule(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != 30 {
		t.Errorf("loaded %d atoms", got.NumAtoms())
	}
}

func TestMergeAndCapsid(t *testing.T) {
	rec := GenerateProtein("rec", 200, 7)
	lig := GenerateLigand("lig", 25, 8)
	cplx := MergeMolecules("cplx", rec, lig)
	if cplx.NumAtoms() != 225 {
		t.Errorf("complex has %d atoms", cplx.NumAtoms())
	}
	cap := GenerateCapsid("cap", 1000, 25, 32, 9)
	if cap.NumAtoms() != 1000 {
		t.Errorf("capsid has %d atoms", cap.NumAtoms())
	}
	eng, err := NewEngine(cap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Compute(ctx, Plan{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epol >= 0 {
		t.Error("capsid energy not negative")
	}
}

func TestNumQuadraturePointsScalesWithAtoms(t *testing.T) {
	small, err := NewEngine(GenerateProtein("s", 100, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewEngine(GenerateProtein("b", 8000, 11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.NumQuadraturePoints() <= small.NumQuadraturePoints() {
		t.Error("q-point count did not grow with molecule size")
	}
}

// ApproximateMath is the one arithmetic knob: it selects the laned tier,
// whose compiled energy and naive reference both stay within the
// approximate-math class (1e-4) of the exact engine's.
func TestApproximateMathSelectsLanes(t *testing.T) {
	mol := GenerateProtein("approxf", 300, 12)
	exact, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewEngine(mol, Options{ApproximateMath: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := approx.sys.Params.Precision; p != core.PrecisionLanes {
		t.Fatalf("ApproximateMath selected precision %v, want lanes", p)
	}
	if m := approx.sys.Params.MathMode(); m != mathx.Approximate {
		t.Fatalf("ApproximateMath gives math mode %v, want approximate", m)
	}
	for _, compute := range []func(*Engine) float64{
		func(e *Engine) float64 {
			res, err := e.Compute(ctx, Plan{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			return res.Epol
		},
		func(e *Engine) float64 { epol, _ := e.ComputeNaive(); return epol },
	} {
		if a, x := compute(approx), compute(exact); !(math.Abs((a-x)/x) <= 1e-4) {
			t.Errorf("approximate math %v vs exact %v", a, x)
		}
	}
}

func TestComputeDistributedDynamicFacade(t *testing.T) {
	mol := GenerateProtein("dynf", 300, 13)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := eng.Compute(ctx, Plan{Cluster: &Cluster{Procs: 3, Modeled: true}})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := eng.Compute(ctx, Plan{Cluster: &Cluster{Procs: 3, Modeled: true}, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Stealing == nil {
		t.Fatal("no stats")
	}
	if math.Abs((dyn.Epol-static.Epol)/static.Epol) > 1e-9 {
		t.Errorf("dynamic %v vs static %v", dyn.Epol, static.Epol)
	}
	if _, err := eng.Compute(ctx, Plan{Cluster: &Cluster{Modeled: true}, Stealing: true}); err == nil {
		t.Error("zero procs accepted")
	}
}

// One row per error class of the two front-loaded validators: every
// out-of-range input is a typed error naming the field, before any work.
func TestValidateTypedErrors(t *testing.T) {
	mol := GenerateProtein("val", 60, 14)
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"EpsBorn", Options{EpsBorn: -0.5}},
		{"EpsBorn", Options{EpsBorn: math.NaN()}},
		{"EpsEpol", Options{EpsEpol: math.Inf(1)}},
		{"SolventDielectric", Options{SolventDielectric: 1}},
		{"SurfaceLevel", Options{SurfaceLevel: -1}},
		{"QuadratureDegree", Options{QuadratureDegree: 6}},
		{"LeafCap", Options{LeafCap: -8}},
		{"Builder", Options{Builder: "kd"}},
	} {
		_, err := NewEngine(mol, tc.opts)
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("Options%+v: got %v, want *OptionError on %s", tc.opts, err, tc.field)
		}
		if _, err := NewEngineWithSurface(mol, nil, tc.opts); !errors.As(err, &oe) {
			t.Errorf("NewEngineWithSurface(%+v): got %v, want *OptionError first", tc.opts, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options: %v", err)
	}
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	crash := &FaultPlan{Faults: []Fault{{Kind: CrashAtCollective, Rank: 1, Nth: 1}}}
	net := &NetRun{Procs: 2, MembershipPath: "m", CheckpointPath: "c"}
	for _, tc := range []struct {
		name string
		code PlanErrorCode
		plan Plan
	}{
		{"cluster and net", PlanConflict, Plan{Cluster: &Cluster{Procs: 2}, Net: net}},
		{"threads on a cluster", PlanConflict, Plan{Threads: 2, Cluster: &Cluster{Procs: 2}}},
		{"faults without cluster", PlanConflict, Plan{Faults: crash}},
		{"stealing without cluster", PlanConflict, Plan{Stealing: true}},
		{"stealing with faults", PlanConflict, Plan{Cluster: &Cluster{Procs: 2, Modeled: true}, Faults: crash, Stealing: true}},
		{"negative threads", PlanThreads, Plan{Threads: -1}},
		{"zero procs", PlanProcs, Plan{Cluster: &Cluster{}}},
		{"negative threads per proc", PlanThreads, Plan{Cluster: &Cluster{Procs: 2, ThreadsPerProc: -1}}},
		{"faults on wall clock", PlanWallClock, Plan{Cluster: &Cluster{Procs: 2}, Faults: crash}},
		{"stealing on wall clock", PlanWallClock, Plan{Cluster: &Cluster{Procs: 2}, Stealing: true}},
		{"oversubscribed node", PlanLayout, Plan{Cluster: &Cluster{Procs: 24, Modeled: true}}},
		{"fault on a missing rank", PlanLayout, Plan{Cluster: &Cluster{Procs: 2, Modeled: true},
			Faults: &FaultPlan{Faults: []Fault{{Kind: CrashAtCollective, Rank: 7, Nth: 1}}}}},
		{"net zero procs", PlanProcs, Plan{Net: &NetRun{MembershipPath: "m", CheckpointPath: "c"}}},
		{"net negative threads", PlanThreads, Plan{Net: &NetRun{Procs: 2, ThreadsPerProc: -2, MembershipPath: "m", CheckpointPath: "c"}}},
		{"net without paths", PlanNetPaths, Plan{Net: &NetRun{Procs: 2}}},
	} {
		_, err := eng.Compute(ctx, tc.plan)
		var pe *PlanError
		if !errors.As(err, &pe) || pe.Code != tc.code {
			t.Errorf("%s: got %v, want *PlanError code %d", tc.name, err, tc.code)
		}
	}
	for _, ok := range []Plan{{}, {Threads: 2}, {Cluster: &Cluster{Procs: 12, Modeled: true}},
		{Cluster: &Cluster{Procs: 4, Modeled: true}, Faults: crash}, {Net: net}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
}

// The facade's default builder is morton — node for node the recursive
// builder's tree (internal/octree builder_equiv_test.go), so the energy is
// the same to the last bit of a one-worker run.
func TestDefaultBuilderIsMorton(t *testing.T) {
	mol := GenerateProtein("bld", 300, 15)
	var e [3]float64
	for i, b := range []string{"", "morton", "recursive"} {
		eng, err := NewEngine(mol, Options{Builder: b})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && eng.sys.Params.Builder.String() != "morton" {
			t.Errorf("default builder %v, want morton", eng.sys.Params.Builder)
		}
		res, err := eng.Compute(ctx, Plan{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		e[i] = res.Epol
	}
	if e[0] != e[1] || math.Abs((e[2]-e[0])/e[0]) > 1e-12 {
		t.Errorf("E_pol default %v morton %v recursive %v", e[0], e[1], e[2])
	}
}

// Net.WatchBaseline names a JSONL trace of a nominal run: a trace that
// cannot be read or holds no phase imbalance fails Compute before any
// rank starts or the membership file is published, and the trace of a
// nominal run is taken for the next one (TestNetWatchdogAcceptance in
// internal/core drives the watchdog it arms).
func TestNetWatchBaselineFromTrace(t *testing.T) {
	eng, err := NewEngine(GenerateProtein("watch", 300, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver()
	eng.Observe(o)
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spawned := 0
	run := func(baseline string) error {
		membership := filepath.Join(dir, "cluster.json")
		os.Remove(membership)
		var workers sync.WaitGroup
		defer workers.Wait()
		_, err := eng.Compute(ctx, Plan{Net: &NetRun{
			Procs:          2,
			MembershipPath: membership,
			CheckpointPath: filepath.Join(dir, "sys.ckpt"),
			StallTimeout:   time.Minute,
			WatchBaseline:  baseline,
			Spawn: func(rank int) error {
				spawned++
				workers.Add(1)
				go func() {
					defer workers.Done()
					if _, err := RunNetWorker(membership, rank, NetWorkerOptions{StallTimeout: time.Minute, JoinBudget: time.Minute}); err != nil {
						t.Errorf("worker rank %d: %v", rank, err)
					}
				}()
				return nil
			},
		}})
		return err
	}
	for _, bad := range []string{
		filepath.Join(dir, "missing.jsonl"),
		write("empty.jsonl", ""),
		write("garbage.jsonl", "not json\n"),
		write("instant.jsonl", `{"name":"x","cat":"fault","ph":"i","rank":0}`+"\n"),
	} {
		if err := run(bad); err == nil || !strings.Contains(err.Error(), "watch baseline") {
			t.Errorf("%s: Compute = %v, want a watch baseline error", filepath.Base(bad), err)
		}
		if _, err := os.Stat(filepath.Join(dir, "cluster.json")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: membership file published (%v)", filepath.Base(bad), err)
		}
	}
	if spawned != 0 {
		t.Fatalf("a bad baseline spawned %d workers", spawned)
	}

	if err := run(""); err != nil {
		t.Fatal(err)
	}
	var trace strings.Builder
	if err := o.Trace.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if err := run(write("nominal.jsonl", trace.String())); err != nil {
		t.Fatalf("run watched against a nominal trace: %v", err)
	}
}
