package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"gbpolar/internal/obs"
)

// netPaths returns fresh membership/checkpoint paths for one run.
func netPaths(t *testing.T) (membership, checkpoint string) {
	dir := t.TempDir()
	return filepath.Join(dir, "cluster.json"), filepath.Join(dir, "sys.ckpt")
}

// netWorkerGoroutines hosts ranks 1..procs-1 as goroutines running the
// REAL worker entry point (membership file, checkpoint decode, TCP dial)
// — everything a worker process does except the process boundary.
func netWorkerGoroutines(membership string, procs int) (outs []*ElasticOut, errs []error, wait func()) {
	outs = make([]*ElasticOut, procs)
	errs = make([]error, procs)
	var wg sync.WaitGroup
	for r := 1; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = RunNetWorker(membership, r, NetWorkerOptions{
				StallTimeout: 60 * time.Second,
				JoinBudget:   60 * time.Second,
			})
		}(r)
	}
	return outs, errs, wg.Wait
}

// The acceptance parity run: a 4-rank TCP cluster on the 5k-atom
// workload matches the in-process resilient runner to 1e-12 relative —
// same algorithm, real sockets, workers restored from the checkpoint.
func TestNetRunMatchesResilient5k(t *testing.T) {
	atoms := 5000
	if testing.Short() {
		atoms = 800
	}
	sys, _, _ := testSystem(t, atoms, 21, DefaultParams())
	want := runResilient(t, sys, resilientCfg(nil))

	membership, checkpoint := netPaths(t)
	outs, errs, wait := netWorkerGoroutines(membership, 4)
	res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:          4,
		MembershipPath: membership,
		CheckpointPath: checkpoint,
		StallTimeout:   60 * time.Second,
	})
	wait()
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if errs[r] != nil {
			t.Fatalf("worker rank %d: %v", r, errs[r])
		}
	}
	if res.Report == nil || res.Report.Faults == nil || res.Report.Faults.Degraded {
		t.Fatalf("clean net run degraded: %+v", res.Report)
	}
	if e := relErr(res.Epol, want.Epol); e > 1e-12 {
		t.Fatalf("net E_pol %.17g vs resilient %.17g (rel %g)", res.Epol, want.Epol, e)
	}
	for i := range want.BornRadii {
		if e := relErr(res.BornRadii[i], want.BornRadii[i]); e > 1e-12 {
			t.Fatalf("Born radius %d: net %.17g vs resilient %.17g", i, res.BornRadii[i], want.BornRadii[i])
		}
	}
	// Every worker that completed the protocol agreed on the energy — the
	// reduction is a consensus value, identical on all ranks.
	for r := 1; r < 4; r++ {
		if !outs[r].Completed {
			t.Fatalf("worker rank %d did not complete", r)
		}
		if outs[r].Epol != res.Epol {
			t.Fatalf("rank %d E_pol %.17g differs from rank 0's %.17g", r, outs[r].Epol, res.Epol)
		}
	}
}

// The teardown race: RunNetCoordinator used to wait for the workers' Bye
// only when an observer was attached, so an unobserved clean run could
// close the coordinator while a worker was still reading the reply to its
// last collective — "connection lost … aborted by another rank's failure"
// beside a correct energy, about once in 2 100 runs. Back-to-back
// unobserved P=2 loopback runs of a small molecule: every worker returns
// nil, every run is clean.
func TestNetCleanTeardownNoObserver(t *testing.T) {
	runs := 500
	if testing.Short() {
		runs = 50
	}
	sys, _, _ := testSystem(t, 120, 23, DefaultParams())
	dir := t.TempDir()
	checkpoint := filepath.Join(dir, "sys.ckpt")
	for i := 0; i < runs; i++ {
		// A fresh membership file per run: the worker polls for it, and the
		// previous run's would send it to a closed address.
		membership := filepath.Join(dir, fmt.Sprintf("cluster-%d.json", i))
		_, errs, wait := netWorkerGoroutines(membership, 2)
		res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
			Procs:          2,
			MembershipPath: membership,
			CheckpointPath: checkpoint,
			StallTimeout:   60 * time.Second,
		})
		wait()
		if err != nil {
			t.Fatalf("run %d: coordinator: %v", i, err)
		}
		if errs[1] != nil {
			t.Fatalf("run %d: worker: %v", i, errs[1])
		}
		if res.Report.Faults.Degraded {
			t.Fatalf("run %d degraded: %+v", i, res.Report.Faults)
		}
	}
}

// TestNetWorkerHelper is the re-exec entry point for the chaos test: it
// becomes a real worker process when the environment says so (and is
// skipped as a no-op in a normal test run).
func TestNetWorkerHelper(t *testing.T) {
	if os.Getenv("GBPOL_NET_HELPER") != "1" {
		t.Skip("helper process entry point; driven by TestNetChaosSIGKILL")
	}
	rank, _ := strconv.Atoi(os.Getenv("GBPOL_NET_RANK"))
	kill, _ := strconv.Atoi(os.Getenv("GBPOL_NET_KILL"))
	var wo *obs.Obs
	if os.Getenv("GBPOL_NET_TELEMETRY") == "1" {
		// An observing worker ships telemetry; the chaos driver asserts
		// the SIGKILLed rank's spans survive in the merged trace.
		wo = obs.New()
	}
	_, err := RunNetWorker(os.Getenv("GBPOL_NET_MEMBERSHIP"), rank, NetWorkerOptions{
		StallTimeout:     60 * time.Second,
		JoinBudget:       30 * time.Second,
		KillAtCollective: kill,
		Obs:              wo,
	})
	if err != nil {
		// A respawned-too-late worker (run already over) exits non-zero;
		// the driving test only asserts on the coordinator's result.
		fmt.Fprintf(os.Stderr, "helper rank %d: %v\n", rank, err)
		os.Exit(1)
	}
}

// helperSpawner returns a NetOptions.Spawn that starts rank as a real worker
// process (TestNetWorkerHelper, shipping telemetry) and arms the first
// incarnation of victim to SIGKILL itself entering collective killColl;
// its respawn survives. The processes are killed when t ends.
func helperSpawner(t *testing.T, exe, membership string, victim, killColl int) func(rank int) error {
	var mu sync.Mutex
	killArmed := true
	var procs []*exec.Cmd
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, cmd := range procs {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	})
	return func(rank int) error {
		cmd := exec.Command(exe, "-test.run", "^TestNetWorkerHelper$")
		env := append(os.Environ(),
			"GBPOL_NET_HELPER=1",
			"GBPOL_NET_RANK="+strconv.Itoa(rank),
			"GBPOL_NET_MEMBERSHIP="+membership,
			"GBPOL_NET_TELEMETRY=1",
		)
		mu.Lock()
		if killArmed && rank == victim {
			killArmed = false // the respawned incarnation must survive
			env = append(env, "GBPOL_NET_KILL="+strconv.Itoa(killColl))
		}
		mu.Unlock()
		cmd.Env = env
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		mu.Lock()
		procs = append(procs, cmd)
		mu.Unlock()
		go cmd.Wait()
		return nil
	}
}

// The chaos acceptance run: REAL worker processes, one SIGKILLed at a
// seeded random collective boundary, respawned and re-admitted — and the
// energy still matches the shared-memory reference to 1e-12 (or the run
// reports degradation, never a wrong answer).
func TestNetChaosSIGKILL(t *testing.T) {
	atoms := 1500
	if testing.Short() {
		atoms = 500
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	victim := 1 + rng.Intn(3)   // ranks 1..3 (0 is the coordinator)
	killColl := 2 + rng.Intn(2) // collective 2 or 3: the victim completes
	// at least one collective first, so the merged trace must hold its
	// boundary-flushed spans from before the SIGKILL.
	t.Logf("chaos: SIGKILL rank %d entering collective %d", victim, killColl)

	sys, _, _ := testSystem(t, atoms, 33, DefaultParams())
	want, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}

	membership, checkpoint := netPaths(t)
	coObs := obs.New()
	flightDir := filepath.Join(t.TempDir(), "flight")
	res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:             4,
		MembershipPath:    membership,
		CheckpointPath:    checkpoint,
		Spawn:             helperSpawner(t, exe, membership, victim, killColl),
		RespawnDead:       true,
		StallTimeout:      60 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		Obs:               coObs,
		FlightDir:         flightDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Report.Faults
	if fr == nil {
		t.Fatal("chaos run carries no fault report")
	}
	if fr.Degraded {
		// Acceptable outcome: the run reported degradation instead of a
		// wrong answer — but the energy must still be correct (it came
		// from the shared fallback).
		t.Logf("degraded: %s", fr.DegradedReason)
	} else if fr.Crashes < 1 {
		t.Fatalf("SIGKILL was never detected: %+v", fr)
	}
	if e := relErr(res.Epol, want.Epol); e > 1e-12 {
		t.Fatalf("chaos E_pol %.17g vs shared %.17g (rel %g)", res.Epol, want.Epol, e)
	}

	// The observability plane under chaos: the death (or degradation)
	// dumped the coordinator's flight ring.
	dumps, err := filepath.Glob(filepath.Join(flightDir, "flight-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Fatalf("no flight-recorder dump in %s after a detected crash", flightDir)
	}
	// And the victim's boundary-flushed telemetry survived the SIGKILL:
	// every phase completed before collective killColl was shipped, so
	// the merged trace holds at least killColl-1 of the victim's phase
	// spans (the respawned incarnation adds the rest on a clean heal).
	if !fr.Degraded && killColl > 1 {
		victimPhases := 0
		for _, ev := range coObs.Trace.Events() {
			if ev.Rank == victim && ev.Cat == "phase" {
				victimPhases++
			}
		}
		if victimPhases < killColl-1 {
			t.Fatalf("merged trace holds %d phase spans for killed rank %d, want >= %d",
				victimPhases, victim, killColl-1)
		}
	}
}

// A restarted coordinator resumes from its checkpoint: the snapshot
// restores the compiled lists (no recompilation) and a rerun over fresh
// workers reproduces the energy exactly.
func TestNetCoordinatorRestartFromCheckpoint(t *testing.T) {
	sys, _, _ := testSystem(t, 400, 9, DefaultParams())
	membership, checkpoint := netPaths(t)
	_, errs, wait := netWorkerGoroutines(membership, 2)
	res1, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:          2,
		MembershipPath: membership,
		CheckpointPath: checkpoint,
		StallTimeout:   60 * time.Second,
	})
	wait()
	if err != nil {
		t.Fatal(err)
	}
	if errs[1] != nil {
		t.Fatal(errs[1])
	}

	// "Coordinator restart": a fresh process would load the checkpoint
	// instead of rebuilding. The decoded system must already carry the
	// compiled lists — resuming pays zero traversal/compilation cost.
	sys2, err := LoadSnapshot(checkpoint, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.lists == nil {
		t.Fatal("checkpoint restored without compiled lists — restart would recompile")
	}
	membership2 := filepath.Join(t.TempDir(), "cluster2.json")
	_, errs2, wait2 := netWorkerGoroutines(membership2, 2)
	res2, err := RunNetCoordinator(context.Background(), sys2, NetOptions{
		Procs:          2,
		MembershipPath: membership2,
		CheckpointPath: checkpoint,
		StallTimeout:   60 * time.Second,
	})
	wait2()
	if err != nil {
		t.Fatal(err)
	}
	if errs2[1] != nil {
		t.Fatal(errs2[1])
	}
	if res2.Epol != res1.Epol {
		t.Fatalf("restarted run E_pol %.17g differs from original %.17g", res2.Epol, res1.Epol)
	}
}

// Cancelling the context aborts a net run that would otherwise wait for
// missing workers, and tears down every goroutine the run started.
func TestNetRunContextCancel(t *testing.T) {
	sys, _, _ := testSystem(t, 150, 5, DefaultParams())
	membership, checkpoint := netPaths(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	// Procs=2 with no worker ever joining: rank 0 blocks at its first
	// collective until the cancel rips the cluster down.
	_, err := RunNetCoordinator(ctx, sys, NetOptions{
		Procs:          2,
		MembershipPath: membership,
		CheckpointPath: checkpoint,
		StallTimeout:   60 * time.Second,
		JoinDeadline:   60 * time.Second,
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the error chain, got %v", err)
	}
}

// A joiner admitted after the final collective has nothing to compute
// and reports Completed=false instead of wrong numbers.
func TestNetWorkerLateJoin(t *testing.T) {
	sys, _, _ := testSystem(t, 150, 6, DefaultParams())
	membership, checkpoint := netPaths(t)
	outs, errs, wait := netWorkerGoroutines(membership, 2)
	res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:          2,
		MembershipPath: membership,
		CheckpointPath: checkpoint,
		StallTimeout:   60 * time.Second,
	})
	wait()
	if err != nil || errs[1] != nil {
		t.Fatal(err, errs[1])
	}
	if !outs[1].Completed || outs[1].Epol != res.Epol {
		t.Fatalf("founding worker: %+v vs %.17g", outs[1], res.Epol)
	}
}

// phaseSpans groups the phase spans of events by name.
func phaseSpans(events []obs.Event) map[string][]obs.Event {
	spans := map[string][]obs.Event{}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Cat == "phase" {
			spans[ev.Name] = append(spans[ev.Name], ev)
		}
	}
	return spans
}

// checkBornOnRankZero fails t unless the Born and push phases ran on rank 0
// alone, each over all of its rows with none inherited, as a TCP run
// divides them (pipeline.holders).
func checkBornOnRankZero(t *testing.T, sys *System, spans map[string][]obs.Event) {
	t.Helper()
	for name, rows := range map[string]int{"born": len(sys.QPts.Leaves()), "push": sys.Mol.NumAtoms()} {
		if len(spans[name]) != 1 {
			t.Fatalf("%d %s spans, want rank 0's one: %+v", len(spans[name]), name, spans[name])
		}
		ev := spans[name][0]
		if ev.Rank != 0 || ev.Args["rows"] != float64(rows) || ev.Args["inherited"] != 0 {
			t.Fatalf("%s span on rank %d over %v rows, %v inherited; want rank 0 over all %d, none inherited",
				name, ev.Rank, ev.Args["rows"], ev.Args["inherited"], rows)
		}
	}
}

// In a TCP run the Born and push phases are rank 0's: it alone holds the
// surface side, and a worker decodes only the E_pol side of the checkpoint.
// In 2- and 3-rank runs no worker's trace holds a born or push span, every
// worker sweeps E_pol rows, and the energy and every Born radius are the
// shared runner's to 1e-12.
func TestNetPhasesOnHolders(t *testing.T) {
	sys, _, _ := testSystem(t, 1200, 41, DefaultParams())
	want, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 3} {
		t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
			membership, checkpoint := netPaths(t)
			workerObs := make([]*obs.Obs, procs)
			errs := make([]error, procs)
			var wg sync.WaitGroup
			for r := 1; r < procs; r++ {
				workerObs[r] = obs.New()
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					_, errs[r] = RunNetWorker(membership, r, NetWorkerOptions{
						StallTimeout:   60 * time.Second,
						JoinBudget:     60 * time.Second,
						HealthInterval: -1,
						Obs:            workerObs[r],
					})
				}(r)
			}
			coObs := obs.New()
			res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
				Procs:          procs,
				MembershipPath: membership,
				CheckpointPath: checkpoint,
				StallTimeout:   60 * time.Second,
				HealthInterval: -1,
				Obs:            coObs,
			})
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Faults.Degraded {
				t.Fatalf("clean run degraded: %+v", res.Report.Faults)
			}
			for r := 1; r < procs; r++ {
				if errs[r] != nil {
					t.Fatalf("worker rank %d: %v", r, errs[r])
				}
				spans := phaseSpans(workerObs[r].Trace.Events())
				if len(spans["born"])+len(spans["push"]) != 0 {
					t.Fatalf("worker rank %d ran %d born and %d push spans", r, len(spans["born"]), len(spans["push"]))
				}
				if len(spans["epol"]) != 1 || spans["epol"][0].Args["rows"] == 0 {
					t.Fatalf("worker rank %d swept no E_pol rows: %+v", r, spans["epol"])
				}
			}
			checkBornOnRankZero(t, sys, phaseSpans(coObs.Trace.Events()))
			if e := relErr(res.Epol, want.Epol); e > 1e-12 {
				t.Fatalf("net E_pol %.17g vs shared %.17g (rel %g)", res.Epol, want.Epol, e)
			}
			for i := range want.BornRadii {
				if e := relErr(res.BornRadii[i], want.BornRadii[i]); e > 1e-12 {
					t.Fatalf("Born radius %d: net %.17g vs shared %.17g", i, res.BornRadii[i], want.BornRadii[i])
				}
			}
		})
	}
}

// A worker process SIGKILLed entering its first collective — the Born
// Allreduce — and respawned: the survivors heal and the run still matches
// the shared runner to 1e-12. No Born or push row moves: those phases are
// rank 0's whatever the membership log says, so no rank inherits one.
func TestNetKilledAtBornRespawned(t *testing.T) {
	atoms := 1500
	if testing.Short() {
		atoms = 500
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sys, _, _ := testSystem(t, atoms, 35, DefaultParams())
	want, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	membership, checkpoint := netPaths(t)
	coObs := obs.New()
	res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:             3,
		MembershipPath:    membership,
		CheckpointPath:    checkpoint,
		Spawn:             helperSpawner(t, exe, membership, 1, 1),
		RespawnDead:       true,
		StallTimeout:      60 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HealthInterval:    -1,
		Obs:               coObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr := res.Report.Faults; fr.Degraded || fr.Crashes < 1 {
		t.Fatalf("want a healed crash, got %+v", fr)
	}
	checkBornOnRankZero(t, sys, phaseSpans(coObs.Trace.Events()))
	if e := relErr(res.Epol, want.Epol); e > 1e-12 {
		t.Fatalf("healed E_pol %.17g vs shared %.17g (rel %g)", res.Epol, want.Epol, e)
	}
	for i := range want.BornRadii {
		if e := relErr(res.BornRadii[i], want.BornRadii[i]); e > 1e-12 {
			t.Fatalf("Born radius %d: healed %.17g vs shared %.17g", i, res.BornRadii[i], want.BornRadii[i])
		}
	}
}
