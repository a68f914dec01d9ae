// Command gbpol computes the GB polarization energy of a molecule with
// the octree-based algorithm of Tithi & Chowdhury (SC 2012).
//
// Usage:
//
//	gbpol -in molecule.pqr                        # shared memory, all cores
//	gbpol -gen 5000 -runner mpi -procs 12         # generated molecule, OCT_MPI
//	gbpol -gen 50000 -runner hybrid -procs 4 -threads 6 -naive
//	gbpol -gen 5000 -runner resilient -procs 4 -crash-rank 1 -crash-collective 2
//
// Runners: shared (OCT_CILK), mpi (OCT_MPI), hybrid (OCT_MPI+CILK),
// resilient (OCT_MPI with fault injection + self-healing recovery),
// net (real multi-process cluster over TCP with checkpoint/restart and
// elastic membership), naive (exact quadratic reference).
//
// The net runner launches Procs-1 worker processes (gbpol re-executed
// with -net-worker), rendezvouses them through a TCP coordinator and
// computes as rank 0 itself. Chaos demo — SIGKILL rank 2 entering its
// second collective, respawn it, and still match the fault-free energy:
//
//	gbpol -gen 5000 -runner net -procs 4 -net-kill-rank 2 -net-kill-collective 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"gbpolar"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gbpol: ")

	var (
		inPath   = flag.String("in", "", "molecule file (.pqr or .xyzqr); empty = use -gen")
		gen      = flag.Int("gen", 5000, "atoms in the generated test protein (when -in is empty)")
		seed     = flag.Int64("seed", 1, "generator seed")
		runner   = flag.String("runner", "shared", "shared | mpi | hybrid | resilient | net | naive")
		procs    = flag.Int("procs", 4, "ranks P for mpi/hybrid runners")
		threads  = flag.Int("threads", 0, "threads (shared: workers, hybrid: per rank; 0 = auto)")
		epsBorn  = flag.Float64("eps-born", 0.9, "Born-radius approximation parameter")
		builder  = flag.String("builder", "morton", "octree construction algorithm: morton | recursive (the reference; same tree)")
		epsEpol  = flag.Float64("eps-epol", 0.9, "E_pol approximation parameter")
		approx   = flag.Bool("approx-math", false, "approximate math: fast exp/rsqrt kernels, laned (the lanes precision tier)")
		naive    = flag.Bool("naive", false, "also run the exact reference and report the error")
		modeled  = flag.Bool("modeled", true, "distributed runners: virtual-clock accounting")
		radiiOut = flag.String("radii-out", "", "write Born radii (one per line) to this file")

		// Fault injection (resilient runner): deterministic crashes, drops
		// and delays with self-healing recovery.
		crashRank  = flag.Int("crash-rank", -1, "resilient: rank to crash (-1 = none)")
		crashClock = flag.Float64("crash-clock", -1, "resilient: crash the rank at this virtual time (s)")
		crashColl  = flag.Int("crash-collective", 0, "resilient: crash the rank entering its Nth collective (1-based)")
		dropRank   = flag.Int("drop-rank", -1, "resilient: rank whose next sends are dropped (-1 = none)")
		dropCount  = flag.Int("drop-count", 1, "resilient: how many sends to drop")
		delayRank  = flag.Int("delay-rank", -1, "resilient: rank whose next send is delayed (-1 = none)")
		delayBy    = flag.Duration("delay-by", time.Millisecond, "resilient: added virtual flight time")
		chaosSeed  = flag.Int64("chaos-seed", 0, "resilient: random fault schedule seed (0 = none)")
		chaosN     = flag.Int("chaos-faults", 2, "resilient: number of random faults for -chaos-seed")
		chaosHzn   = flag.Float64("chaos-horizon", 0.01, "resilient: virtual-time horizon (s) for random crash/delay scheduling")

		// Real multi-process cluster transport (net runner + worker mode).
		netWorker     = flag.Bool("net-worker", false, "run as a worker process of a net run (joins the cluster in -net-membership)")
		netRank       = flag.Int("net-rank", -1, "worker: this process's rank")
		netMembership = flag.String("net-membership", "", "net: cluster membership file (default <tmp>/gbpol-cluster.json)")
		netCheckpoint = flag.String("net-checkpoint", "", "net: engine snapshot path workers load and restarts resume from (default <tmp>/gbpol.ckpt)")
		netStall      = flag.Duration("net-stall", 2*time.Minute, "net: per-collective stall budget")
		netRespawn    = flag.Bool("net-respawn", true, "net: respawn each crashed worker once (elastic re-admission)")
		netKillRank   = flag.Int("net-kill-rank", -1, "net chaos demo: worker rank to SIGKILL (-1 = none)")
		netKillColl   = flag.Int("net-kill-collective", 0, "chaos: SIGKILL the process (worker: this one; net: -net-kill-rank's first launch) entering its Nth collective")
		netTelemetry  = flag.Bool("net-telemetry", false, "worker: collect trace/metrics and ship telemetry batches to the coordinator (the net runner sets this on spawned workers when it is observing)")
		watchBase     = flag.String("watch-baseline", "auto", "net: perf-gate baseline JSON for the live anomaly watchdog (auto = results/baseline.json when present and observing; none = off)")

		// Observability and profiling.
		verbose     = flag.Bool("v", false, "stream structured per-span progress lines (rank, phase, virtual clock) and print the span/metrics tables after the run")
		traceOut    = flag.String("trace", "", "write the span/event timeline as JSONL to this file")
		chromeOut   = flag.String("chrome", "", "write a chrome://tracing-compatible trace to this file")
		metricsOut  = flag.String("metrics", "", "write the metrics snapshot as JSON to this file")
		manifestOut = flag.String("manifest", "", "write the run manifest (config, seed, git, host) to this file")
		obsAddr     = flag.String("obs-addr", "", "serve the live observability endpoint (/metrics Prometheus text, /healthz, /readyz, /debug/pprof) on this address (e.g. localhost:9090; port 0 = ephemeral)")
		obsFlight   = flag.String("obs-flight", "", "crash flight recorder: dump the most recent trace events as JSONL into this directory on death detection, degradation, panic, or SIGTERM")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *netWorker {
		// Worker mode: no molecule building, no flags beyond the cluster
		// ones — everything (data, parameters, compiled lists) comes from
		// the coordinator's checkpoint.
		if *netRank < 0 || *netMembership == "" {
			log.Fatal("-net-worker needs -net-rank and -net-membership")
		}
		// Telemetry: an observing worker ships its spans and metric
		// deltas to the coordinator, which folds them into the merged
		// cross-process timeline.
		var wo *gbpolar.Observer
		if *netTelemetry || *obsAddr != "" || *obsFlight != "" {
			wo = gbpolar.NewObserver()
		}
		if wo != nil && *obsFlight != "" {
			fr := gbpolar.NewFlightRecorder(0, *obsFlight)
			wo.AttachFlight(fr)
			fr.DumpOnSignal()
		}
		completed, err := gbpolar.RunNetWorker(*netMembership, *netRank, gbpolar.NetWorkerOptions{
			StallTimeout:     *netStall,
			KillAtCollective: *netKillColl,
			Obs:              wo,
			ObsAddr:          *obsAddr,
		})
		if err != nil {
			log.Fatalf("worker rank %d: %v", *netRank, err)
		}
		fmt.Printf("worker rank %d: done (completed=%v)\n", *netRank, completed)
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var o *gbpolar.Observer
	if *verbose || *traceOut != "" || *chromeOut != "" || *metricsOut != "" ||
		*obsAddr != "" || *obsFlight != "" {
		o = gbpolar.NewObserver()
	}
	if o != nil && *obsFlight != "" {
		fr := gbpolar.NewFlightRecorder(0, *obsFlight)
		o.AttachFlight(fr)
		fr.DumpOnSignal()
		fmt.Printf("flight recorder: dumping last %d events to %s on fault or SIGTERM\n",
			gbpolar.DefaultFlightEvents, *obsFlight)
	}
	if *obsAddr != "" && *runner != "net" {
		// The net runner wires the endpoint itself (membership-backed
		// health probes + the bound address published in the membership
		// file); every other runner serves a standalone one here.
		srv, err := gbpolar.ServeObs(*obsAddr, o)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving http://%s/metrics (+/healthz, /readyz, /debug/pprof)\n", srv.Addr())
	}
	if *verbose {
		// Stream every span close and instant as a structured progress
		// line (rank, phase name, wall/virtual clocks) while the run is
		// still going; the summary tables follow at the end.
		o.Trace.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}

	mol, err := loadOrGen(*inPath, *gen, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("molecule: %s (%d atoms, net charge %+.2f e)\n",
		mol.Name, mol.NumAtoms(), mol.TotalCharge())

	// In Options a zero ε selects the default; on the command line a zero
	// was typed, and "no far field" is not what the default would compute.
	for _, eps := range []struct {
		field string
		v     float64
	}{{"EpsBorn", *epsBorn}, {"EpsEpol", *epsEpol}} {
		if eps.v == 0 {
			fatal(&gbpolar.OptionError{Field: eps.field, Value: eps.v, Want: "a finite value > 0"})
		}
	}
	buildStart := time.Now()
	eng, err := gbpolar.NewEngine(mol, gbpolar.Options{
		EpsBorn:         *epsBorn,
		EpsEpol:         *epsEpol,
		ApproximateMath: *approx,
		Builder:         *builder,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("surface: %d quadrature points; octrees built in %v (preprocessing)\n",
		eng.NumQuadraturePoints(), time.Since(buildStart).Round(time.Millisecond))
	eng.Observe(o)

	// Every runner but the reference is one Plan for the one Compute.
	th := *threads
	var plan gbpolar.Plan
	var res *gbpolar.Result
	switch *runner {
	case "shared":
		plan.Threads = th
	case "mpi":
		plan.Cluster = &gbpolar.Cluster{Procs: *procs, ThreadsPerProc: 1, RanksPerNode: min(*procs, 12), Modeled: *modeled}
	case "hybrid":
		if th == 0 {
			th = 6
		}
		plan.Cluster = &gbpolar.Cluster{Procs: *procs, ThreadsPerProc: th, RanksPerNode: max(1, 12/max(th, 1)), Modeled: *modeled}
	case "resilient":
		plan.Cluster = &gbpolar.Cluster{Procs: *procs, ThreadsPerProc: th, RanksPerNode: min(*procs, 12), Modeled: true}
		plan.Faults = buildFaultPlan(*crashRank, *crashClock, *crashColl,
			*dropRank, *dropCount, *delayRank, *delayBy, *chaosSeed, *chaosN, *chaosHzn, *procs)
	case "net":
		plan.Net, err = netRun(*procs, th, *netMembership, *netCheckpoint,
			*netStall, *netRespawn, *netKillRank, *netKillColl,
			o != nil, *obsAddr, *obsFlight, *watchBase)
		if err != nil {
			log.Fatal(err)
		}
	case "naive":
		start := time.Now()
		e, radii := eng.ComputeNaive()
		res = &gbpolar.Result{Epol: e, BornRadii: radii, WallSeconds: time.Since(start).Seconds()}
	default:
		log.Fatalf("unknown runner %q (want shared|mpi|hybrid|resilient|net|naive)", *runner)
	}
	if res == nil {
		if res, err = eng.Compute(context.Background(), plan); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("E_pol = %.6g kcal/mol\n", res.Epol)
	fmt.Printf("wall time: %.4gs", res.WallSeconds)
	if res.ModelSeconds > 0 {
		fmt.Printf("   modeled time: %.4gs", res.ModelSeconds)
	}
	if res.Ops > 0 {
		fmt.Printf("   kernel ops: %.3g", res.Ops)
	}
	fmt.Println()
	if res.Report != nil {
		fmt.Println(res.Report)
		if res.Report.Faults != nil {
			fmt.Println(res.Report.Faults)
		}
	}

	if *naive && *runner != "naive" {
		e, _ := eng.ComputeNaive()
		fmt.Printf("naive reference: %.6g kcal/mol  (error %.4f%%)\n",
			e, 100*(res.Epol-e)/e)
	}

	if *radiiOut != "" {
		f, err := os.Create(*radiiOut)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range res.BornRadii {
			fmt.Fprintf(f, "%.6f\n", r)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Born radii written to %s\n", *radiiOut)
	}

	if *verbose && o != nil {
		fmt.Println()
		if err := o.Trace.Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := o.Metrics.Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		writeTo(*traceOut, o.Trace.WriteJSONL)
		fmt.Printf("trace written to %s (%d events)\n", *traceOut, o.Trace.NumEvents())
	}
	if *chromeOut != "" {
		writeTo(*chromeOut, o.Trace.WriteChromeTrace)
		fmt.Printf("chrome trace written to %s (load via chrome://tracing or https://ui.perfetto.dev)\n", *chromeOut)
	}
	if *metricsOut != "" {
		writeTo(*metricsOut, o.Metrics.WriteJSON)
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *manifestOut != "" {
		man := gbpolar.NewManifest("gbpol", *seed, map[string]any{
			"in": *inPath, "gen": *gen, "runner": *runner,
			"procs": *procs, "threads": *threads,
			"eps_born": *epsBorn, "eps_epol": *epsEpol, "approx_math": *approx,
			"kernel_isa": gbpolar.KernelISA(), "memory": eng.Memory(),
		})
		if err := man.WriteFile(*manifestOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("manifest written to %s\n", *manifestOut)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heap profile written to %s\n", *memProfile)
	}
}

// fatal reports err and exits: status 2 when an option or the plan was
// rejected before any work (a usage error), 1 otherwise.
func fatal(err error) {
	var oe *gbpolar.OptionError
	var pe *gbpolar.PlanError
	if errors.As(err, &oe) || errors.As(err, &pe) {
		log.Print(err)
		os.Exit(2)
	}
	log.Fatal(err)
}

// netRun plans the multi-process TCP run: it re-executes this binary as
// Procs-1 worker processes, optionally SIGKILLs one mid-run (the chaos
// demo) and respawns crashed workers for elastic re-admission.
func netRun(procs, threads int, membership, checkpoint string,
	stall time.Duration, respawn bool, killRank, killColl int,
	telemetry bool, obsAddr, obsFlight, watchBase string) (*gbpolar.NetRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Watchdog baseline: "auto" arms the watchdog with the checked-in
	// perf-gate baseline when one exists and the run is observed; a path
	// arms it unconditionally; "none"/"" disables.
	switch watchBase {
	case "none", "":
		watchBase = ""
	case "auto":
		watchBase = ""
		if telemetry {
			if _, serr := os.Stat("results/baseline.json"); serr == nil {
				watchBase = "results/baseline.json"
			}
		}
	}
	if watchBase != "" {
		fmt.Printf("net: anomaly watchdog armed with baseline %s\n", watchBase)
	}
	if membership == "" {
		membership = filepath.Join(os.TempDir(), fmt.Sprintf("gbpol-cluster-%d.json", os.Getpid()))
	}
	if checkpoint == "" {
		checkpoint = filepath.Join(os.TempDir(), fmt.Sprintf("gbpol-%d.ckpt", os.Getpid()))
	}
	var mu sync.Mutex
	killArmed := killRank > 0 && killColl > 0
	spawn := func(rank int) error {
		args := []string{
			"-net-worker",
			"-net-rank", strconv.Itoa(rank),
			"-net-membership", membership,
			"-net-stall", stall.String(),
		}
		if telemetry {
			// An observing coordinator wants the merged timeline, so
			// every worker ships its telemetry too.
			args = append(args, "-net-telemetry")
		}
		if obsFlight != "" {
			args = append(args, "-obs-flight", obsFlight)
		}
		mu.Lock()
		if killArmed && rank == killRank {
			// Only the first launch carries the kill: the respawned
			// incarnation must survive to demonstrate re-admission.
			killArmed = false
			args = append(args, "-net-kill-collective", strconv.Itoa(killColl))
		}
		mu.Unlock()
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		go cmd.Wait()
		return nil
	}
	fmt.Printf("net: coordinator + %d worker processes, membership %s, checkpoint %s\n",
		procs-1, membership, checkpoint)
	return &gbpolar.NetRun{
		Procs:          procs,
		ThreadsPerProc: threads,
		MembershipPath: membership,
		CheckpointPath: checkpoint,
		Spawn:          spawn,
		RespawnDead:    respawn,
		StallTimeout:   stall,
		ObsAddr:        obsAddr,
		FlightDir:      obsFlight,
		WatchBaseline:  watchBase,
	}, nil
}

// writeTo creates path and streams emit into it, failing fatally on any
// error so partial artifacts are never mistaken for complete ones.
func writeTo(path string, emit func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := emit(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// buildFaultPlan assembles the flag-specified fault schedule; nil when
// no fault flags are set (fault-free resilient run).
func buildFaultPlan(crashRank int, crashClock float64, crashColl,
	dropRank, dropCount, delayRank int, delayBy time.Duration,
	chaosSeed int64, chaosN int, chaosHzn float64, procs int) *gbpolar.FaultPlan {
	if chaosSeed != 0 {
		return gbpolar.RandomFaultPlan(chaosSeed, procs, chaosN, chaosHzn)
	}
	plan := &gbpolar.FaultPlan{}
	if crashRank >= 0 {
		switch {
		case crashColl > 0:
			plan.Faults = append(plan.Faults, gbpolar.Fault{
				Kind: gbpolar.CrashAtCollective, Rank: crashRank, Nth: crashColl})
		case crashClock >= 0:
			plan.Faults = append(plan.Faults, gbpolar.Fault{
				Kind: gbpolar.CrashAtClock, Rank: crashRank, Clock: crashClock})
		}
	}
	if dropRank >= 0 {
		plan.Faults = append(plan.Faults, gbpolar.Fault{
			Kind: gbpolar.DropMessages, Rank: dropRank, Peer: -1, Tag: -1, Count: dropCount})
	}
	if delayRank >= 0 {
		plan.Faults = append(plan.Faults, gbpolar.Fault{
			Kind: gbpolar.DelayMessages, Rank: delayRank, Peer: -1, Tag: -1, Count: 1, Delay: delayBy})
	}
	if len(plan.Faults) == 0 {
		return nil
	}
	return plan
}

func loadOrGen(path string, n int, seed int64) (*gbpolar.Molecule, error) {
	if path != "" {
		return gbpolar.LoadMolecule(path)
	}
	return gbpolar.GenerateProtein(fmt.Sprintf("generated-%d", n), n, seed), nil
}
