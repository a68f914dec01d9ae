package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
	"gbpolar/internal/obs/watch"
)

// obsOverhead measures the cost of the observability layer (DESIGN.md
// §8): the same 5k-atom energy computation with tracing+metrics off vs
// on, interleaved min-of-N so both variants see the same thermal/cache
// conditions. The disabled path must stay under 2% (guarded by
// TestDisabledObsOverhead in internal/core); the enabled path is
// reported here so EXPERIMENTS.md can quote it.
func obsOverhead(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	mol := molecule.GenProtein("obs-bench", 5000, cfg.Seed)
	prep, err := prepare(mol, core.DefaultParams())
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "obs-overhead",
		Title: "Observability overhead: tracing+metrics on vs off (5k atoms, min of reps)",
		Columns: []string{"Runner", "Obs off (s)", "Obs on (s)", "Overhead",
			"Events", "Metrics"},
	}

	metricCount := func(o *obs.Obs) int {
		snap := o.Metrics.Snapshot()
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	}

	// --- OCT_CILK: real wall time of the shared-memory runner ---------
	shared := func(o *obs.Obs) (float64, error) {
		res, err := core.RunShared(prep.sys, core.SharedOptions{
			Threads:      threadsPerSock,
			OpsPerSecond: cfg.OpsPerSecond,
			Obs:          o,
		})
		if err != nil {
			return 0, err
		}
		return res.WallSeconds, nil
	}
	if _, err := shared(nil); err != nil { // warm lists + pools
		return nil, err
	}
	offMin, onMin := math.Inf(1), math.Inf(1)
	var lastShared *obs.Obs
	for rep := 0; rep < cfg.Repetitions; rep++ {
		w, err := shared(nil)
		if err != nil {
			return nil, err
		}
		offMin = math.Min(offMin, w)
		o := obs.New()
		if w, err = shared(o); err != nil {
			return nil, err
		}
		onMin = math.Min(onMin, w)
		lastShared = o
	}
	t.AddRow("OCT_CILK (6 threads)", offMin, onMin,
		fmt.Sprintf("%+.1f%%", 100*(onMin/offMin-1)),
		lastShared.Trace.NumEvents(), metricCount(lastShared))

	// --- Resilient OCT_MPI replay with an injected crash --------------
	// Here the trace additionally carries per-collective spans and the
	// fault/recovery events; wall time is the replay cost, virtual time
	// is identical by construction.
	resilient := func(o *obs.Obs) (*core.Result, error) {
		cc := octClusterConfig(4, false, cfg, cfg.Seed)
		cc.Procs = 4
		cc.NoiseSigma = 0
		cc.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
			{Kind: cluster.CrashAtCollective, Rank: 1, Nth: 2},
		}}
		cc.Obs = o
		return core.RunDistributed(prep.sys, cc)
	}
	if _, err := resilient(nil); err != nil {
		return nil, err
	}
	offMin, onMin = math.Inf(1), math.Inf(1)
	var lastRes *core.Result
	var lastObs *obs.Obs
	for rep := 0; rep < cfg.Repetitions; rep++ {
		res, err := resilient(nil)
		if err != nil {
			return nil, err
		}
		offMin = math.Min(offMin, res.WallSeconds)
		o := obs.New()
		if res, err = resilient(o); err != nil {
			return nil, err
		}
		onMin = math.Min(onMin, res.WallSeconds)
		lastRes, lastObs = res, o
	}
	t.AddRow("Resilient OCT_MPI (4 ranks, 1 crash)", offMin, onMin,
		fmt.Sprintf("%+.1f%%", 100*(onMin/offMin-1)),
		lastObs.Trace.NumEvents(), metricCount(lastObs))

	// --- Real 4-rank net transport with wire-shipped telemetry --------
	// The full distributed observability plane: per-worker observers
	// shipping span batches and metric deltas over TCP, the coordinator
	// folding them into the merged timeline. "On" here measures the
	// whole plane — collection, encoding, shipping, absorbing. A
	// negative health interval keeps the PR-9 sampler out of this row so
	// it isolates the telemetry cost; the next row turns it on.
	netRun := func(observe bool, health time.Duration, wcfg *watch.Config) (float64, *obs.Obs, error) {
		dir, err := os.MkdirTemp("", "gbbench-net-*")
		if err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		membership := filepath.Join(dir, "cluster.json")
		var co *obs.Obs
		if observe {
			co = obs.New()
		}
		var wg sync.WaitGroup
		for r := 1; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var wo *obs.Obs
				if observe {
					wo = obs.New()
				}
				core.RunNetWorker(membership, r, core.NetWorkerOptions{
					StallTimeout:   time.Minute,
					JoinBudget:     time.Minute,
					Obs:            wo,
					HealthInterval: health,
				})
			}(r)
		}
		res, err := core.RunNetCoordinator(context.Background(), prep.sys, core.NetOptions{
			Procs:          4,
			MembershipPath: membership,
			CheckpointPath: filepath.Join(dir, "sys.ckpt"),
			StallTimeout:   time.Minute,
			Obs:            co,
			HealthInterval: health,
			Watch:          wcfg,
		})
		wg.Wait()
		if err != nil {
			return 0, nil, err
		}
		return res.WallSeconds, co, nil
	}
	if _, _, err := netRun(false, -1, nil); err != nil {
		return nil, err
	}
	offMin, onMin = math.Inf(1), math.Inf(1)
	netOff := math.Inf(1)
	var lastNet *obs.Obs
	for rep := 0; rep < cfg.Repetitions; rep++ {
		w, _, err := netRun(false, -1, nil)
		if err != nil {
			return nil, err
		}
		offMin = math.Min(offMin, w)
		if w, lastNet, err = netRun(true, -1, nil); err != nil {
			return nil, err
		}
		onMin = math.Min(onMin, w)
	}
	netOff = offMin
	t.AddRow("Net TCP (4 ranks, wire telemetry)", offMin, onMin,
		fmt.Sprintf("%+.1f%%", 100*(onMin/offMin-1)),
		lastNet.Trace.NumEvents(), metricCount(lastNet))

	// --- Net transport + health sampler + anomaly watchdog ------------
	// The PR-9 live-watch layer on top of the previous row: per-rank
	// runtime health samplers feeding the shipped registries, and the
	// coordinator-side watchdog evaluating every window against a
	// baseline derived from the telemetry-only run above. Same off
	// reference as the previous row, so the delta between the two rows
	// is the sampler+watchdog cost alone.
	baseline := watch.BaselineFromSummary(analyze.FromTrace(lastNet.Trace).Summary())
	wcfg := &watch.Config{Baseline: baseline}
	onMin = math.Inf(1)
	var lastWatch *obs.Obs
	for rep := 0; rep < cfg.Repetitions; rep++ {
		w, o, err := netRun(true, 0, wcfg)
		if err != nil {
			return nil, err
		}
		if w < onMin {
			onMin, lastWatch = w, o
		}
	}
	t.AddRow("Net TCP + sampler + watchdog", netOff, onMin,
		fmt.Sprintf("%+.1f%%", 100*(onMin/netOff-1)),
		lastWatch.Trace.NumEvents(), metricCount(lastWatch))

	t.Notes = append(t.Notes,
		"overhead is on replay wall time; modeled virtual time is identical by construction",
		"the disabled path (Obs=nil) is one pointer test per phase — guarded <2% by TestDisabledObsOverhead",
		"the net row measures the full telemetry plane: per-worker collection, binary encoding, TCP shipping, and coordinator-side merging",
		"the watchdog row adds per-rank runtime health samplers and the baseline-driven anomaly watchdog (DESIGN.md §14) against the same obs-off reference")
	t.Report = lastRes.Report
	return []*Table{t}, nil
}
