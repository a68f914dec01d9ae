package core

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/cluster/net"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/serve"
	"gbpolar/internal/obs/watch"
)

// This file is the multi-process runner: the rank body of pipeline.go
// executed over the real TCP transport (internal/cluster/net)
// instead of goroutines. The coordinator process hosts the rendezvous
// point, publishes a membership file and a binary checkpoint of the
// compiled System, and itself computes as rank 0 over loopback (so every
// rank takes the same code path); worker processes load the E_pol side of
// the checkpoint, dial in and run the identical self-healing protocol. Rank
// 0 alone holds the surface side, so the Born and push phases are its own
// (pipeline.holders), and it runs its Born phase while the checkpoint is
// written and the workers load it. A SIGKILLed worker is a real death —
// survivors re-divide its E_pol rows exactly as the modeled transport's
// recovery does — and a respawned worker is re-admitted at the next
// collective boundary, seeded with the last completed reduction.

// NetOptions configures RunNetCoordinator.
type NetOptions struct {
	// Procs is the rank count P (coordinator itself is rank 0, so
	// Procs-1 worker processes are expected).
	Procs int
	// Threads is the intra-rank worker count p (0 = 1).
	Threads int
	// ListenAddr is the coordinator bind address ("" = ephemeral
	// loopback port).
	ListenAddr string
	// MembershipPath is where the cluster bootstrap file is published.
	MembershipPath string
	// CheckpointPath is where the System snapshot is written; workers
	// load it instead of rebuilding, and a restarted coordinator resumes
	// from it without recompiling the interaction lists.
	CheckpointPath string
	// Spawn, when non-nil, launches the worker process for a rank
	// (ranks 1..Procs-1 at startup; dead ranks again when RespawnDead).
	Spawn func(rank int) error
	// RespawnDead relaunches each crashed worker rank once via Spawn, so
	// the elastic re-admission path heals real process kills.
	RespawnDead bool
	// StallTimeout bounds every collective round (0 = 2 minutes); see
	// net.Config.StallTimeout.
	StallTimeout time.Duration
	// HeartbeatInterval/HeartbeatTimeout/JoinDeadline tune liveness
	// detection (0 = net.Config defaults).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	JoinDeadline      time.Duration
	// Obs receives the coordinator-side trace and metrics.
	Obs *obs.Obs
	// ObsAddr, when non-empty, starts the live observability endpoint
	// (/metrics, /healthz, /readyz, /debug/pprof) on this address
	// (host:port; port 0 binds an ephemeral one). The bound address is
	// published in the membership file so scrapers can find it.
	ObsAddr string
	// FlightDir, when non-empty, attaches a crash flight recorder to Obs:
	// the last obs.DefaultFlightEvents trace events are kept in a ring and
	// dumped to a timestamped JSONL file in this directory on death
	// detection, degradation, or panic.
	FlightDir string
	// HealthInterval is the runtime health sampler cadence on the
	// coordinator (0 = obs.DefaultHealthInterval, < 0 = sampler off).
	HealthInterval time.Duration
	// Watch, when non-nil (and Obs is enabled), runs the anomaly watchdog
	// against the merged timeline: sustained per-phase imbalance outside
	// the baseline envelope raises a verdict, flips /healthz to
	// "anomalous", and dumps the flight recorder tagged with the
	// offending phase and rank.
	Watch *watch.Config
}

// RunNetCoordinator runs the full multi-process protocol from the
// coordinator side: rendezvous, then rank 0's rank body beside the
// publication (publish: checkpoint, membership file, workers), and
// degradation to the shared runner when too few ranks survive. A
// publication that fails is the run's error, never a degraded result.
// Cancelling ctx aborts the run (every rank observes ErrAborted through
// its dying connection).
func RunNetCoordinator(ctx context.Context, sys *System, opts NetOptions) (*Result, error) {
	if opts.Procs < 1 {
		return nil, fmt.Errorf("core: net run needs Procs >= 1, got %d", opts.Procs)
	}
	if opts.MembershipPath == "" || opts.CheckpointPath == "" {
		return nil, fmt.Errorf("core: net run needs MembershipPath and CheckpointPath")
	}
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	start := time.Now()

	// Flight recorder: attach before any event is recorded so the ring
	// mirrors the whole run (unless the caller attached one already), and
	// dump it on a panic escaping the run — the postmortem an operator
	// reads first.
	if opts.FlightDir != "" && opts.Obs.Enabled() && opts.Obs.Flight() == nil {
		opts.Obs.AttachFlight(obs.NewFlightRecorder(obs.DefaultFlightEvents, opts.FlightDir))
	}
	if opts.Obs.Flight() != nil {
		defer func() {
			if r := recover(); r != nil {
				opts.Obs.DumpFlight("panic")
				panic(r)
			}
		}()
	}

	// Compile the lists once on the coordinator so the checkpoint ships
	// them: workers and a restarted coordinator deserialize instead of
	// recompiling (EncodeSnapshot embeds lists only when present).
	sys.Lists(nil)

	co, err := net.Start(net.Config{
		Size:              opts.Procs,
		ListenAddr:        opts.ListenAddr,
		Threads:           opts.Threads,
		OpsPerSecond:      CalibratedOpsPerSecond(),
		StallTimeout:      opts.StallTimeout,
		HeartbeatInterval: opts.HeartbeatInterval,
		HeartbeatTimeout:  opts.HeartbeatTimeout,
		JoinDeadline:      opts.JoinDeadline,
		Obs:               opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	defer co.Close()

	// Runtime health sampler: heap/GC/goroutine/scheduler gauges plus
	// open-span ages, into the same registry the endpoint serves.
	var sampler *obs.HealthSampler
	if opts.HealthInterval >= 0 {
		sampler = obs.StartHealthSampler(opts.Obs, opts.HealthInterval)
	}
	defer sampler.Stop()

	// Anomaly watchdog: every verdict dumps the flight ring tagged with
	// the offending phase and rank before the caller's own hook runs. The
	// deferred Stop performs one final evaluation, and — being registered
	// here — runs after the telemetry drain below, so a breach visible
	// only in the last workers' frames still lands.
	var dog *watch.Watchdog
	if opts.Watch != nil {
		cfg := *opts.Watch
		after := cfg.OnAnomaly
		cfg.OnAnomaly = func(v watch.Verdict) {
			opts.Obs.DumpFlight(fmt.Sprintf("anomaly-%s-rank%d", v.Phase, v.Rank))
			if after != nil {
				after(v)
			}
		}
		dog = watch.Start(opts.Obs, cfg)
		defer dog.Stop()
	}

	// Live endpoint: membership-backed health plus the metrics registry.
	// Started before the membership file is published so the bound
	// address (ObsAddr may ask for port 0) rides along in it.
	obsAddr := ""
	if opts.ObsAddr != "" {
		var verdicts func() any
		if dog != nil {
			verdicts = func() any { return dog.Verdicts() }
		}
		srv, serr := serve.StartWith(opts.ObsAddr, opts.Obs, func() serve.Health {
			s := co.State()
			h := serve.Health{
				Ready:        s.Ready(),
				Size:         s.Size,
				LiveRanks:    s.Live,
				Rounds:       s.Rounds,
				PendingJoins: s.Pending,
				Anomalies:    len(dog.Verdicts()),
			}
			switch {
			case s.Dead > 0:
				h.State = "degraded"
			case !h.Ready && s.Rounds == 0:
				h.State = "starting"
			case dog.Anomalous():
				h.State = "anomalous"
			default:
				h.State = "running"
			}
			return h
		}, verdicts)
		if serr != nil {
			return nil, serr
		}
		defer srv.Close()
		obsAddr = srv.Addr()
	}

	// Cancellation: closing the coordinator severs every connection, so
	// all ranks (including rank 0 below) unblock with ErrAborted.
	runDone := make(chan struct{})
	defer close(runDone)
	go func() {
		select {
		case <-ctx.Done():
			co.Close()
		case <-runDone:
		}
	}()

	// The coordinator computes as rank 0 over loopback: same transport,
	// same rank body, no privileged path. Rank 0 shares the coordinator's
	// Obs, so it must NOT ship telemetry — its events are already in the
	// merged trace, and shipping would duplicate every one of them.
	var out rankOut
	c, err := net.Dial(co.Addr(), 0, net.Options{
		StallTimeout: opts.StallTimeout,
		DialTimeout:  opts.JoinDeadline,
		Obs:          opts.Obs,
	})
	if err == nil {
		// Rank 0 has joined; the publication runs beside its rank body,
		// whose Born phase needs no worker. A publication that fails closes
		// the coordinator, so rank 0 unblocks, and is the run's error. The
		// run waits for it either way: nothing it starts outlives the run
		// unwatched.
		published := make(chan error, 1)
		go func() {
			perr := publish(co, sys, opts, obsAddr, runDone)
			if perr != nil {
				co.Close()
			}
			published <- perr
		}()
		if err = netPipeline(sys, c, &out).run(1, nil); err == nil {
			c.Bye()
		} else {
			c.Close()
		}
		if perr := <-published; perr != nil {
			return nil, perr
		}
	}
	if err == nil {
		// Wait (briefly, bounded) for the surviving ranks to leave before
		// tearing the coordinator down. A worker's last act is to read the
		// reply to its final collective and send Bye; closing first can cut
		// that read short, and the worker then reports "connection lost"
		// beside a correct energy (≈1 clean run in 2 100 before this wait
		// was unconditional — TestNetCleanTeardownNoObserver). Observed
		// runs need it for a second reason: workers flush their final
		// telemetry batch right before their Bye, and the merged timeline
		// is complete only once those frames are in. The wait lands inside
		// the measured wall time, so it ends when the coordinator sees the
		// last rank leave, not on a poll.
		co.Drain(2 * time.Second)
	}
	// Per-rank rows: wall time is the run's (processes ran concurrently);
	// ranks still dead at the end are marked.
	fr := co.FaultReport()
	rep := &cluster.Report{Mode: cluster.Real, Faults: &fr, PerRank: make([]cluster.RankStats, opts.Procs)}
	for r := range rep.PerRank {
		rep.PerRank[r].Rank = r
	}
	for _, r := range cluster.DeadFromEvents(opts.Procs, co.Events()) {
		rep.PerRank[r].Died = true
	}
	rep.WallSeconds = time.Since(start).Seconds()
	var res *Result
	if err == nil {
		// Rank 0 may have joined after the final collective and have
		// nothing to report: then the run degrades like any other.
		if res, err = result(sys, []rankOut{out}, rep); err == nil {
			return res, nil
		}
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("core: net run cancelled: %w", ctx.Err())
	}
	if !degradable(err, nil) {
		return nil, err
	}
	// Degradation: the distributed run cannot continue (too few live
	// ranks or a stalled protocol). Dump the flight ring first —
	// degradation is exactly the moment an operator wants the
	// recent-event record.
	opts.Obs.DumpFlight("degraded")
	if res, err = degradeToShared(sys, opts.Threads, CalibratedOpsPerSecond(), opts.Obs, rep, err, start); err != nil {
		return nil, err
	}
	rep.WallSeconds = res.WallSeconds
	return res, nil
}

// publish makes the run joinable: it saves the checkpoint, writes the
// membership file naming it, spawns the workers and starts the respawn
// loop, which ends with the run (done).
func publish(co *net.Coordinator, sys *System, opts NetOptions, obsAddr string, done <-chan struct{}) error {
	sp := opts.Obs.Begin(0, "ckpt", "ckpt.save", obs.NoVirtual)
	saved, err := saveSnapshot(opts.CheckpointPath, sys)
	sp.End(obs.NoVirtual, obs.F("bytes", float64(saved)))
	if err != nil {
		return fmt.Errorf("core: net checkpoint: %w", err)
	}
	opts.Obs.Counter("snapshot.encode_bytes").Add(saved)
	if err := net.WriteMembership(opts.MembershipPath, net.Membership{
		Addr:       co.Addr(),
		Size:       opts.Procs,
		Threads:    opts.Threads,
		Checkpoint: opts.CheckpointPath,
		ObsAddr:    obsAddr,
	}); err != nil {
		return err
	}
	if opts.Spawn == nil {
		return nil
	}
	for r := 1; r < opts.Procs; r++ {
		if err := opts.Spawn(r); err != nil {
			return fmt.Errorf("core: spawn rank %d: %w", r, err)
		}
	}
	if opts.RespawnDead {
		go respawnLoop(co, opts, done)
	}
	return nil
}

// netPipeline builds the rank body of a TCP run's rank: rank 0 alone holds
// the surface side, so the Born and push phases are its own.
func netPipeline(sys *System, c cluster.Transport, out *rankOut) *pipeline {
	pl := rankPipeline(sys, c, out)
	pl.holders = 1
	return pl
}

// respawnLoop relaunches each dead worker rank once, so the elastic
// transport's re-admission path converts a process kill into a rejoin.
func respawnLoop(co *net.Coordinator, opts NetOptions, done <-chan struct{}) {
	respawned := make([]bool, opts.Procs)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		for _, r := range cluster.DeadFromEvents(opts.Procs, co.Events()) {
			if r == 0 || respawned[r] {
				continue
			}
			respawned[r] = true
			if err := opts.Spawn(r); err != nil {
				// A failed respawn means the run finishes short-handed:
				// always account it on the fault report and log it, not
				// only when an observer happens to be attached.
				co.NoteRespawnFailure(r)
				slog.Warn("net: respawn failed", "rank", r, "err", err)
			}
		}
	}
}

// NetWorkerOptions configures RunNetWorker.
type NetWorkerOptions struct {
	// StallTimeout bounds every collective (0 = 2 minutes).
	StallTimeout time.Duration
	// JoinBudget bounds waiting for the membership file plus dialing
	// (0 = 30s). A respawned worker spends most of it blocked on
	// admission at the survivors' next collective boundary.
	JoinBudget time.Duration
	// KillAtCollective is the chaos hook: SIGKILL this process entering
	// its Nth collective (0 = off). See net.Options.KillAtCollective.
	KillAtCollective int
	// Obs receives the worker-side trace and metrics. When set, the
	// worker ships telemetry batches (spans + metric deltas) to the
	// coordinator for the merged cross-process timeline.
	Obs *obs.Obs
	// ObsAddr, when non-empty, serves this worker's own live endpoint
	// (always-ready /readyz — a worker has no membership to wait for).
	ObsAddr string
	// FlightDir, when non-empty, attaches a crash flight recorder (see
	// NetOptions.FlightDir).
	FlightDir string
	// HealthInterval is the runtime health sampler cadence (0 =
	// obs.DefaultHealthInterval, < 0 = sampler off). The sampler's
	// open-span age gauges are what make this worker's in-flight phase
	// visible to the coordinator's watchdog before the phase closes.
	HealthInterval time.Duration
	// TelemetryInterval overrides the periodic telemetry flush cadence
	// (0 = net default, 1s). Tests and fine-grained watch runs lower it.
	TelemetryInterval time.Duration
}

// RunNetWorker is the worker-process entry point: it waits for the
// membership file, loads the E_pol side of the checkpointed System
// (decodeWorkerSnapshot: no surface, no tree rebuild, no list
// recompilation), dials the coordinator as the given rank and runs the
// elastic rank body — from phase 1 as a founding member, or mid-protocol
// (seeded with the last completed reduction) when re-admitted after a
// crash. The Born and push phases are rank 0's: the worker's part of them
// is an empty share to their collectives.
func RunNetWorker(membershipPath string, rank int, opts NetWorkerOptions) (*ElasticOut, error) {
	if opts.JoinBudget <= 0 {
		opts.JoinBudget = 30 * time.Second
	}
	if opts.FlightDir != "" && opts.Obs.Enabled() && opts.Obs.Flight() == nil {
		opts.Obs.AttachFlight(obs.NewFlightRecorder(obs.DefaultFlightEvents, opts.FlightDir))
	}
	if opts.ObsAddr != "" {
		srv, serr := serve.Start(opts.ObsAddr, opts.Obs, func() serve.Health {
			return serve.Health{State: "worker", Ready: true}
		})
		if serr != nil {
			return nil, serr
		}
		defer srv.Close()
	}
	var sampler *obs.HealthSampler
	if opts.HealthInterval >= 0 {
		sampler = obs.StartHealthSampler(opts.Obs, opts.HealthInterval)
	}
	defer sampler.Stop() // idempotent; covers every error path below
	m, err := net.WaitMembership(membershipPath, opts.JoinBudget)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= m.Size {
		return nil, fmt.Errorf("core: worker rank %d outside [0,%d): %w", rank, m.Size, cluster.ErrInvalidRank)
	}
	if m.Checkpoint == "" {
		return nil, fmt.Errorf("core: membership %s carries no checkpoint path", membershipPath)
	}
	sp := opts.Obs.Begin(rank, "ckpt", "ckpt.load", obs.NoVirtual)
	sys, size, err := loadSnapshot(m.Checkpoint, decodeWorkerSnapshot)
	sp.End(obs.NoVirtual, obs.F("bytes", float64(size)))
	if err != nil {
		return nil, fmt.Errorf("core: worker checkpoint: %w", err)
	}
	opts.Obs.Counter("snapshot.decode_bytes").Add(int64(size))
	c, err := net.Dial(m.Addr, rank, net.Options{
		StallTimeout:      opts.StallTimeout,
		DialTimeout:       opts.JoinBudget,
		Obs:               opts.Obs,
		ShipTelemetry:     opts.Obs.Enabled(),
		TelemetryInterval: opts.TelemetryInterval,
		KillAtCollective:  opts.KillAtCollective,
	})
	if err != nil {
		return nil, err
	}
	var out rankOut
	if err := netPipeline(sys, c, &out).run(c.CompletedRounds()+1, c.JoinSeed()); err != nil {
		opts.Obs.DumpFlight("worker-error")
		c.Close()
		return nil, err
	}
	// Stop the sampler before the goodbye: its final tick zeroes the
	// open-span age gauges, and Bye's telemetry flush is the last frame
	// this worker ships — without this ordering the coordinator would be
	// left overlaying a stale positive age forever.
	sampler.Stop()
	c.Bye()
	return &ElasticOut{Epol: out.epol, Completed: out.ok}, nil
}
