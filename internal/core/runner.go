package core

import (
	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// Result is the outcome of one energy computation.
type Result struct {
	// Epol is the polarization energy in kcal/mol.
	Epol float64
	// BornRadii holds effective Born radii in the molecule's original
	// atom order.
	BornRadii []float64
	// WallSeconds is the measured wall-clock time of the energy phases
	// (octree construction excluded, as in the paper).
	WallSeconds float64
	// ModelSeconds is the modeled parallel time: per-phase critical-path
	// work at the calibrated kernel rate, plus (for distributed runs)
	// the communication cost model. See cluster.Mode.
	ModelSeconds float64
	// Ops is the total kernel-operation count across all ranks/workers.
	Ops float64
	// Report carries the cluster accounting for distributed runs (nil
	// for shared-memory runs).
	Report *cluster.Report
	// Stealing reports the inter-rank stealing behaviour of a
	// RunDistributedDynamic run (nil otherwise).
	Stealing *DynStats
}

// SharedOptions configures the OCT_CILK runner.
type SharedOptions struct {
	// Threads is the worker count (p); 0 = GOMAXPROCS.
	Threads int
	// OpsPerSecond calibrates ModelSeconds; 0 uses the package-level
	// calibration.
	OpsPerSecond float64
	// Pool optionally reuses an existing pool (must have Threads
	// workers); the runner then does not close it.
	Pool *sched.Pool
	// Recursive forces the reference recursive traversals instead of the
	// compiled interaction lists + SoA batch kernels (ilist.go,
	// kernels.go). The recursive path re-runs the near–far decomposition
	// from the root on every call; it is kept as the cross-check
	// reference and for the ablation benchmarks.
	Recursive bool
	// Obs, when non-nil, receives per-phase spans (build, born, push,
	// epol — virtual timestamps follow the modeled clock), interaction-
	// list metrics and the pool's steal count. The hot SoA loops carry no
	// instrumentation either way; nil costs one branch per phase.
	Obs *obs.Obs
}

// RunShared computes Born radii and E_pol with pure shared-memory
// parallelism — the paper's OCT_CILK configuration: work-stealing over
// q-point leaves (Born phase) and atom leaves (energy phase). It is the
// rank body of pipeline.go on the one-rank machine: no transport, every
// row owned, every reduction the identity.
func RunShared(sys *System, opts SharedOptions) (*Result, error) {
	var out rankOut
	pl := pipeline{sys: sys, pool: opts.Pool, p: opts.Threads, o: opts.Obs,
		rate: opts.OpsPerSecond, out: &out, P: 1}
	if pl.rate <= 0 {
		pl.rate = CalibratedOpsPerSecond()
	}
	if opts.Recursive {
		pl.kern = phaseKernel{rowRecursive, rowRecursive}
	}
	if err := pl.run(1, nil); err != nil {
		return nil, err
	}
	return result(sys, []rankOut{out}, nil)
}

// recordEpolSweep publishes what a compiled E_pol sweep of rows rows did:
// one batch per row, and the streamed work the workers' accumulators added
// up row by row (kernels_stream.go) — near pair terms and far bin-pair
// terms evaluated, atoms and pseudo-atoms gathered and the list entries
// they were gathered for. The hot loops carry no instrumentation.
func recordEpolSweep(o *obs.Obs, rows int, eaccs []epolAccum) {
	if !o.Enabled() {
		return
	}
	var t epolAccum
	for i := range eaccs {
		t.nearTerms += eaccs[i].nearTerms
		t.farTerms += eaccs[i].farTerms
		t.gatherAtoms += eaccs[i].gatherAtoms
		t.gatherSpans += eaccs[i].gatherSpans
	}
	o.Counter("kernel.epol.batches").Add(int64(rows))
	o.Counter("kernel.epol.near_terms").Add(int64(t.nearTerms))
	o.Counter("kernel.epol.far_terms").Add(int64(t.farTerms))
	o.Counter("kernel.epol.gather_atoms").Add(int64(t.gatherAtoms))
	o.Counter("kernel.epol.gather_spans").Add(int64(t.gatherSpans))
}

// rowGrain chunks compiled-list rows for ParallelFor: post-compilation
// rows are cheap, so scheduling them one-by-one (the grain the recursive
// traversal needs for its skewed per-leaf costs) would spend more time
// spawning tasks than evaluating kernels. ~16 chunks per worker keeps
// stealing effective while bounding scheduler overhead and allocations.
func rowGrain(rows, p int) int {
	return rows/(16*p) + 1
}

// modelPhaseOps returns the modeled critical-path op count of one phase
// executed by p work-stealing workers: the smaller of the observed
// per-worker maximum (a faithful trace when the host truly ran the
// workers in parallel) and the Brent bound W/p + span (faithful when the
// host undersubscribes the workers — e.g. replaying a 144-core
// configuration on a small machine, where the scheduler can pile the
// whole deque onto one worker). The cilk++ work-stealing guarantee is
// T_p ≤ W/p + O(span), so the bound is the right model for the runtime
// the paper uses.
func modelPhaseOps(total, maxWorker, maxTask float64, p int) float64 {
	brent := total/float64(p) + maxTask
	if maxWorker < brent {
		return maxWorker
	}
	return brent
}

// segment returns the half-open [lo,hi) range of the i-th of p equal
// segments of n items — the paper's EXPLICIT STATIC LOAD BALANCING.
func segment(n, p, i int) (int, int) {
	lo := n * i / p
	hi := n * (i + 1) / p
	return lo, hi
}

// RunDistributed executes Figure 4's distributed/distributed-shared
// algorithm on the in-process cluster: node-based static division
// of q-point leaves (step 2), MPI_Allreduce of partial integrals (step 3),
// atom-segment Born radii (step 4), Allgatherv of radii (step 5),
// node-based division of atom leaves for energy (step 6) and a final
// reduction (step 7).
//
// cfg.Procs is P; cfg.ThreadsPerProc is p. p = 1 is the paper's OCT_MPI,
// p > 1 is OCT_MPI+CILK. The System is shared read-only across ranks
// in-process, but each rank TRACKS the full replicated footprint, so the
// report reproduces the paper's Section V.B memory accounting.
//
// The run heals the rank crashes of cfg.Faults (pipeline.go): survivors
// re-divide a dead rank's row spans, redo ONLY its lost work by
// re-filtering the compiled lists (no re-traversal) and finish with the
// same E_pol to ≤1e-12 relative, the recovery metered on the virtual clock
// in Report.Faults. When fewer than 2 ranks survive, a link is dead
// (ErrTimeout) or the protocol stalls, it degrades to the shared runner
// and records why in FaultReport.Degraded/DegradedReason.
func RunDistributed(sys *System, cfg cluster.Config) (*Result, error) {
	return runCluster(sys, cfg, phaseKernel{}, false)
}
