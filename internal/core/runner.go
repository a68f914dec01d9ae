package core

import (
	"fmt"
	"time"

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
}

// Seconds returns the authoritative runtime: modeled time when available
// (it is comparable across configurations regardless of the host),
// otherwise wall time.
func (r *Result) Seconds() float64 {
	if r.ModelSeconds > 0 {
		return r.ModelSeconds
	}
	return r.WallSeconds
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
// q-point leaves (Born phase) and atom leaves (energy phase).
func RunShared(sys *System, opts SharedOptions) (*Result, error) {
	pool := opts.Pool
	if pool == nil {
		pool = sched.NewPool(opts.Threads)
		defer pool.Close()
	}
	rate := opts.OpsPerSecond
	if rate <= 0 {
		rate = CalibratedOpsPerSecond()
	}
	p := pool.NumWorkers()
	o := opts.Obs
	steals0 := pool.Steals()
	var lists *CompiledLists
	if !opts.Recursive {
		bsp := o.Begin(0, "phase", "build", obs.NoVirtual)
		lists = sys.Lists(pool)
		bsp.End(obs.NoVirtual)
		lists.RecordMetrics(o)
		if sys.Params.DebugCheckLists {
			if err := sys.RecheckLists(pool); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()

	// Phase 1 (Figure 4 step 2): APPROX-INTEGRALS over all q-point
	// leaves, per-worker private accumulators. The compiled path sweeps
	// the precomputed lists with the SoA batch kernel; the reference path
	// re-runs the recursive traversal. Phase spans use the running
	// modeled time as their virtual clock so the timeline's virtual axis
	// matches ModelSeconds.
	sp := o.Begin(0, "phase", "born", 0)
	accs := make([]*bornAccum, p)
	for i := range accs {
		accs[i] = newBornAccum(sys)
	}
	macs := sys.bornMACs()
	qLeaves := sys.QPts.Leaves()
	if lists != nil {
		il := lists.Born
		sched.ParallelFor(pool, len(il.Rows), rowGrain(len(il.Rows), p), func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				before := accs[w].ops
				bornRow(sys, il, i, accs[w])
				if d := accs[w].ops - before; d > accs[w].maxTask {
					accs[w].maxTask = d
				}
			}
		})
	} else {
		sched.ParallelFor(pool, len(qLeaves), 1, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				before := accs[w].ops
				ApproxIntegrals(sys, accs[w], sys.Atoms.Root(), qLeaves[i], &macs)
				if d := accs[w].ops - before; d > accs[w].maxTask {
					accs[w].maxTask = d
				}
			}
		})
	}
	merged := accs[0]
	for _, a := range accs[1:] {
		merged.add(a)
	}
	model := modelPhaseOps(merged.ops, maxOps(accs), merged.maxTask, p) / rate
	sp.End(model, obs.F("ops", merged.ops))
	if lists != nil {
		o.Counter("kernel.born.batches").Add(int64(len(lists.Born.Rows)))
	}

	// Phase 2 (step 4): push integrals down and invert to Born radii.
	sp = o.Begin(0, "phase", "push", model)
	slotRadii := make([]float64, sys.Mol.NumAtoms())
	pushOps := PushIntegralsToAtoms(sys, merged, 0, len(slotRadii), slotRadii)
	model += pushOps / (rate * float64(p))
	sp.End(model, obs.F("ops", pushOps))

	// Phase 3 (step 6): APPROX-EPOL over all atom leaves.
	sp = o.Begin(0, "phase", "epol", model)
	ctx := NewEpolContext(sys, slotRadii)
	eaccs := make([]epolAccum, p)
	aLeaves := sys.Atoms.Leaves()
	if lists != nil {
		il := lists.Epol
		scratch := newEpolScratch(ctx, il, p)
		sched.ParallelFor(pool, len(il.Rows), rowGrain(len(il.Rows), p), func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				before := eaccs[w].ops
				epolRow(ctx, il, i, &scratch[w], &eaccs[w])
				if d := eaccs[w].ops - before; d > eaccs[w].maxTask {
					eaccs[w].maxTask = d
				}
			}
		})
	} else {
		sched.ParallelFor(pool, len(aLeaves), 1, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				before := eaccs[w].ops
				ApproxEpol(ctx, sys.Atoms.Root(), aLeaves[i], &eaccs[w])
				if d := eaccs[w].ops - before; d > eaccs[w].maxTask {
					eaccs[w].maxTask = d
				}
			}
		})
	}
	var raw, maxE, maxTask, totalOps float64
	for i := range eaccs {
		raw += eaccs[i].energy
		if eaccs[i].ops > maxE {
			maxE = eaccs[i].ops
		}
		if eaccs[i].maxTask > maxTask {
			maxTask = eaccs[i].maxTask
		}
		totalOps += eaccs[i].ops
	}
	model += modelPhaseOps(totalOps, maxE, maxTask, p) / rate
	sp.End(model, obs.F("ops", totalOps))
	if lists != nil {
		recordEpolSweep(o, len(lists.Epol.Rows), eaccs)
	}
	o.Counter("sched.steals").Add(pool.Steals() - steals0)
	totalOps += merged.ops + pushOps

	return &Result{
		Epol:         ctx.Finish(raw),
		BornRadii:    sys.BornRadiiToOriginalOrder(slotRadii),
		WallSeconds:  time.Since(start).Seconds(),
		ModelSeconds: model,
		Ops:          totalOps,
	}, nil
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

func maxOps(accs []*bornAccum) float64 {
	var m float64
	for _, a := range accs {
		if a.ops > m {
			m = a.ops
		}
	}
	return m
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
// algorithm: node-based static division of q-point leaves (step 2),
// MPI_Allreduce of partial integrals (step 3), atom-segment Born radii
// (step 4), Allgatherv of radii (step 5), node-based division of atom
// leaves for energy (step 6) and a final reduction (step 7).
//
// cfg.Procs is P; cfg.ThreadsPerProc is p. p = 1 is the paper's OCT_MPI,
// p > 1 is OCT_MPI+CILK. The System is shared read-only across ranks
// in-process, but each rank TRACKS the full replicated footprint, so the
// report reproduces the paper's Section V.B memory accounting.
func RunDistributed(sys *System, cfg cluster.Config) (*Result, error) {
	if cfg.OpsPerSecond <= 0 {
		cfg.OpsPerSecond = CalibratedOpsPerSecond()
	}
	outs := make([]rankOut, cfg.Procs)
	start := time.Now()
	rep, err := cluster.Run(cfg, func(c *Comm) error {
		return distRank(sys, c, &outs[c.Rank()])
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Epol:         outs[0].epol,
		BornRadii:    sys.BornRadiiToOriginalOrder(outs[0].radii),
		WallSeconds:  time.Since(start).Seconds(),
		ModelSeconds: rep.VirtualSeconds,
		Report:       rep,
	}
	for i := range outs {
		res.Ops += outs[i].ops
	}
	// Sanity: every rank must agree on the reduced energy.
	for r := 1; r < len(outs); r++ {
		if outs[r].epol != outs[0].epol {
			return nil, fmt.Errorf("core: rank %d energy %v disagrees with rank 0's %v",
				r, outs[r].epol, outs[0].epol)
		}
	}
	return res, nil
}

// rankOut carries one rank's results back from the SPMD body. ok marks
// outputs from ranks that finished the whole protocol — the resilient
// runner takes its result from the first such rank, since a fault plan
// may have killed rank 0.
type rankOut struct {
	epol  float64
	radii []float64
	ops   float64
	ok    bool
}

// Comm aliases cluster.Comm for the rank function signature.
type Comm = cluster.Comm

// distRank is the per-rank body of Figure 4.
func distRank(sys *System, c *Comm, out *rankOut) error {
	P, rank := c.Size(), c.Rank()
	p := c.Threads()
	pool := sched.NewPool(p)
	defer pool.Close()

	// Step 1: every rank holds the full octrees (replicated data).
	c.TrackMemory(sys.MemoryBytes())

	// Steps 2-5 (shared with the dynamic runner).
	slotRadii, err := bornPhase(sys, c, pool, out)
	if err != nil {
		return err
	}

	// Step 6: APPROX-EPOL for this rank's segment of atom leaves
	// (node-node work division). Ranks share the System's compiled lists
	// (the first rank compiles, the rest reuse): row i is aLeaves[i].
	o := c.Obs()
	ctx := NewEpolContext(sys, slotRadii)
	il := sys.Lists(pool).Epol
	aLeaves := sys.Atoms.Leaves()
	eLo, eHi := segment(len(aLeaves), P, rank)
	sp := o.Begin(rank, "phase", "epol", c.Clock())
	eaccs := make([]epolAccum, p)
	scratch := newEpolScratch(ctx, il, p)
	sched.ParallelFor(pool, eHi-eLo, rowGrain(eHi-eLo, p), func(l, h, w int) {
		for i := l; i < h; i++ {
			before := eaccs[w].ops
			epolRow(ctx, il, eLo+i, &scratch[w], &eaccs[w])
			if d := eaccs[w].ops - before; d > eaccs[w].maxTask {
				eaccs[w].maxTask = d
			}
		}
	})
	var raw, maxE, maxTask, rankOps float64
	for i := range eaccs {
		raw += eaccs[i].energy
		if eaccs[i].ops > maxE {
			maxE = eaccs[i].ops
		}
		if eaccs[i].maxTask > maxTask {
			maxTask = eaccs[i].maxTask
		}
		rankOps += eaccs[i].ops
		out.ops += eaccs[i].ops
	}
	c.ChargeOps(modelPhaseOps(rankOps, maxE, maxTask, p))
	sp.End(c.Clock(), obs.F("rows", float64(eHi-eLo)), obs.F("ops", rankOps))
	recordEpolSweep(o, eHi-eLo, eaccs)
	o.Counter("sched.steals").Add(pool.Steals())

	// Step 7: reduce partial energies (Allreduce so every rank returns
	// the final value, like MPI_Allreduce in the paper's step 3 wording).
	total, err := c.Allreduce([]float64{raw}, cluster.Sum)
	if err != nil {
		return err
	}
	out.epol = ctx.Finish(total[0])
	out.radii = slotRadii
	return nil
}
