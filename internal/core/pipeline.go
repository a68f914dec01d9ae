package core

import (
	"errors"
	"fmt"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// This file is Figure 4 written once. The paper's three configurations
// (OCT_CILK, OCT_MPI, OCT_MPI+CILK) differ only in (P, p), and every
// public runner constructs the one rank body below (run), choosing only
//
//   - the transport: none (one rank, every reduction the identity), the
//     modeled in-process *cluster.Comm, or the TCP *net.Comm;
//   - the E_pol schedule: static spans, or dyndist.go's stealing protocol;
//   - the phase kernel: compiled list rows, or the recursive reference
//     traversal.
//
// A rank's rows are always ElasticSpans(n, cost, ranks, events)[rank] — the
// paper's node–node division (Section IV.A) among the ranks that hold the
// phase's inputs: while the membership log is empty, static parts of leaf
// rows or of the units a kernel takes whole (the compiled sweeps' tiles,
// InteractionLists.TileOff, cut at equal estimated cost, listScan) — so a
// part, a healed set of spans, a stolen batch and "all rows" are the same
// call to sweep, and every collective sits in one detect–heal–retry loop.
// Every rank holds what E_pol reads; the Born and push phases are divided
// among the ranks that hold the surface side too (pipeline.holders): every
// rank of the modeled cluster, rank 0 alone in a TCP run, whose workers
// decode only the E_pol side of the checkpoint (decodeWorkerSnapshot). A
// rank past the holders deposits an empty share — zeros — to the Born
// Allreduce and nothing to the radii Allgatherv.
//
// The consistency argument the protocol leans on: transports admit joins
// ONLY at a successful collective — which is also the only point a phase
// completes — so within one phase's retry loop the log can grow by deaths
// alone, preserving ElasticSpans' monotone growth. A joiner therefore
// always starts at a phase boundary, seeded with the last completed
// phase's reduction result, and the survivors' assignments shrink only
// BETWEEN phases, never inside one.

// rowKind is how one row of a phase is evaluated — the phase-kernel axis.
type rowKind uint8

const (
	// rowCompiled sweeps the row's compiled interaction list with the SoA
	// batch kernels (ilist.go, kernels.go): production.
	rowCompiled rowKind = iota
	// rowRecursive re-runs the recursive near–far traversal from the root
	// for the row's leaf: the cross-check reference and ablation baseline.
	rowRecursive
)

// phaseKernel picks the row evaluation of the Born and the energy phase.
type phaseKernel struct{ born, epol rowKind }

// rankOut carries one rank's results back from the rank body. ok marks a
// rank that finished the whole protocol: a fault plan may have killed
// rank 0, and a joiner admitted after the final collective has nothing to
// report, so the result is taken from the first rank that did.
type rankOut struct {
	epol  float64
	radii []float64 // Born radii in tree-slot order
	ops   float64   // kernel evaluations this rank performed
	model float64   // modeled seconds (the one-rank machine; clusters report their own clock)
	wall  float64   // measured seconds of the energy phases, list build excluded
	ok    bool
}

// pipeline is one rank's evaluation of Figure 4.
type pipeline struct {
	sys   *System
	c     cluster.Transport // nil: the one-rank machine of RunShared
	pool  *sched.Pool       // nil: the body makes (and closes) its own
	kern  phaseKernel
	steal *DynStats // non-nil: E_pol runs under the stealing protocol
	o     *obs.Obs
	rate  float64 // calibrated kernel evaluations per second
	out   *rankOut

	P, rank, p int
	// holders is how many ranks, 0 to holders−1, hold the surface side and
	// divide the Born and push phases among them.
	holders int
	clockS  float64 // the one-rank machine's modeled clock

	lists *CompiledLists
	accs  []*bornAccum // per-worker s-fields; accs[0] doubles as the merged/reduced field
	radii []float64
	ectx  *EpolContext
	scr   []epolScratch
	eaccs []epolAccum
	// What this rank has already computed of each phase, and how many
	// compiled energy rows that was.
	bornDone, pushDone, epolDone []Span
	epolRows                     int
}

// rankPipeline builds the rank body for one rank of a transport, every rank
// holding the surface side.
func rankPipeline(sys *System, c cluster.Transport, out *rankOut) *pipeline {
	return &pipeline{sys: sys, c: c, o: c.Obs(), rate: c.OpsPerSecond(), out: out,
		P: c.Size(), rank: c.Rank(), p: c.Threads(), holders: c.Size()}
}

func (pl *pipeline) clock() float64 {
	if pl.c != nil {
		return pl.c.Clock()
	}
	return pl.clockS
}

func (pl *pipeline) charge(ops float64) {
	if pl.c != nil {
		pl.c.ChargeOps(ops)
		return
	}
	pl.clockS += ops / pl.rate
}

// sweep is THE row sweep. fn(row, w) runs for every row (or unit of rows)
// of sel on the rank's pool, worker w accumulating into its private
// accumulator, whose op meter is meter(w). It charges the sweep's modeled
// critical path (modelPhaseOps) to the rank's clock and returns the ops
// done and charged.
func (pl *pipeline) sweep(sel []Span, grain int, meter func(w int) *workMeter, fn func(row, w int)) (total, charged float64) {
	n := 0
	for _, s := range sel {
		n += s.Len()
	}
	for w := 0; w < pl.p; w++ {
		m := meter(w)
		m.mark, m.maxTask = m.ops, 0
	}
	sched.ParallelFor(pl.pool, n, grain, func(lo, hi, w int) {
		m := meter(w)
		off := 0 // [lo,hi) indexes the concatenation of sel's spans
		for _, s := range sel {
			for k := max(lo, off); k < min(hi, off+s.Len()); k++ {
				before := m.ops
				fn(s.Lo+k-off, w)
				if d := m.ops - before; d > m.maxTask {
					m.maxTask = d
				}
			}
			off += s.Len()
		}
	})
	var maxWorker, maxTask float64
	for w := 0; w < pl.p; w++ {
		m := meter(w)
		d := m.ops - m.mark
		total += d
		maxWorker, maxTask = max(maxWorker, d), max(maxTask, m.maxTask)
	}
	charged = modelPhaseOps(total, maxWorker, maxTask, pl.p)
	pl.charge(charged)
	return total, charged
}

// testPhaseDrag, when non-nil, runs inside a rank's phase computation
// just before the phase span ends — the watchdog acceptance tests'
// synthetic-slowdown hook (it sleeps, so the span's wall duration and
// the open-span age gauge both carry the drag). Set once before any run
// starts and cleared after; never mutated while ranks are computing.
var testPhaseDrag func(rank int, phase string)

// pass runs one piece of newly claimed work inside its own phase span, on
// the running modeled clock — post-crash re-executions show up as extra
// born/push/epol intervals on the timeline — and meters the share of it
// spent on rows inherited from dead ranks (row-proportional attribution).
func (pl *pipeline) pass(name string, rows, inherited int, work func() (ops, charged float64)) {
	sp := pl.o.Begin(pl.rank, "phase", name, pl.clock())
	ops, charged := work()
	pl.out.ops += ops
	if testPhaseDrag != nil {
		testPhaseDrag(pl.rank, name)
	}
	sp.End(pl.clock(), obs.F("rows", float64(rows)), obs.F("inherited", float64(inherited)), obs.F("ops", ops))
	if inherited > 0 {
		pl.c.NoteRecovery(inherited, charged/pl.rate*float64(inherited)/float64(rows))
	}
}

// rowUnits cuts a phase's n rows into the units its kernel takes whole:
// unit u is the rows [off[u], off[u+1]) — a compiled tile — or, off nil,
// row u alone. The ranks 0 to ranks−1 divide the units at equal cost: cost
// holds the compiled tiles' estimates (listScan) when they are two or
// more, and is nil — every unit costing 1 — otherwise.
type rowUnits struct {
	n     int
	off   []int32
	cost  costs
	ranks int
}

// count returns the number of units.
func (u rowUnits) count() int {
	if u.off != nil {
		return len(u.off) - 1
	}
	return u.n
}

// rows counts the rows of the units s.
func (u rowUnits) rows(s Span) int {
	switch {
	case s.Hi <= s.Lo:
		return 0
	case u.off != nil:
		return int(u.off[s.Hi] - u.off[s.Lo])
	}
	return s.Hi - s.Lo
}

// claim returns what the membership log newly assigns this rank of the
// units u — spans of units — marks it done, and counts the rows of it and
// the rows of it outside the rank's fault-free segment: work inherited from
// dead ranks. Within one phase the log grows by deaths alone, which only
// ever APPEND spans to a survivor's ElasticSpans share, so the spans past
// the ones already done are exactly the dead ranks' lost work. A rank past
// u.ranks is assigned nothing, whatever the log says: ElasticSpans ignores
// the events of ranks past its P.
func (pl *pipeline) claim(u rowUnits, events []cluster.MemberEvent, done *[]Span) (sel []Span, rows, inherited int) {
	if pl.rank >= u.ranks {
		return nil, 0, 0
	}
	owned := ElasticSpans(u.count(), u.cost, u.ranks, events)[pl.rank]
	sel = owned[len(*done):]
	for _, s := range sel {
		rows += u.rows(s)
		inherited += pl.inherited(u, s)
	}
	*done = owned
	return sel, rows, inherited
}

// inherited counts the rows of units s outside this rank's static part of
// the units u.
func (pl *pipeline) inherited(u rowUnits, s Span) int {
	own := u.static(u.ranks, pl.rank)
	return u.rows(s) - u.rows(Span{max(s.Lo, own.Lo), min(s.Hi, own.Hi)})
}

// static returns rank's part of the units u while no rank has died: the
// rank-th of P equal-cost parts.
func (u rowUnits) static(P, rank int) Span { return u.cost.part(Span{0, u.count()}, P, rank) }

// share claims this rank's not-yet-done part of a phase over the units u
// and sweeps it; it returns the rows claimed. kernel makes, inside the
// phase span, the function the sweep calls once per unit.
func (pl *pipeline) share(name string, kind rowKind, u rowUnits, done *[]Span, events []cluster.MemberEvent,
	meter func(w int) *workMeter, kernel func() func(unit, w int)) int {
	sel, rows, inherited := pl.claim(u, events, done)
	if rows == 0 {
		return 0
	}
	grain := 1 // the recursive traversal's per-leaf costs are skewed
	if kind == rowCompiled {
		units := 0
		for _, s := range sel {
			units += s.Len()
		}
		grain = rowGrain(units, pl.p)
	}
	pl.pass(name, rows, inherited, func() (float64, float64) {
		return pl.sweep(sel, grain, meter, kernel())
	})
	return rows
}

// phase is THE retry collective around one phase's work. Each round does
// the work the membership log newly assigns this rank, then attempts the
// collective under that same log. A rank crash surfaces from call as
// *cluster.RankDeadError (a successful collective doubles as a consensus
// on the dead set, see cluster.rendezvous); the round is then repeated
// under the grown log — with a contribution reflecting ALL work so far,
// since a failed round discards every deposit. Fewer than 2 survivors
// abort with ErrDegraded. Without a transport nothing is packed: the
// result is nil and the caller keeps its local values.
func (pl *pipeline) phase(work func(events []cluster.MemberEvent) error,
	call func(events []cluster.MemberEvent) ([]float64, error)) ([]float64, error) {
	if pl.c == nil {
		return nil, work(nil)
	}
	for events := pl.c.MemberEvents(); ; events = pl.c.MemberEvents() {
		if err := work(events); err != nil {
			return nil, err
		}
		res, err := call(events)
		if err == nil {
			return res, nil
		}
		if _, ok := cluster.AsRankDead(err); !ok {
			return nil, err
		}
		if live := cluster.LiveCountFromEvents(pl.P, pl.c.MemberEvents()); live < 2 {
			return nil, fmt.Errorf("core: %d of %d ranks survive: %w", live, pl.P, ErrDegraded)
		}
	}
}

// run is THE rank body: Figure 4's seven steps. startPhase is 1 + the
// number of collectives already completed globally when this rank joined
// (founding ranks pass 1); a late joiner passes the last completed
// reduction's result as seed and resumes mid-protocol: after phase 1 the
// merged integral vector (bornAccum.vecLen values), after phase 2 the
// full Born-radii vector (nAtoms values). A joiner admitted after the
// final reduction has nothing left to compute.
func (pl *pipeline) run(startPhase int, seed []float64) error {
	if startPhase >= 4 {
		return nil
	}
	sys := pl.sys
	if pl.pool == nil {
		pl.pool = sched.NewPool(pl.p)
		defer pl.pool.Close()
	}
	pl.p = pl.pool.NumWorkers()
	steals0 := pl.pool.Steals()

	// Step 1: every rank holds the full octrees (replicated data) and
	// shares the System's compiled lists: the first rank compiles, the
	// rest reuse. The one-rank machine keeps preprocessing off its clock.
	if pl.c != nil {
		pl.c.TrackMemory(sys.MemoryBytes())
	}
	if pl.rank == 0 {
		sys.RecordMemory(pl.o)
	}
	if pl.kern.born == rowCompiled || pl.kern.epol == rowCompiled {
		var virt float64 = obs.NoVirtual
		if pl.c != nil {
			virt = pl.c.Clock()
		}
		bsp := pl.o.Begin(pl.rank, "phase", "build", virt)
		pl.lists = sys.ListsObserved(pl.pool, pl.o, pl.rank)
		bsp.End(virt)
		if pl.rank == 0 {
			// Static list structure is identical across ranks: record once.
			pl.lists.RecordMetrics(pl.o)
			if sys.Params.DebugCheckLists {
				if err := sys.RecheckLists(pl.pool); err != nil {
					return err
				}
			}
		}
	}
	start := time.Now()

	// Phase 1 (steps 2–3): Born integrals over the owned q-point leaf
	// rows, then the Allreduce of the partial s-fields. A joiner with
	// startPhase ≥ 2 skips the phase: its reduction already completed
	// globally, and the result arrived as the seed.
	pl.accs = make([]*bornAccum, pl.p)
	merged := newBornAccum(sys)
	pl.accs[0] = merged
	if startPhase >= 2 {
		if want := merged.vecLen(); startPhase == 2 && len(seed) != want {
			return fmt.Errorf("core: phase-2 join seed has %d values, want %d", len(seed), want)
		}
	} else {
		var err error
		seed, err = pl.phase(pl.bornPass, func([]cluster.MemberEvent) ([]float64, error) {
			return pl.c.Allreduce(merged.appendVec(make([]float64, 0, merged.vecLen())), cluster.Sum)
		})
		if err != nil {
			return err
		}
	}
	if startPhase <= 2 && seed != nil {
		merged.readVec(seed)
	}

	// Phase 2 (steps 4–5): push the integrals down to Born radii for the
	// owned atom slots and share them (shareRadii).
	nAtoms := sys.Mol.NumAtoms()
	pl.radii = make([]float64, nAtoms)
	if startPhase >= 3 {
		if len(seed) != nAtoms {
			return fmt.Errorf("core: phase-3 join seed has %d values, want %d", len(seed), nAtoms)
		}
	} else {
		var err error
		if seed, err = pl.phase(pl.pushPass, pl.shareRadii); err != nil {
			return err
		}
	}
	copy(pl.radii, seed)

	// Phase 3 (steps 6–7): E_pol over the owned atom-leaf rows under the
	// run's schedule, then the reduction of the partial energies — an
	// Allreduce, so every rank returns the final value.
	pl.eaccs = make([]epolAccum, pl.p)
	epol := pl.epolPass
	if pl.steal != nil {
		epol = pl.stealEpol()
	}
	raw := func() (sum float64) {
		for i := range pl.eaccs {
			sum += pl.eaccs[i].energy
		}
		return sum
	}
	total, err := pl.phase(epol, func([]cluster.MemberEvent) ([]float64, error) {
		return pl.c.Allreduce([]float64{raw()}, cluster.Sum)
	})
	if err != nil {
		return err
	}
	if total == nil {
		total = []float64{raw()}
	}
	if pl.kern.epol == rowCompiled {
		recordEpolSweep(pl.o, pl.epolRows, pl.eaccs)
	}
	pl.o.Counter("sched.steals").Add(pl.pool.Steals() - steals0)
	*pl.out = rankOut{epol: pl.epolContext().Finish(total[0]), radii: pl.radii, ops: pl.out.ops,
		model: pl.clockS, wall: time.Since(start).Seconds(), ok: true}
	return nil
}

// bornPass evaluates the Born rows the log newly assigns this rank and
// folds the workers' s-fields into accs[0]; the other accumulators live
// only for the pass. A rank past the holders has no surface side: its
// share is empty, and accs[0] stays zero.
func (pl *pipeline) bornPass(events []cluster.MemberEvent) error {
	if pl.rank >= pl.holders {
		return nil
	}
	accs := pl.accs
	for w := 1; w < len(accs); w++ {
		accs[w] = newBornAccum(pl.sys)
	}
	// The compiled sweep divides the rows by whole tiles: a tile's shared far
	// run is swept once, for all of its rows.
	u := rowUnits{n: len(pl.sys.QPts.Leaves()), ranks: pl.holders}
	if pl.kern.born == rowCompiled {
		u.off = pl.lists.Born.TileOff
		if u.ranks > 1 {
			u.cost = pl.lists.unitCosts(pl.sys, phaseBorn)
		}
	}
	rows := pl.share("born", pl.kern.born, u, &pl.bornDone, events,
		func(w int) *workMeter { return &accs[w].workMeter }, pl.bornKernel)
	for w := 1; w < len(accs); w++ {
		accs[0].add(accs[w])
		accs[w] = nil
	}
	if pl.kern.born == rowCompiled {
		pl.o.Counter("kernel.born.batches").Add(int64(rows))
	}
	return nil
}

// bornKernel returns the Born phase's evaluation of one unit of rows: a
// compiled tile, or one q-point leaf row of the recursive traversal.
func (pl *pipeline) bornKernel() func(unit, w int) {
	sys, accs := pl.sys, pl.accs
	if pl.kern.born == rowCompiled {
		il := pl.lists.Born // row i is qLeaves[i]
		return func(tile, w int) { bornTile(sys, il, tile, accs[w]) }
	}
	mac, root, qLeaves := sys.bornMAC(), sys.Atoms.Root(), sys.QPts.Leaves()
	return func(row, w int) { ApproxIntegrals(sys, accs[w], root, qLeaves[row], mac) }
}

// pushPass inverts the reduced integrals to Born radii for the atom slots
// the log newly assigns this rank.
func (pl *pipeline) pushPass(events []cluster.MemberEvent) error {
	sel, rows, inherited := pl.claim(rowUnits{n: len(pl.radii), ranks: pl.holders}, events, &pl.pushDone)
	if rows == 0 {
		return nil
	}
	pl.pass("push", rows, inherited, func() (ops, charged float64) {
		for _, s := range sel {
			ops += PushIntegralsToAtoms(pl.sys, pl.accs[0], s.Lo, s.Hi, pl.radii)
		}
		charged = ops / float64(pl.p)
		pl.charge(charged)
		return ops, charged
	})
	return nil
}

// shareRadii is Figure 4's step 5. While the membership log is empty the
// owned slots are the holders' contiguous static segments and it is the
// paper's Allgatherv, every other rank contributing none; once the log
// records a death, ownership is a set of spans and the radii travel as an
// Allreduce of zero-padded full vectors — each slot is written by exactly
// one live rank, so the sum reproduces each value exactly. Every deposit
// that can complete a round was made under the same log, so the ranks agree
// on the collective.
func (pl *pipeline) shareRadii(events []cluster.MemberEvent) ([]float64, error) {
	n := len(pl.radii)
	if len(events) == 0 {
		counts := make([]int, pl.P)
		var own []float64
		for r := range pl.holders {
			lo, hi := segment(n, pl.holders, r)
			counts[r] = hi - lo
			if r == pl.rank {
				own = pl.radii[lo:hi]
			}
		}
		return pl.c.Allgatherv(own, counts)
	}
	vec := make([]float64, n)
	for _, s := range pl.pushDone {
		copy(vec[s.Lo:s.Hi], pl.radii[s.Lo:s.Hi])
	}
	return pl.c.Allreduce(vec, cluster.Sum)
}

// epolPass is the static E_pol schedule: evaluate the energy rows the log
// newly assigns this rank.
func (pl *pipeline) epolPass(events []cluster.MemberEvent) error {
	pl.epolRows += pl.share("epol", pl.kern.epol, pl.epolUnits(), &pl.epolDone, events, pl.epolMeter, pl.epolKernel)
	return nil
}

func (pl *pipeline) epolMeter(w int) *workMeter { return &pl.eaccs[w].workMeter }

// epolUnits returns the units the energy phase's kernel takes whole: the
// compiled lists' tiles — a tile's shared runs are swept once, for all of
// its rows — or the recursive traversal's atom-leaf rows.
func (pl *pipeline) epolUnits() rowUnits {
	u := rowUnits{n: len(pl.sys.Atoms.Leaves()), ranks: pl.P}
	if pl.kern.epol == rowCompiled {
		u.off = pl.lists.Epol.TileOff
		if u.ranks > 1 {
			u.cost = pl.lists.unitCosts(pl.sys, phaseEpol)
		}
	}
	return u
}

// epolContext returns the energy phase's context over the reduced Born
// radii and, for the compiled sweep, makes the workers' scratch, both once:
// inside the rank's first epol span, whose time they are.
func (pl *pipeline) epolContext() *EpolContext {
	if pl.ectx == nil {
		pl.ectx = NewEpolContext(pl.sys, pl.radii)
		if pl.kern.epol == rowCompiled {
			near, ok := pl.lists.epolExtents()
			if !ok {
				near = boundExtents(pl.ectx, pl.lists.Epol)
			}
			pl.scr = newEpolScratch(pl.ectx, near, pl.p)
		}
	}
	return pl.ectx
}

// epolKernel returns the energy phase's evaluation of one unit: a compiled
// tile, or one atom-leaf row of the recursive traversal.
func (pl *pipeline) epolKernel() func(unit, w int) {
	ctx, eaccs := pl.epolContext(), pl.eaccs
	if pl.kern.epol == rowCompiled {
		il, scr := pl.lists.Epol, pl.scr // row i is aLeaves[i]
		return func(tile, w int) { epolTile(ctx, il, tile, &scr[w], &eaccs[w]) }
	}
	root, aLeaves := pl.sys.Atoms.Root(), pl.sys.Atoms.Leaves()
	return func(row, w int) { ApproxEpol(ctx, root, aLeaves[row], &eaccs[w]) }
}

// result is THE assembly of rank outputs into a Result: energy and radii
// from the first rank that completed the protocol, with which every other
// completed rank must agree bit for bit. rep is the cluster's report (nil
// for the one-rank machine, whose rank carries its own clocks).
func result(sys *System, outs []rankOut, rep *cluster.Report) (*Result, error) {
	var res *Result
	for r := range outs {
		out := &outs[r]
		switch {
		case !out.ok:
		case res == nil:
			res = &Result{Epol: out.epol, BornRadii: sys.BornRadiiToOriginalOrder(out.radii),
				WallSeconds: out.wall, ModelSeconds: out.model, Report: rep}
		case out.epol != res.Epol:
			return nil, fmt.Errorf("core: rank %d energy %v disagrees with %v", r, out.epol, res.Epol)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("core: no rank completed the protocol: %w", ErrDegraded)
	}
	for r := range outs {
		res.Ops += outs[r].ops
	}
	if rep != nil {
		res.WallSeconds, res.ModelSeconds = rep.WallSeconds, rep.VirtualSeconds
	}
	return res, nil
}

// degradeToShared is THE fallback of every distributed runner: when the
// run cannot complete on the survivors, the shared runner computes the
// energy instead and the report records why.
func degradeToShared(sys *System, threads int, rate float64, o *obs.Obs, rep *cluster.Report, cause error, start time.Time) (*Result, error) {
	res, err := RunShared(sys, SharedOptions{Threads: threads, OpsPerSecond: rate, Obs: o})
	if err != nil {
		return nil, err
	}
	if rep != nil {
		if rep.Faults == nil {
			rep.Faults = &cluster.FaultReport{}
		}
		rep.Faults.Degraded = true
		rep.Faults.DegradedReason = cause.Error()
		res.Report = rep
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// ErrDegraded reports that the distributed run could not continue on the
// surviving ranks and fell back to the shared-memory runner.
var ErrDegraded = errors.New("core: degraded to shared runner")

// degradable decides whether a failed distributed run may fall back to
// the shared runner: fault-typed failures (too few survivors, dead
// links, stalls, unrecovered deaths) degrade; everything else — config
// errors, programming bugs on a fault-free run — propagates. ErrAborted
// is fault-typed only when the run actually injected faults, since a
// faulted peer's abort reaches innocent ranks as ErrAborted.
func degradable(err error, rep *cluster.Report) bool {
	if errors.Is(err, ErrDegraded) || errors.Is(err, cluster.ErrRankDead) ||
		errors.Is(err, cluster.ErrTimeout) {
		return true
	}
	return errors.Is(err, cluster.ErrAborted) && rep != nil && rep.Faults != nil
}

// runCluster runs the rank body on every rank of the in-process cluster:
// RunDistributed and its stealing variant.
func runCluster(sys *System, cfg cluster.Config, kern phaseKernel, steal bool) (*Result, error) {
	if cfg.OpsPerSecond <= 0 {
		cfg.OpsPerSecond = CalibratedOpsPerSecond()
	}
	// The stealing protocol's behaviour depends on virtual timing, so
	// real execution must follow the virtual clocks (see cluster/pace.go).
	cfg.Paced = cfg.Paced || steal
	outs := make([]rankOut, max(cfg.Procs, 0))
	stats := make([]DynStats, len(outs))
	start := time.Now()
	rep, err := cluster.Run(cfg, func(c *cluster.Comm) error {
		pl := rankPipeline(sys, c, &outs[c.Rank()])
		pl.kern = kern
		if steal {
			pl.steal = &stats[c.Rank()]
		}
		return pl.run(1, nil)
	})
	var res *Result
	if err == nil {
		res, err = result(sys, outs, rep)
	}
	if err != nil {
		if !degradable(err, rep) {
			return nil, err
		}
		if res, err = degradeToShared(sys, cfg.ThreadsPerProc, cfg.OpsPerSecond, cfg.Obs, rep, err, start); err != nil {
			return nil, err
		}
		stats = nil // the aborted protocol's steals moved no energy
	}
	if steal {
		res.Stealing = &DynStats{}
		for _, st := range stats {
			res.Stealing.Steals += st.Steals
			res.Stealing.FailedSteals += st.FailedSteals
			res.Stealing.LeavesMigrated += st.LeavesMigrated
		}
	}
	return res, nil
}
