package core

import (
	"fmt"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// This file extends the self-healing runner (recover.go) to ELASTIC
// membership: the row-span partition is a pure function of an ordered
// membership event log (deaths and rejoins) instead of a dead list, and
// the per-rank body is written against cluster.Transport so the same
// protocol runs over the modeled in-process transport and over the real
// TCP transport (internal/cluster/net), where a crashed worker process
// can be respawned and re-admitted mid-run.
//
// The consistency argument the elastic protocol leans on: transports
// admit joins ONLY at a successful collective — which is also the only
// point a phase completes — so within one phase's detect–heal–retry loop
// the event log can grow by deaths alone, preserving the monotone-growth
// property RedivideSpans' recovery depends on. A joiner therefore always
// starts at a phase boundary, seeded with the last completed phase's
// reduction result, and the survivors' assignments shrink only BETWEEN
// phases, never inside one.

// testPhaseDrag, when non-nil, runs inside a rank's phase computation
// just before the phase span ends — the watchdog acceptance tests'
// synthetic-slowdown hook (it sleeps, so the span's wall duration and
// the open-span age gauge both carry the drag). Set once before any run
// starts and cleared after; never mutated while ranks are computing.
var testPhaseDrag func(rank int, phase string)

// ElasticSpans computes each rank's owned row spans after replaying the
// ordered membership event log. Rank r starts with segment(n, P, r); a
// death splits every span of the dead rank evenly among the ranks live
// at that point (exactly RedivideSpans); a (re)join makes every other
// live rank cede the trailing 1/k of its rows (k = live count including
// the joiner) to the joiner. The result is a pure function of
// (n, P, events) and always partitions [0, n), so every rank that agreed
// on the log computes the identical assignment.
func ElasticSpans(n, P int, events []cluster.MemberEvent) [][]Span {
	asgn := make([][]Span, P)
	for r := 0; r < P; r++ {
		lo, hi := segment(n, P, r)
		if hi > lo {
			asgn[r] = []Span{{lo, hi}}
		}
	}
	dead := make([]bool, P)
	for _, ev := range events {
		r := ev.Rank
		if r < 0 || r >= P {
			continue
		}
		if !ev.Join {
			if dead[r] {
				continue
			}
			dead[r] = true
			var live []int
			for q := 0; q < P; q++ {
				if !dead[q] {
					live = append(live, q)
				}
			}
			if len(live) == 0 {
				asgn[r] = nil
				continue
			}
			for _, sp := range asgn[r] {
				for i, q := range live {
					l, h := segment(sp.Len(), len(live), i)
					if h > l {
						asgn[q] = append(asgn[q], Span{sp.Lo + l, sp.Lo + h})
					}
				}
			}
			asgn[r] = nil
		} else {
			if !dead[r] {
				continue
			}
			dead[r] = false
			k := 0
			for q := 0; q < P; q++ {
				if !dead[q] {
					k++
				}
			}
			for q := 0; q < P; q++ {
				if dead[q] || q == r {
					continue
				}
				total := 0
				for _, sp := range asgn[q] {
					total += sp.Len()
				}
				cede := total / k
				if cede == 0 {
					continue
				}
				var carved []Span
				asgn[q], carved = carveTail(asgn[q], cede)
				asgn[r] = append(asgn[r], carved...)
			}
		}
	}
	return asgn
}

// carveTail removes k rows from the tail of spans (last spans first) and
// returns the kept prefix and the carved spans in ascending row order.
func carveTail(spans []Span, k int) (kept, carved []Span) {
	for k > 0 && len(spans) > 0 {
		last := spans[len(spans)-1]
		if last.Len() <= k {
			carved = append(carved, last)
			k -= last.Len()
			spans = spans[:len(spans)-1]
		} else {
			carved = append(carved, Span{last.Hi - k, last.Hi})
			spans[len(spans)-1].Hi -= k
			k = 0
		}
	}
	for i, j := 0, len(carved)-1; i < j; i, j = i+1, j-1 {
		carved[i], carved[j] = carved[j], carved[i]
	}
	return spans, carved
}

// ElasticOut carries one rank's outputs from RunElasticRank.
type ElasticOut struct {
	// Epol is the reduced polarization energy (identical on every rank
	// that completed the protocol).
	Epol float64
	// Radii holds the Born radii in tree-slot order.
	Radii []float64
	// Ops counts kernel evaluations this rank performed.
	Ops float64
	// Completed reports whether the rank ran the protocol to the end;
	// false for a joiner admitted after the final collective, which had
	// nothing left to compute.
	Completed bool
}

// RunElasticRank executes the self-healing rank body over any Transport.
// startPhase is 1 + the number of collectives already completed globally
// when this rank joined (founding ranks pass 1); a late joiner passes the
// last completed reduction's result as seed so it resumes mid-protocol:
// after phase 1 the merged integral vector (bornAccum.vecLen values:
// nNodes+nAtoms scalars, plus the per-node receiver-expansion grad/hess
// components when Params.FarOrder > 0), after phase 2 the full
// Born-radii vector (nAtoms values).
func RunElasticRank(sys *System, c cluster.Transport, startPhase int, seed []float64) (*ElasticOut, error) {
	var out rankOut
	if err := elasticRank(sys, c, &out, startPhase, seed); err != nil {
		return nil, err
	}
	return &ElasticOut{Epol: out.epol, Radii: out.radii, Ops: out.ops, Completed: out.ok}, nil
}

// elasticRank is the per-rank body of the self-healing runner, shared by
// RunDistributedResilient (startPhase 1 over the in-process transport —
// behaviour-identical to the pre-elastic resilient runner, since that
// transport's event log contains deaths only) and the net runner's
// workers (any startPhase, elastic log).
func elasticRank(sys *System, c cluster.Transport, out *rankOut, startPhase int, seed []float64) error {
	P, rank := c.Size(), c.Rank()
	p := c.Threads()
	pool := sched.NewPool(p)
	defer pool.Close()
	c.TrackMemory(sys.MemoryBytes())

	o := c.Obs()
	bsp := o.Begin(rank, "phase", "build", c.Clock())
	lists := sys.Lists(pool)
	bsp.End(c.Clock())
	if rank == 0 {
		lists.RecordMetrics(o)
	}
	qLeaves := sys.QPts.Leaves()
	aLeaves := sys.Atoms.Leaves()
	nAtoms := sys.Mol.NumAtoms()
	rate := c.OpsPerSecond()
	if startPhase < 1 {
		startPhase = 1
	}

	// allreduce runs one collective of the retry protocol: build
	// re-assembles this rank's contribution (it must reflect all work done
	// so far, since a failed round discards every deposit), and heal
	// redoes the newly-inherited work after a death. Fewer than 2
	// survivors aborts the protocol with ErrDegraded.
	allreduce := func(build func() []float64, heal func(events []cluster.MemberEvent) error) ([]float64, error) {
		for {
			res, err := c.Allreduce(build(), cluster.Sum)
			if err == nil {
				return res, nil
			}
			if _, ok := cluster.AsRankDead(err); !ok {
				return nil, err
			}
			events := c.MemberEvents()
			if live := cluster.LiveCountFromEvents(P, events); live < 2 {
				return nil, fmt.Errorf("core: %d of %d ranks survive: %w", live, P, ErrDegraded)
			}
			if rerr := heal(events); rerr != nil {
				return nil, rerr
			}
		}
	}

	// Phase 1 (Figure 4 step 2): Born integrals over owned q-point leaf
	// rows. bornDone records which compiled Born rows this rank has
	// evaluated into merged. A joiner with startPhase ≥ 2 skips the phase
	// entirely: the reduction it would participate in already completed
	// globally, and its result arrived as the seed.
	merged := newBornAccum(sys)
	if startPhase >= 2 {
		if want := merged.vecLen(); startPhase == 2 && len(seed) != want {
			return fmt.Errorf("core: phase-2 join seed has %d values, want %d", len(seed), want)
		}
	} else {
		bornDone := make([]bool, len(qLeaves))
		computeBorn := func(events []cluster.MemberEvent) {
			rows, inherited := ownedRows(len(qLeaves), P, rank, events, bornDone)
			if len(rows) == 0 {
				return
			}
			// Each pass gets its own span, so post-crash re-executions show
			// up as extra born/push/epol intervals on the timeline.
			sp := o.Begin(rank, "phase", "born", c.Clock())
			accs := make([]*bornAccum, p)
			for i := range accs {
				accs[i] = newBornAccum(sys)
			}
			sched.ParallelFor(pool, len(rows), rowGrain(len(rows), p), func(l, h, w int) {
				for k := l; k < h; k++ {
					before := accs[w].ops
					bornRow(sys, lists.Born, rows[k], accs[w])
					if d := accs[w].ops - before; d > accs[w].maxTask {
						accs[w].maxTask = d
					}
				}
			})
			var total float64
			for _, a := range accs {
				merged.add(a)
				total += a.ops
			}
			out.ops += total
			charged := modelPhaseOps(total, maxOps(accs), merged.maxTask, p)
			c.ChargeOps(charged)
			sp.End(c.Clock(), obs.F("rows", float64(len(rows))), obs.F("inherited", float64(inherited)))
			o.Counter("kernel.born.batches").Add(int64(len(rows)))
			if inherited > 0 {
				// Recovery metering: the share of this pass spent on rows
				// inherited from dead ranks (row-proportional attribution).
				c.NoteRecovery(inherited, charged/rate*float64(inherited)/float64(len(rows)))
			}
		}
		computeBorn(c.MemberEvents())
		// The reduced vector carries the full receiver expansion (node/
		// atom scalars plus grad/hess under FarOrder > 0 — see
		// bornAccum.vecLen), so the push phase sees every rank's moment
		// corrections, not just locally-owned rows'.
		sum, err := allreduce(func() []float64 {
			return merged.appendVec(make([]float64, 0, merged.vecLen()))
		}, func(events []cluster.MemberEvent) error {
			computeBorn(events)
			return nil
		})
		if err != nil {
			return err
		}
		seed = sum
	}
	if startPhase <= 2 {
		merged.readVec(seed)
	}

	// Phase 2 (steps 4–5): Born radii for owned atom slots, shared via an
	// Allreduce of a zero-padded full vector. Each slot is written by
	// exactly one live rank (ElasticSpans partitions the slots), so the
	// sum reproduces each value exactly — and, unlike Allgatherv, it
	// tolerates the non-contiguous ownership recovery creates.
	slotRadii := make([]float64, nAtoms)
	if startPhase >= 3 {
		if startPhase == 3 && len(seed) != nAtoms {
			return fmt.Errorf("core: phase-3 join seed has %d values, want %d", len(seed), nAtoms)
		}
	} else {
		slotDone := make([]bool, nAtoms)
		computePush := func(events []cluster.MemberEvent) {
			slots, inherited := ownedRows(nAtoms, P, rank, events, slotDone)
			if len(slots) == 0 {
				return
			}
			sp := o.Begin(rank, "phase", "push", c.Clock())
			var ops float64
			// PushIntegralsToAtoms takes [lo,hi) ranges; sweep maximal runs.
			for i := 0; i < len(slots); {
				j := i + 1
				for j < len(slots) && slots[j] == slots[j-1]+1 {
					j++
				}
				ops += PushIntegralsToAtoms(sys, merged, slots[i], slots[j-1]+1, slotRadii)
				i = j
			}
			out.ops += ops
			c.ChargeOps(ops / float64(p))
			sp.End(c.Clock(), obs.F("rows", float64(len(slots))), obs.F("inherited", float64(inherited)))
			if inherited > 0 {
				c.NoteRecovery(inherited, ops/float64(p)/rate*float64(inherited)/float64(len(slots)))
			}
		}
		computePush(c.MemberEvents())
		radii, err := allreduce(func() []float64 {
			vec := make([]float64, nAtoms)
			for i, done := range slotDone {
				if done {
					vec[i] = slotRadii[i]
				}
			}
			return vec
		}, func(events []cluster.MemberEvent) error {
			computePush(events)
			return nil
		})
		if err != nil {
			return err
		}
		seed = radii
	}
	if startPhase >= 4 {
		// Admitted after the final reduction: nothing left to compute.
		return nil
	}
	copy(slotRadii, seed)

	// Phase 3 (step 6): E_pol over owned atom-leaf rows.
	ctx := NewEpolContext(sys, slotRadii)
	scratch := newEpolScratch(ctx, lists.Epol, p)
	epolDone := make([]bool, len(aLeaves))
	var raw float64
	computeEpol := func(events []cluster.MemberEvent) {
		rows, inherited := ownedRows(len(aLeaves), P, rank, events, epolDone)
		if len(rows) == 0 {
			return
		}
		sp := o.Begin(rank, "phase", "epol", c.Clock())
		eaccs := make([]epolAccum, p)
		sched.ParallelFor(pool, len(rows), rowGrain(len(rows), p), func(l, h, w int) {
			for k := l; k < h; k++ {
				before := eaccs[w].ops
				epolRow(ctx, lists.Epol, rows[k], &scratch[w], &eaccs[w])
				if d := eaccs[w].ops - before; d > eaccs[w].maxTask {
					eaccs[w].maxTask = d
				}
			}
		})
		var total, maxW, maxTask float64
		for i := range eaccs {
			raw += eaccs[i].energy
			total += eaccs[i].ops
			if eaccs[i].ops > maxW {
				maxW = eaccs[i].ops
			}
			if eaccs[i].maxTask > maxTask {
				maxTask = eaccs[i].maxTask
			}
		}
		out.ops += total
		charged := modelPhaseOps(total, maxW, maxTask, p)
		c.ChargeOps(charged)
		if testPhaseDrag != nil {
			testPhaseDrag(rank, "epol")
		}
		sp.End(c.Clock(), obs.F("rows", float64(len(rows))), obs.F("inherited", float64(inherited)))
		recordEpolSweep(o, len(rows), eaccs)
		if inherited > 0 {
			c.NoteRecovery(inherited, charged/rate*float64(inherited)/float64(len(rows)))
		}
	}
	computeEpol(c.MemberEvents())
	total, err := allreduce(func() []float64 { return []float64{raw} },
		func(events []cluster.MemberEvent) error {
			computeEpol(events)
			return nil
		})
	if err != nil {
		return err
	}
	out.epol = ctx.Finish(total[0])
	out.radii = slotRadii
	out.ok = true
	o.Counter("sched.steals").Add(pool.Steals())
	return nil
}
