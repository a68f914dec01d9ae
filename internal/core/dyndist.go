package core

import (
	"fmt"
	"math/rand"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// This file implements the paper's Section VI future work: "we are
// planning to incorporate explicit dynamic load balancing techniques such
// as work-stealing" ACROSS compute nodes (the cilk++ scheduler already
// steals inside a node). The energy phase — the dominant and least
// balanced phase — runs under a peer-to-peer range-stealing protocol on
// top of the cluster substrate's point-to-point messages:
//
//   - every rank starts with its static segment of atom leaves;
//   - between batches it answers pending steal requests by giving away
//     the BACK half of its remaining range (steal-half, the standard
//     policy);
//   - an idle rank picks random victims and blocks for their replies,
//     answering other thieves' requests with "empty" while it waits (so
//     thief/thief cycles cannot deadlock);
//   - a rank that has failed to steal from P−1 consecutive victims
//     reports done to rank 0, then serves empty replies until rank 0 —
//     after every rank (including itself) is done — broadcasts
//     termination. Done ranks never re-acquire work, so no work is lost.
//
// The protocol exchanges only leaf-range indices: stolen work is
// processed against the same replicated octree, so communication volume
// is O(#steals), independent of M.

// Message tags of the stealing protocol.
const (
	tagStealReq = 100 + iota
	tagStealRep
	tagDone
	tagFinish
)

// DynStats reports the stealing behaviour of one run (summed over ranks).
type DynStats struct {
	// Steals counts successful inter-rank steals.
	Steals int
	// FailedSteals counts empty replies received by thieves.
	FailedSteals int
	// LeavesMigrated counts leaves processed by a rank other than their
	// static owner.
	LeavesMigrated int
}

// RunDistributedDynamic is RunDistributed with inter-rank work stealing
// in the energy phase. The Born phase keeps the static node-based
// division (it is cheap and well balanced after far-field pruning).
func RunDistributedDynamic(sys *System, cfg cluster.Config) (*Result, *DynStats, error) {
	if cfg.OpsPerSecond <= 0 {
		cfg.OpsPerSecond = CalibratedOpsPerSecond()
	}
	// The stealing protocol's behaviour depends on virtual timing, so
	// real execution must follow the virtual clocks (see cluster/pace.go).
	cfg.Paced = true
	outs := make([]rankOut, cfg.Procs)
	stats := make([]DynStats, cfg.Procs)
	rep, err := cluster.Run(cfg, func(c *Comm) error {
		return dynRank(sys, c, &outs[c.Rank()], &stats[c.Rank()])
	})
	if err != nil {
		// The stealing protocol is not self-healing — a fault-typed
		// failure (dead peer mid-steal, dead link, stall) degrades to the
		// shared runner instead of failing the computation.
		if !degradable(err, rep) {
			return nil, nil, err
		}
		shared, serr := RunShared(sys, SharedOptions{
			Threads:      cfg.ThreadsPerProc,
			OpsPerSecond: cfg.OpsPerSecond,
			Obs:          cfg.Obs,
		})
		if serr != nil {
			return nil, nil, serr
		}
		if rep != nil {
			if rep.Faults == nil {
				rep.Faults = &cluster.FaultReport{}
			}
			rep.Faults.Degraded = true
			rep.Faults.DegradedReason = err.Error()
			shared.Report = rep
		}
		return shared, &DynStats{}, nil
	}
	res := &Result{
		Epol:         outs[0].epol,
		BornRadii:    sys.BornRadiiToOriginalOrder(outs[0].radii),
		WallSeconds:  rep.WallSeconds,
		ModelSeconds: rep.VirtualSeconds,
		Report:       rep,
	}
	total := &DynStats{}
	for i := range outs {
		res.Ops += outs[i].ops
		total.Steals += stats[i].Steals
		total.FailedSteals += stats[i].FailedSteals
		total.LeavesMigrated += stats[i].LeavesMigrated
	}
	return res, total, nil
}

// bornPhase runs Figure 4's steps 1–5 (shared by the static and dynamic
// runners) and returns the gathered Born radii in slot order.
func bornPhase(sys *System, c *Comm, pool *sched.Pool, out *rankOut) ([]float64, error) {
	P, rank := c.Size(), c.Rank()
	p := pool.NumWorkers()
	qLeaves := sys.QPts.Leaves()
	nAtoms := sys.Mol.NumAtoms()

	// Ranks share the System's compiled lists (first caller compiles,
	// the rest reuse); Born row i is qLeaves[i], so this rank's segment
	// maps directly onto rows [lo,hi).
	o := c.Obs()
	bsp := o.Begin(rank, "phase", "build", c.Clock())
	lists := sys.Lists(pool)
	bsp.End(c.Clock())
	if rank == 0 {
		// Static list structure is identical across ranks — record once.
		lists.RecordMetrics(o)
	}
	il := lists.Born
	lo, hi := segment(len(qLeaves), P, rank)
	sp := o.Begin(rank, "phase", "born", c.Clock())
	accs := make([]*bornAccum, p)
	for i := range accs {
		accs[i] = newBornAccum(sys)
	}
	sched.ParallelFor(pool, hi-lo, rowGrain(hi-lo, p), func(l, h, w int) {
		for i := l; i < h; i++ {
			before := accs[w].ops
			bornRow(sys, il, lo+i, accs[w])
			if d := accs[w].ops - before; d > accs[w].maxTask {
				accs[w].maxTask = d
			}
		}
	})
	merged := accs[0]
	for _, a := range accs[1:] {
		merged.add(a)
	}
	c.ChargeOps(modelPhaseOps(merged.ops, maxOps(accs), merged.maxTask, p))
	out.ops += merged.ops
	sp.End(c.Clock(), obs.F("rows", float64(hi-lo)), obs.F("ops", merged.ops))
	o.Counter("kernel.born.batches").Add(int64(hi - lo))

	// The reduced vector carries the full receiver expansion (node/atom
	// scalars plus grad/hess under FarOrder > 0 — see bornAccum.vecLen);
	// each rank then pushes globally-summed corrections to its atoms.
	sum, err := c.Allreduce(merged.appendVec(make([]float64, 0, merged.vecLen())), cluster.Sum)
	if err != nil {
		return nil, err
	}
	merged.readVec(sum)

	aLo, aHi := segment(nAtoms, P, rank)
	sp = o.Begin(rank, "phase", "push", c.Clock())
	slotRadii := make([]float64, nAtoms)
	pushOps := PushIntegralsToAtoms(sys, merged, aLo, aHi, slotRadii)
	c.ChargeOps(pushOps / float64(p))
	out.ops += pushOps
	sp.End(c.Clock(), obs.F("ops", pushOps))

	counts := make([]int, P)
	for r := 0; r < P; r++ {
		l, h := segment(nAtoms, P, r)
		counts[r] = h - l
	}
	gathered, err := c.Allgatherv(slotRadii[aLo:aHi], counts)
	if err != nil {
		return nil, err
	}
	copy(slotRadii, gathered)
	return slotRadii, nil
}

// dynEpol is the per-rank state of the stealing protocol.
type dynEpol struct {
	sys   *System
	c     *Comm
	pool  *sched.Pool
	ctx   *EpolContext
	il    *InteractionLists // compiled E_pol lists; row i is leaves[i]
	scr   []epolScratch     // per-worker gather-then-stream scratch
	st    *DynStats
	out   *rankOut
	eaccs []epolAccum

	leaves      []int32
	front, back int // remaining locally-owned range
	batch       int
	chargedOps  float64
	chargedSecs float64
	leavesDone  int
	doneCount   int // rank 0 only: done reports received (excl. self)
}

// dynRank follows distRank through step 5, then runs the stealing
// protocol for the energy phase.
func dynRank(sys *System, c *Comm, out *rankOut, st *DynStats) error {
	P, rank := c.Size(), c.Rank()
	pool := sched.NewPool(c.Threads())
	defer pool.Close()
	c.TrackMemory(sys.MemoryBytes())

	slotRadii, err := bornPhase(sys, c, pool, out)
	if err != nil {
		return err
	}

	d := &dynEpol{
		sys: sys, c: c, pool: pool, st: st, out: out,
		ctx:    NewEpolContext(sys, slotRadii),
		il:     sys.Lists(pool).Epol,
		eaccs:  make([]epolAccum, pool.NumWorkers()),
		leaves: sys.Atoms.Leaves(),
	}
	d.scr = newEpolScratch(d.ctx, d.il, pool.NumWorkers())
	d.front, d.back = segment(len(d.leaves), P, rank)
	d.batch = (d.back - d.front) / 64
	if d.batch < 1 {
		d.batch = 1
	}

	// Phase A: drain the local range, answering thieves between batches.
	// Pace() keeps the real execution order aligned with the virtual
	// clocks so steal availability matches the modeled machine.
	o := c.Obs()
	sp := o.Begin(rank, "phase", "epol", c.Clock())
	for d.front < d.back {
		c.Pace()
		h := d.front + d.batch
		if h > d.back {
			h = d.back
		}
		d.processRange(d.front, h)
		d.front = h
		if err := d.answerPendingRequests(true); err != nil {
			return err
		}
	}

	// Phase B: steal until termination.
	if P > 1 {
		if err := d.stealLoop(); err != nil {
			return err
		}
	}
	sp.End(c.Clock(), obs.F("rows", float64(d.leavesDone)))
	recordEpolSweep(o, d.leavesDone, d.eaccs)
	o.Counter("dyn.steals").Add(int64(st.Steals))
	o.Counter("dyn.leaves_migrated").Add(int64(st.LeavesMigrated))
	o.Counter("sched.steals").Add(pool.Steals())
	return d.finish(slotRadii)
}

// processRange evaluates leaves [l,h) on the rank's pool and charges the
// batch's modeled time (work/p; batches are small, so the span term is
// folded into the batch granularity).
func (d *dynEpol) processRange(l, h int) {
	sched.ParallelFor(d.pool, h-l, 1, func(pl, ph, w int) {
		for i := pl; i < ph; i++ {
			epolRow(d.ctx, d.il, l+i, &d.scr[w], &d.eaccs[w])
		}
	})
	var tot float64
	for i := range d.eaccs {
		tot += d.eaccs[i].ops
	}
	delta := (tot - d.chargedOps) / float64(d.pool.NumWorkers())
	d.c.ChargeOps(delta)
	d.chargedOps = tot
	d.chargedSecs += delta / d.c.OpsPerSecond()
	d.leavesDone += h - l
}

// answerPendingRequests serves queued steal requests. When giveWork is
// true and enough local range remains, the thief receives the back half;
// otherwise an empty reply.
func (d *dynEpol) answerPendingRequests(giveWork bool) error {
	for {
		req, err := d.c.RecvMsg(cluster.AnySource, tagStealReq, false)
		if err != nil {
			return err
		}
		if req == nil {
			return nil
		}
		if err := d.reply(req, giveWork); err != nil {
			return err
		}
	}
}

// perLeaf returns this rank's measured per-leaf cost in seconds (0 when
// nothing has been processed yet).
func (d *dynEpol) perLeaf() float64 {
	if d.leavesDone == 0 {
		return 0
	}
	return d.chargedSecs / float64(d.leavesDone)
}

// reply answers one steal request. Replies are stamped at the request's
// virtual arrival time (see cluster.ReplyStamped) so the thief's clock
// reflects the modeled machine, not this process's goroutine schedule.
//
// The grant is a BALANCING split, not blind steal-half: using the
// victim's measured per-leaf cost and the thief's advertised one, the
// victim hands over exactly the amount that equalizes the two projected
// completion times. A thief whose virtual clock (or modeled node speed)
// means it could not finish anything sooner than the victim gets an
// empty reply — otherwise whichever goroutine the host happened to
// schedule first would vacuum up work regardless of the modeled machine.
func (d *dynEpol) reply(req *cluster.Message, giveWork bool) error {
	remaining := d.back - d.front
	if give := d.balancedGive(req, remaining); giveWork && give > 0 {
		nlo, nhi := d.back-give, d.back
		d.back = nlo
		return d.c.ReplyStamped(req, tagStealRep, []float64{float64(nlo), float64(nhi)})
	}
	return d.c.ReplyStamped(req, tagStealRep, nil)
}

// balancedGive solves victimClock + victimPer·(rem−g) = thiefClock +
// thiefPer·g for g, clamps it to keep at least one batch locally, and
// returns 0 when the thief would not help (or no estimate exists yet).
func (d *dynEpol) balancedGive(req *cluster.Message, remaining int) int {
	victimPer := d.perLeaf()
	if victimPer == 0 || remaining <= d.batch {
		return 0
	}
	thiefPer := victimPer
	if len(req.Data) == 1 && req.Data[0] > 0 {
		thiefPer = req.Data[0]
	}
	g := (d.c.Clock() - req.SentAt + victimPer*float64(remaining)) / (victimPer + thiefPer)
	give := int(g)
	// Cap each grant: per-leaf costs vary spatially, so large grants
	// priced off historical averages can overload the thief past the
	// victim's own finish time. Bounded grants limit that error; an idle
	// thief simply steals again (round trips are microseconds on the
	// virtual clock).
	if cap := max(2*d.batch, remaining/4); give > cap {
		give = cap
	}
	if give > remaining-d.batch {
		give = remaining - d.batch
	}
	if give < d.batch {
		return 0 // not worth a message round trip
	}
	return give
}

// stealLoop runs until rank 0 broadcasts termination. Victims are
// visited round-robin (randomized start) so the one overloaded rank is
// found within P−1 attempts even on wide communicators; the failure
// budget spans several full cycles because a busy victim may refuse
// early requests that it would grant later (its queued work becomes
// visible as the virtual clocks advance).
func (d *dynEpol) stealLoop() error {
	c := d.c
	P, rank := c.Size(), c.Rank()
	rng := rand.New(rand.NewSource(int64(rank)*7919 + 13))
	next := rng.Intn(P)
	failures := 0
	for {
		next++
		victim := next % P
		if victim == rank {
			continue
		}
		// Advertise our per-leaf cost so the victim can judge whether we
		// would actually finish the stolen work sooner (a slow rank must
		// not steal back work it would only delay).
		if err := c.Send(victim, tagStealReq, []float64{d.perLeaf()}); err != nil {
			return err
		}
		work, terminated, err := d.awaitReply(victim)
		if err != nil {
			return err
		}
		if terminated {
			return nil
		}
		if len(work) == 2 {
			failures = 0
			d.st.Steals++
			wlo, whi := int(work[0]), int(work[1])
			d.st.LeavesMigrated += whi - wlo
			// Adopt the stolen range as the new local range so further
			// thieves can re-steal from it.
			d.front, d.back = wlo, whi
			for d.front < d.back {
				d.c.Pace()
				h := d.front + d.batch
				if h > d.back {
					h = d.back
				}
				d.processRange(d.front, h)
				d.front = h
				if err := d.answerPendingRequests(true); err != nil {
					return err
				}
			}
			continue
		}
		d.st.FailedSteals++
		failures++
		if failures >= 4*(P-1) {
			return d.idleUntilFinish()
		}
	}
}

// awaitReply blocks for the victim's reply while serving other thieves
// and (on rank 0) counting done reports. terminated is true if the run
// finished while waiting (possible only on rank 0, defensively handled
// everywhere).
func (d *dynEpol) awaitReply(victim int) (work []float64, terminated bool, err error) {
	c := d.c
	for {
		msg, err := c.RecvMsg(cluster.AnySource, cluster.AnyTag, true)
		if err != nil {
			return nil, false, err
		}
		switch msg.Tag {
		case tagStealRep:
			if msg.Src != victim {
				return nil, false, fmt.Errorf("core: reply from %d while waiting on %d", msg.Src, victim)
			}
			return msg.Data, false, nil
		case tagStealReq:
			// We are idle ourselves: nothing to give.
			if err := c.ReplyStamped(msg, tagStealRep, nil); err != nil {
				return nil, false, err
			}
		case tagDone:
			if c.Rank() != 0 {
				return nil, false, fmt.Errorf("core: rank %d received tagDone", c.Rank())
			}
			d.doneCount++
		case tagFinish:
			return nil, true, nil
		default:
			return nil, false, fmt.Errorf("core: unexpected tag %d while awaiting reply", msg.Tag)
		}
	}
}

// idleUntilFinish reports this rank done and serves empty replies until
// rank 0 broadcasts termination. Rank 0 additionally counts done reports
// and performs the broadcast.
func (d *dynEpol) idleUntilFinish() error {
	c := d.c
	P, rank := c.Size(), c.Rank()
	if rank != 0 {
		if err := c.Send(0, tagDone, nil); err != nil {
			return err
		}
		for {
			msg, err := c.RecvMsg(cluster.AnySource, cluster.AnyTag, true)
			if err != nil {
				return err
			}
			switch msg.Tag {
			case tagStealReq:
				if err := c.ReplyStamped(msg, tagStealRep, nil); err != nil {
					return err
				}
			case tagFinish:
				return nil
			case tagStealRep:
				// A straggler reply from a request answered after we went
				// idle cannot happen: every request got exactly one reply,
				// consumed in awaitReply. Defensively ignore.
			default:
				return fmt.Errorf("core: rank %d unexpected tag %d while idle", rank, msg.Tag)
			}
		}
	}
	// Rank 0: wait for everyone (some done reports may already be
	// counted from awaitReply).
	for d.doneCount < P-1 {
		msg, err := c.RecvMsg(cluster.AnySource, cluster.AnyTag, true)
		if err != nil {
			return err
		}
		switch msg.Tag {
		case tagDone:
			d.doneCount++
		case tagStealReq:
			if err := c.ReplyStamped(msg, tagStealRep, nil); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: rank 0 unexpected tag %d while draining", msg.Tag)
		}
	}
	for r := 1; r < P; r++ {
		if err := c.Send(r, tagFinish, nil); err != nil {
			return err
		}
	}
	return nil
}

// finish reduces the partial energies (every rank participates).
func (d *dynEpol) finish(slotRadii []float64) error {
	var raw float64
	for i := range d.eaccs {
		raw += d.eaccs[i].energy
		d.out.ops += d.eaccs[i].ops
	}
	total, err := d.c.Allreduce([]float64{raw}, cluster.Sum)
	if err != nil {
		return err
	}
	d.out.epol = d.ctx.Finish(total[0])
	d.out.radii = slotRadii
	return nil
}
