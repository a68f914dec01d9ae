package core

import (
	"fmt"
	"math/rand"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
)

// This file implements the paper's Section VI future work: "we are
// planning to incorporate explicit dynamic load balancing techniques such
// as work-stealing" ACROSS compute nodes (the cilk++ scheduler already
// steals inside a node). The energy phase — the dominant and least
// balanced phase — runs under a peer-to-peer range-stealing protocol on
// top of the cluster substrate's point-to-point messages:
//
//   - every rank starts with its static part of the energy phase's units
//     (compiled E_pol tiles, cut at equal cost, or atom leaves);
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
// The protocol exchanges only unit-range indices: stolen work is
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
// division (it is cheap and well balanced after far-field pruning). The
// stealing protocol is not self-healing — a fault-typed failure (dead
// peer mid-steal, dead link, stall) degrades to the shared runner instead
// of failing the computation.
func RunDistributedDynamic(sys *System, cfg cluster.Config) (*Result, *DynStats, error) {
	res, err := runCluster(sys, cfg, phaseKernel{}, true)
	if err != nil {
		return nil, nil, err
	}
	return res, res.Stealing, nil
}

// dynEpol is the per-rank state of the stealing protocol.
type dynEpol struct {
	pl    *pipeline
	c     *cluster.Comm
	units rowUnits          // the energy phase's units: compiled tiles, or rows
	row   func(unit, w int) // the energy phase's kernel of one unit

	front, back int // remaining locally-owned range, in units
	batch       int
	chargedSecs float64
	unitsDone   int
	leavesDone  int
	doneCount   int // rank 0 only: done reports received (excl. self)
}

// stealEpol is the stealing E_pol schedule of the rank body: the rank
// starts from its static part of the phase's units and runs the protocol to
// termination inside one epol span. Asked again — to heal a death the
// final reduction detected — it reports the death instead: rows migrate
// between ranks, so the static re-division cannot tell what was lost.
func (pl *pipeline) stealEpol() func([]cluster.MemberEvent) error {
	started := false
	return func([]cluster.MemberEvent) error {
		if started {
			return fmt.Errorf("core: work stealing cannot re-divide after a death: %w", cluster.ErrRankDead)
		}
		started = true
		d := &dynEpol{pl: pl, c: pl.c.(*cluster.Comm), units: pl.epolUnits()}
		own := d.units.static(pl.P, pl.rank)
		d.front, d.back = own.Lo, own.Hi
		d.batch = max((d.back-d.front)/64, 1)

		sp := pl.o.Begin(pl.rank, "phase", "epol", pl.clock())
		d.row = pl.epolKernel()
		if err := d.drain(); err != nil {
			return err
		}
		if pl.P > 1 {
			if err := d.stealLoop(); err != nil {
				return err
			}
		}
		sp.End(pl.clock(), obs.F("rows", float64(d.leavesDone)))
		pl.epolRows += d.leavesDone
		pl.o.Counter("dyn.steals").Add(int64(d.pl.steal.Steals))
		pl.o.Counter("dyn.leaves_migrated").Add(int64(d.pl.steal.LeavesMigrated))
		return nil
	}
}

// drain evaluates the local range [front, back) batch by batch, answering
// thieves between batches. Pace() keeps the real execution order aligned
// with the virtual clocks so steal availability matches the modeled
// machine.
func (d *dynEpol) drain() error {
	for d.front < d.back {
		d.c.Pace()
		h := min(d.front+d.batch, d.back)
		ops, charged := d.pl.sweep([]Span{{d.front, h}}, 1, d.pl.epolMeter, d.row)
		d.pl.out.ops += ops
		d.chargedSecs += charged / d.c.OpsPerSecond()
		d.unitsDone += h - d.front
		d.leavesDone += d.units.rows(Span{d.front, h})
		d.front = h
		if err := d.answerPendingRequests(); err != nil {
			return err
		}
	}
	return nil
}

// answerPendingRequests serves the queued steal requests (see reply).
func (d *dynEpol) answerPendingRequests() error {
	for {
		req, err := d.c.RecvMsg(cluster.AnySource, tagStealReq, false)
		if err != nil {
			return err
		}
		if req == nil {
			return nil
		}
		if err := d.reply(req); err != nil {
			return err
		}
	}
}

// perUnit returns this rank's measured per-unit cost in seconds (0 when
// nothing has been processed yet).
func (d *dynEpol) perUnit() float64 {
	if d.unitsDone == 0 {
		return 0
	}
	return d.chargedSecs / float64(d.unitsDone)
}

// reply answers one steal request. Replies are stamped at the request's
// virtual arrival time (see cluster.ReplyStamped) so the thief's clock
// reflects the modeled machine, not this process's goroutine schedule.
//
// The grant is a BALANCING split, not blind steal-half: using the
// victim's measured per-unit cost and the thief's advertised one, the
// victim hands over exactly the amount that equalizes the two projected
// completion times. A thief whose virtual clock (or modeled node speed)
// means it could not finish anything sooner than the victim gets an
// empty reply — otherwise whichever goroutine the host happened to
// schedule first would vacuum up work regardless of the modeled machine.
func (d *dynEpol) reply(req *cluster.Message) error {
	if give := d.balancedGive(req, d.back-d.front); give > 0 {
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
	victimPer := d.perUnit()
	if victimPer == 0 || remaining <= d.batch {
		return 0
	}
	thiefPer := victimPer
	if len(req.Data) == 1 && req.Data[0] > 0 {
		thiefPer = req.Data[0]
	}
	g := (d.c.Clock() - req.SentAt + victimPer*float64(remaining)) / (victimPer + thiefPer)
	give := int(g)
	// Cap each grant: per-unit costs vary spatially, so large grants
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
		// Advertise our per-unit cost so the victim can judge whether we
		// would actually finish the stolen work sooner (a slow rank must
		// not steal back work it would only delay).
		if err := c.Send(victim, tagStealReq, []float64{d.perUnit()}); err != nil {
			return err
		}
		msg, err := d.serve(func(m *cluster.Message) bool { return m.Tag == tagStealRep || m.Tag == tagFinish })
		if err != nil {
			return err
		}
		if msg.Tag == tagFinish {
			// The run finished while we waited (possible only on rank 0,
			// defensively handled everywhere).
			return nil
		}
		if msg.Src != victim {
			return fmt.Errorf("core: reply from %d while waiting on %d", msg.Src, victim)
		}
		work := msg.Data
		if len(work) == 2 {
			failures = 0
			d.pl.steal.Steals++
			wlo, whi := int(work[0]), int(work[1])
			d.pl.steal.LeavesMigrated += d.units.rows(Span{wlo, whi})
			// Adopt the stolen range as the new local range so further
			// thieves can re-steal from it.
			d.front, d.back = wlo, whi
			if err := d.drain(); err != nil {
				return err
			}
			continue
		}
		d.pl.steal.FailedSteals++
		failures++
		if failures >= 4*(P-1) {
			return d.idleUntilFinish()
		}
	}
}

// serve blocks for protocol messages until want accepts one, meanwhile
// doing what an idle rank owes its peers: other thieves get an empty reply
// (we have nothing to give, and answering keeps thief/thief cycles from
// deadlocking) and, on rank 0, done reports are counted.
func (d *dynEpol) serve(want func(msg *cluster.Message) bool) (*cluster.Message, error) {
	for {
		msg, err := d.c.RecvMsg(cluster.AnySource, cluster.AnyTag, true)
		if err != nil {
			return nil, err
		}
		switch {
		case msg.Tag == tagStealReq:
			if err := d.c.ReplyStamped(msg, tagStealRep, nil); err != nil {
				return nil, err
			}
		case msg.Tag == tagDone && d.c.Rank() == 0:
			d.doneCount++
		case msg.Tag != tagStealRep && msg.Tag != tagFinish:
			return nil, fmt.Errorf("core: rank %d: unexpected tag %d from rank %d", d.c.Rank(), msg.Tag, msg.Src)
		}
		if want(msg) {
			return msg, nil
		}
	}
}

// idleUntilFinish reports this rank done and serves empty replies until
// rank 0 broadcasts termination. Rank 0 instead waits for everyone's done
// report (some may already be counted) and performs the broadcast.
func (d *dynEpol) idleUntilFinish() error {
	c := d.c
	if c.Rank() != 0 {
		if err := c.Send(0, tagDone, nil); err != nil {
			return err
		}
		_, err := d.serve(func(m *cluster.Message) bool { return m.Tag == tagFinish })
		return err
	}
	if d.doneCount < c.Size()-1 {
		if _, err := d.serve(func(*cluster.Message) bool { return d.doneCount == c.Size()-1 }); err != nil {
			return err
		}
	}
	for r := 1; r < c.Size(); r++ {
		if err := c.Send(r, tagFinish, nil); err != nil {
			return err
		}
	}
	return nil
}
