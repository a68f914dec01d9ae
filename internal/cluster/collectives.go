package cluster

import (
	"fmt"
	"math"
	"time"

	"gbpolar/internal/obs"
)

// Op is a reduction operator.
type Op int

const (
	// Sum adds element-wise.
	Sum Op = iota
	// Min takes the element-wise minimum.
	Min
	// Max takes the element-wise maximum.
	Max
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// rendezvous runs one collective round: every live rank deposits its
// contribution, the arrival that completes the round combines them (in
// rank order, so floating-point results are deterministic), the
// completion time max(entry clocks)+cost is applied to every rank, and
// the combined result is handed back.
//
// Liveness: a round completes only when every LIVE rank has deposited
// AND no death happened after any deposit (the stale-deposit guard). A
// death therefore fails the in-progress round for everyone: waiting
// depositors withdraw and return *RankDeadError, late arrivals observe
// the death before depositing — so a successful collective doubles as a
// consensus on the dead set, which the recovery protocol relies on. With
// Config.StallTimeout set, a rank that waits longer than that in real
// time withdraws with ErrTimeout instead of hanging. words sizes the
// detection latency charged when a death fails the round (detectCharge).
func (c *Comm) rendezvous(kind string, contrib []float64, words int,
	combine func(contribs [][]float64, present []bool) []float64,
	costFn func(result []float64) float64) (res []float64, err error) {
	w := c.w
	c.enterCollective()
	entry := c.clock

	// Wait/transfer split of the collective's virtual time, for the
	// analyzer's blocked-vs-computing attribution: waitSecs is the time
	// this rank idled in the rendezvous for the last arrival (zero for
	// the rank that completes the round — the straggler), xferSecs the
	// cost-model charge for the data movement itself.
	var waitSecs, xferSecs float64
	if o := w.cfg.Obs; o != nil {
		// The span closes at the rank's post-collective clock; the
		// deferred close runs after w.mu is released (defers are LIFO and
		// the unlock is registered later), so the trace lock stays a leaf.
		sp := o.Begin(c.rank, "collective", kind, entry)
		nbytes := int64(len(contrib)) * 8
		defer func() {
			if err != nil {
				sp.End(c.clock, obs.F("bytes", float64(nbytes)), obs.F("error", 1))
				return
			}
			sp.End(c.clock, obs.F("bytes", float64(nbytes)),
				obs.F("wait_us", waitSecs*1e6), obs.F("xfer_us", xferSecs*1e6))
			o.Counter("cluster.collectives").Inc()
			o.Counter("cluster.collective.bytes").Add(nbytes)
			o.Histogram("cluster.collective.virt_us").Observe(int64((c.clock - entry) * 1e6))
			o.Histogram("cluster.collective.wait_us").Observe(int64(waitSecs * 1e6))
		}()
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return nil, ErrAborted
	}
	if err := c.observeDeathsLocked(words); err != nil {
		return nil, err
	}
	if w.arrived == 0 || (w.kind != kind && !w.freshDepositLocked()) {
		// The second case: every deposit of the assembling round predates
		// the newest death, so its owners will withdraw and retry — and a
		// retry may be a different collective (core's step 5 gathers until
		// a death, then reduces). Start the round over instead of calling
		// that a mismatch; the late withdrawals find nothing to remove.
		w.kind = kind
		w.contribs = make([][]float64, len(w.ranks))
		w.present = make([]bool, len(w.ranks))
		w.depEpoch = make([]uint64, len(w.ranks))
		w.curMaxClock = entry
		w.arrived = 0
	} else if w.kind != kind {
		err := fmt.Errorf("cluster: collective mismatch: rank %d called %s while round is %s: %w",
			c.rank, kind, w.kind, ErrProtocol)
		w.aborted = true
		w.cond.Broadcast()
		return nil, err
	}
	if entry > w.curMaxClock {
		w.curMaxClock = entry
	}
	w.contribs[c.rank] = contrib
	w.present[c.rank] = true
	w.depEpoch[c.rank] = w.deadEpoch
	w.arrived++
	myGen := w.gen

	if w.roundCompleteLocked() {
		// Publish the completed round: a fast rank may immediately start
		// the next round and reset the in-progress fields, so slow ranks
		// read only the done* snapshot.
		w.result = combine(w.contribs, w.present)
		w.doneMaxClock = w.curMaxClock
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
	} else {
		stall := w.cfg.StallTimeout
		var deadline time.Time
		var timer *time.Timer
		if stall > 0 {
			deadline = time.Now().Add(stall)
			timer = armStall(w.cond, stall)
			defer stopStall(timer)
		}
		w.pacer.block(c.rank, c.clock)
		for w.gen == myGen && !w.aborted && c.seenEpoch == w.deadEpoch {
			if stall > 0 && time.Now().After(deadline) {
				w.withdrawLocked(c.rank)
				w.pacer.resume(c.rank, c.clock)
				return nil, fmt.Errorf("cluster: rank %d: %s stalled %v: %w", c.rank, kind, stall, ErrTimeout)
			}
			w.cond.Wait()
		}
		w.pacer.resume(c.rank, c.clock)
		if w.gen == myGen {
			// The round did not complete: we left the wait because of an
			// abort or a death. Withdraw so the retry round reassembles
			// from scratch.
			if w.aborted {
				return nil, ErrAborted
			}
			w.withdrawLocked(c.rank)
			return nil, c.observeDeathsLocked(words)
		}
	}
	done := w.doneMaxClock + costFn(w.result)
	waitSecs = w.doneMaxClock - entry
	xferSecs = done - w.doneMaxClock
	c.commSecs += done - entry
	c.clock = done
	c.bytesSent += int64(len(contrib)) * 8
	return w.result, nil
}

// roundCompleteLocked reports whether the assembling round can complete:
// every live rank has a deposit and no deposit predates the newest
// death. w.mu must be held.
func (w *world) roundCompleteLocked() bool {
	if w.arrived != w.liveCountLocked() {
		return false
	}
	for r := range w.present {
		if w.present[r] && w.depEpoch[r] != w.deadEpoch {
			return false
		}
	}
	return true
}

// freshDepositLocked reports whether any deposit of the assembling round
// was made after the newest death. w.mu must be held.
func (w *world) freshDepositLocked() bool {
	for r := range w.present {
		if w.present[r] && w.depEpoch[r] == w.deadEpoch {
			return true
		}
	}
	return false
}

// withdrawLocked removes rank r's deposit from the assembling round.
// w.mu must be held.
func (w *world) withdrawLocked(r int) {
	if w.present[r] {
		w.present[r] = false
		w.contribs[r] = nil
		w.arrived--
	}
}

func log2ceil(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// treeCost is the (t_s + t_w·m)·⌈log₂P⌉ cost of tree-structured
// collectives (Bcast, Reduce, Allreduce) from the Grama et al. tables the
// paper cites.
func (w *world) treeCost(words int) float64 {
	t := w.tier
	return log2ceil(len(w.ranks)) * (t.Latency.Seconds() + t.SecPerWord*float64(words))
}

// gatherCost is t_s·⌈log₂P⌉ + t_w·m·(P−1): the Allgather cost the paper
// quotes for its Steps 3 & 5 (Section IV.C).
func (w *world) gatherCost(wordsPerRank int) float64 {
	t := w.tier
	p := len(w.ranks)
	return log2ceil(p)*t.Latency.Seconds() + t.SecPerWord*float64(wordsPerRank)*float64(p-1)
}

// Barrier blocks until every live rank arrives.
func (c *Comm) Barrier() error {
	_, err := c.rendezvous("barrier", nil, 0,
		func([][]float64, []bool) []float64 { return nil },
		func([]float64) float64 { return c.w.treeCost(0) })
	return err
}

// Allreduce combines data element-wise across ranks with op and returns
// the combined vector to every rank. All live ranks must pass equal
// lengths; dead ranks simply contribute nothing, and so does an empty Sum
// deposit, whose rank receives nil.
func (c *Comm) Allreduce(data []float64, op Op) ([]float64, error) {
	none := op == Sum && len(data) == 0
	res, err := c.rendezvous("allreduce", data, len(data), func(contribs [][]float64, present []bool) []float64 {
		var out []float64
		first := true
		for r := range contribs {
			if !present[r] || op == Sum && len(contribs[r]) == 0 {
				continue
			}
			if first {
				out = append([]float64(nil), contribs[r]...)
				first = false
				continue
			}
			if len(contribs[r]) != len(out) {
				panic(fmt.Sprintf("cluster: allreduce length mismatch: %d vs rank %d's %d",
					len(out), r, len(contribs[r])))
			}
			op.apply(out, contribs[r])
		}
		return out
	}, func(res []float64) float64 { return c.w.treeCost(len(res)) })
	if err != nil || none {
		return nil, err
	}
	// Each rank gets its own copy so callers can mutate freely.
	return append([]float64(nil), res...), nil
}

// Reduce combines data across ranks with op; only root receives the
// result (others get nil). A dead root yields ErrRankDead.
func (c *Comm) Reduce(root int, data []float64, op Op) ([]float64, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("cluster: reduce root %d: %w", root, ErrInvalidRank)
	}
	if err := c.requireAlive(root); err != nil {
		return nil, err
	}
	res, err := c.rendezvous("reduce", data, len(data), func(contribs [][]float64, present []bool) []float64 {
		var out []float64
		first := true
		for r := range contribs {
			if !present[r] {
				continue
			}
			if first {
				out = append([]float64(nil), contribs[r]...)
				first = false
				continue
			}
			op.apply(out, contribs[r])
		}
		return out
	}, func(res []float64) float64 { return c.w.treeCost(len(res)) })
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return append([]float64(nil), res...), nil
}

// Bcast distributes root's data to every rank (returned; the argument is
// only read on root). A dead root yields ErrRankDead.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("cluster: bcast root %d: %w", root, ErrInvalidRank)
	}
	if err := c.requireAlive(root); err != nil {
		return nil, err
	}
	var contrib []float64
	if c.rank == root {
		contrib = data
	}
	res, err := c.rendezvous("bcast", contrib, len(contrib), func(contribs [][]float64, present []bool) []float64 {
		return contribs[root]
	}, func(res []float64) float64 { return c.w.treeCost(len(res)) })
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), res...), nil
}

// Allgatherv concatenates every rank's contribution in rank order and
// returns the whole vector to every rank. counts[r] must equal the
// length rank r contributes; a dead rank with a nonzero count yields
// ErrRankDead (its segment cannot be gathered — re-divide and use
// Allreduce-style recovery instead).
func (c *Comm) Allgatherv(contrib []float64, counts []int) ([]float64, error) {
	if len(counts) != c.Size() {
		return nil, fmt.Errorf("cluster: allgatherv needs %d counts, got %d: %w",
			c.Size(), len(counts), ErrProtocol)
	}
	if len(contrib) != counts[c.rank] {
		return nil, fmt.Errorf("cluster: rank %d contributes %d values, counts says %d: %w",
			c.rank, len(contrib), counts[c.rank], ErrProtocol)
	}
	for r, n := range counts {
		if n > 0 {
			if err := c.requireAlive(r); err != nil {
				return nil, err
			}
		}
	}
	// A gather waits on every rank's segment, so a death is detected on
	// the latency of the gathered total — the same charge whether a
	// survivor meets the death here or in the full-vector reduce that
	// replaces a gather once ranks are missing.
	maxCount, total := 0, 0
	for _, n := range counts {
		maxCount = max(maxCount, n)
		total += n
	}
	res, err := c.rendezvous("allgatherv", contrib, total, func(contribs [][]float64, present []bool) []float64 {
		var out []float64
		for r, part := range contribs {
			if !present[r] {
				continue
			}
			if len(part) != counts[r] {
				panic(fmt.Sprintf("cluster: allgatherv count mismatch at rank %d", r))
			}
			out = append(out, part...)
		}
		return out
	}, func([]float64) float64 { return c.w.gatherCost(maxCount) })
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), res...), nil
}

// requireAlive returns a *RankDeadError when rank r is dead. Unlike the
// epoch observation this does not consume the death notification — it
// guards collectives that structurally cannot proceed without r.
func (c *Comm) requireAlive(r int) error {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead[r] {
		return &RankDeadError{Dead: append([]int(nil), w.deadOrder...)}
	}
	return nil
}
