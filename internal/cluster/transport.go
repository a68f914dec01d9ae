package cluster

import "gbpolar/internal/obs"

// Transport is the communication surface the SPMD rank bodies program
// against. Two implementations exist:
//
//   - *Comm, the in-process modeled transport of this package: ranks are
//     goroutines, communication is metered by the virtual-clock cost
//     model, and faults are injected deterministically from a FaultPlan.
//     It remains the reference simulator and drives the paper's figures
//     (gbbench).
//   - *net.Comm (internal/cluster/net), a real TCP transport: ranks are
//     OS processes exchanging length-prefixed frames through a
//     coordinator, deaths are real connection losses or heartbeat
//     timeouts, and membership is elastic (ranks can rejoin mid-run).
//
// Both return errors wrapping the same typed sentinels (ErrRankDead,
// ErrTimeout, ErrAborted, ...), checkable with errors.Is, so recovery
// protocols written against Transport behave identically over goroutines
// and over sockets.
type Transport interface {
	// Rank returns this rank's index in [0, Size).
	Rank() int
	// Size returns the number of ranks (P).
	Size() int
	// Threads returns the configured threads per rank (p).
	Threads() int
	// Clock returns the rank's current time in seconds: virtual on the
	// modeled transport, wall-since-start on the real one.
	Clock() float64
	// OpsPerSecond returns the calibrated kernel rate used to convert
	// operation counts into (modeled) seconds.
	OpsPerSecond() float64
	// Obs returns the run's observer; nil when observability is off.
	Obs() *obs.Obs
	// ChargeCompute accounts seconds of single-stream compute.
	ChargeCompute(seconds float64)
	// ChargeOps accounts ops kernel evaluations at OpsPerSecond.
	ChargeOps(ops float64)
	// TrackMemory records bytes of resident per-rank data.
	TrackMemory(bytes int64)
	// NoteRecovery meters rows of re-divided work recomputed after a
	// death and the seconds charged doing so.
	NoteRecovery(rows int, seconds float64)

	// Send delivers data to rank dst with the given tag.
	Send(dst, tag int, data []float64) error
	// Recv blocks for a message from src (or AnySource) with the given
	// tag (or AnyTag), returning payload and actual source.
	Recv(src, tag int) ([]float64, int, error)

	// Barrier blocks until every live rank arrives.
	Barrier() error
	// Bcast distributes root's data to every rank.
	Bcast(root int, data []float64) ([]float64, error)
	// Reduce combines data across ranks; only root receives the result.
	Reduce(root int, data []float64, op Op) ([]float64, error)
	// Allreduce combines data element-wise and returns it to every rank.
	// An empty Sum deposit is no contribution, and its rank receives nil:
	// a rank with no share of a reduction neither sends nor gets a vector.
	Allreduce(data []float64, op Op) ([]float64, error)
	// Allgatherv concatenates contributions in rank order.
	Allgatherv(contrib []float64, counts []int) ([]float64, error)

	// DeadRanks returns the ordered death list observed so far.
	DeadRanks() []int
	// MemberEvents returns the ordered membership-change log agreed so
	// far: deaths, interleaved (on elastic transports) with rejoins.
	// Every rank that completes the same collective observes the same
	// prefix, so the log is a consensus object the recovery protocol can
	// re-divide work from deterministically.
	MemberEvents() []MemberEvent
}

var _ Transport = (*Comm)(nil)

// MemberEvent is one entry of the membership event log: a death
// (Join=false) or an elastic (re)join (Join=true) of the given rank.
// The modeled in-process transport only ever emits deaths.
type MemberEvent struct {
	Rank int
	Join bool
}

// MemberEvents implements Transport: the in-process transport's log is
// its ordered dead list (no joins).
func (c *Comm) MemberEvents() []MemberEvent {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	evs := make([]MemberEvent, len(w.deadOrder))
	for i, d := range w.deadOrder {
		evs[i] = MemberEvent{Rank: d}
	}
	return evs
}

// DeadFromEvents replays a membership log and returns the ranks whose
// most recent event is a death, ordered by when they (last) died — the
// list RankDeadError carries and ElasticSpans-style protocols consume.
func DeadFromEvents(procs int, events []MemberEvent) []int {
	dead := make([]bool, procs)
	var order []int
	for _, ev := range events {
		if ev.Rank < 0 || ev.Rank >= procs {
			continue
		}
		if ev.Join {
			if dead[ev.Rank] {
				dead[ev.Rank] = false
				for i, d := range order {
					if d == ev.Rank {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		} else if !dead[ev.Rank] {
			dead[ev.Rank] = true
			order = append(order, ev.Rank)
		}
	}
	return order
}

// LiveCountFromEvents returns how many of procs ranks are alive after
// replaying the membership log.
func LiveCountFromEvents(procs int, events []MemberEvent) int {
	return procs - len(DeadFromEvents(procs, events))
}
