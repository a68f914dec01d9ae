package net

import (
	"fmt"
	gonet "net"
	"sync"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/wire"
)

// Config configures a Coordinator.
type Config struct {
	// Size is the number of ranks (P), fixed for the run; elastic
	// membership re-admits crashed ranks but never grows past Size.
	Size int
	// ListenAddr is the coordinator's listen address; empty binds an
	// ephemeral loopback port (Addr reports the bound address).
	ListenAddr string
	// Threads is the worker thread count reported to ranks.
	Threads int
	// OpsPerSecond is the calibrated kernel rate reported to ranks.
	OpsPerSecond float64
	// StallTimeout is the round backstop: an assembling collective that
	// has not completed this long after its first deposit fails with
	// codeTimeout (no death is declared — the caller decides whether to
	// degrade). Worker deposits can tighten it per round. 0 defaults to
	// 2 minutes.
	StallTimeout time.Duration
	// HeartbeatInterval/HeartbeatTimeout drive liveness probing of up
	// members. A SIGKILLed worker is usually detected faster through the
	// closed socket; heartbeats catch hung-but-connected processes.
	// Defaults: 500ms / 10s (generous — CI runs everything on one CPU
	// under the race detector).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// JoinDeadline bounds how long the run waits for founding members to
	// connect; a rank that never shows is declared dead so the others can
	// proceed (or degrade). 0 defaults to 30s.
	JoinDeadline time.Duration
	// Obs, when non-nil, receives membership instants and counters.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * time.Minute
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.JoinDeadline <= 0 {
		c.JoinDeadline = 30 * time.Second
	}
	return c
}

type memberState int

const (
	// stExpected: a founding rank that has not connected yet. Blocks
	// round completion until it joins or the join deadline kills it.
	stExpected memberState = iota
	// stUp: connected and participating.
	stUp
	// stDead: declared dead (socket loss, heartbeat or join timeout).
	// May hold a pending rejoin connection awaiting admission.
	stDead
	// stLeft: sent mBye after finishing its rank body; excluded from
	// round completion without a death event.
	stLeft
)

type member struct {
	rank     int
	state    memberState
	fc       *frameConn // current connection (stUp)
	pending  *frameConn // rejoin connection awaiting admission (stDead)
	dep      *deposit   // in-flight contribution to the assembling round
	lastPong time.Time

	// Telemetry clock reconciliation: when the last heartbeat probe was
	// written (coordinator trace-clock µs) and the best — lowest-RTT —
	// estimate of the offset mapping this worker's trace clock onto the
	// coordinator's (offset = probe midpoint − worker clock in the pong).
	pingSentUS float64
	awaitPong  bool
	offsetUS   float64
	bestRTTUS  float64
	hasOffset  bool
}

// Coordinator is the rendezvous point of the TCP transport: it assembles
// collective rounds, serializes membership changes into the event log,
// relays point-to-point messages, and aggregates fault metering. The
// protocol invariant mirrored from the in-process transport: every
// deposit receives exactly one response (mRoundOK or mRoundFail), and a
// round completes only when every up member has deposited under the
// current event log — so a successful collective is a consensus on
// membership.
type Coordinator struct {
	cfg   Config
	ln    gonet.Listener
	start time.Time

	mu              sync.Mutex
	members         []*member
	events          []cluster.MemberEvent
	completedRounds int
	lastResult      []float64 // last completed Allreduce result (joiner seed)
	roundTimer      *time.Timer
	roundDeadline   time.Duration
	fstats          cluster.FaultReport
	closed          bool

	wg        sync.WaitGroup
	hbStop    chan struct{}
	joinTimer *time.Timer
	// left holds a token once an up rank leaves or dies (noteLeftLocked):
	// what Drain wakes on.
	left chan struct{}
}

// Start launches a coordinator listening for cfg.Size workers.
func Start(cfg Config) (*Coordinator, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("net: coordinator needs Size >= 1, got %d: %w", cfg.Size, cluster.ErrProtocol)
	}
	cfg = cfg.withDefaults()
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := gonet.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("net: coordinator listen: %w", err)
	}
	co := &Coordinator{cfg: cfg, ln: ln, start: time.Now(), hbStop: make(chan struct{}), left: make(chan struct{}, 1)}
	co.members = make([]*member, cfg.Size)
	for r := range co.members {
		co.members[r] = &member{rank: r}
	}
	co.joinTimer = time.AfterFunc(cfg.JoinDeadline, co.expireFoundingMembers)
	co.wg.Add(2)
	go co.acceptLoop()
	go co.heartbeatLoop()
	return co, nil
}

// Addr returns the bound listen address (host:port).
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Events returns a copy of the membership event log.
func (co *Coordinator) Events() []cluster.MemberEvent {
	co.mu.Lock()
	defer co.mu.Unlock()
	return append([]cluster.MemberEvent(nil), co.events...)
}

// PendingJoins reports how many rejoin connections are queued awaiting
// admission at the next successful collective.
func (co *Coordinator) PendingJoins() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, m := range co.members {
		if m.pending != nil {
			n++
		}
	}
	return n
}

// FaultReport returns a copy of the aggregated fault metering.
func (co *Coordinator) FaultReport() cluster.FaultReport {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.fstats
}

// NoteRespawnFailure meters a failed attempt to relaunch a dead worker
// into the aggregated fault report — the respawner could not bring the
// rank back, so the run continues permanently short-handed.
func (co *Coordinator) NoteRespawnFailure(rank int) {
	co.mu.Lock()
	co.fstats.RespawnFailures++
	co.mu.Unlock()
	if o := co.cfg.Obs; o != nil {
		o.Counter("net.respawn_failures").Inc()
		o.Instant(rank, "fault", "respawn failed", obs.NoVirtual)
	}
}

// ClusterState is a point-in-time membership summary — the health the
// /readyz endpoint reports.
type ClusterState struct {
	// Size is the configured rank count.
	Size int
	// Live/Left/Dead count members by state; Ready when Live+Left ==
	// Size (every founder joined, nobody currently dead).
	Live, Left, Dead int
	// Pending counts rejoin connections queued for the next boundary.
	Pending int
	// Rounds counts completed collectives.
	Rounds int
}

// Ready reports whether the cluster is fully assembled and healthy.
func (s ClusterState) Ready() bool { return s.Live+s.Left == s.Size }

// State returns the current membership summary.
func (co *Coordinator) State() ClusterState {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := ClusterState{Size: co.cfg.Size, Rounds: co.completedRounds}
	for _, m := range co.members {
		switch m.state {
		case stUp:
			st.Live++
		case stLeft:
			st.Left++
		case stDead:
			st.Dead++
		}
		if m.pending != nil {
			st.Pending++
		}
	}
	return st
}

// Drain waits until no rank is up — every worker has said goodbye or died
// — or timeout has passed.
func (co *Coordinator) Drain(timeout time.Duration) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for co.State().Live > 0 {
		select {
		case <-co.left:
		case <-timer.C:
			return
		}
	}
}

// noteLeftLocked wakes Drain: an up rank has left or died.
func (co *Coordinator) noteLeftLocked() {
	select {
	case co.left <- struct{}{}:
	default:
	}
}

// nowUS is the coordinator's telemetry clock: its own trace's wall axis
// when observing, so worker offsets map absorbed events straight onto
// the merged timeline's axis.
func (co *Coordinator) nowUS() float64 {
	if o := co.cfg.Obs; o != nil && o.Trace != nil {
		return o.Trace.NowUS()
	}
	return float64(time.Since(co.start)) / float64(time.Microsecond)
}

// Close shuts the coordinator down: stops timers, closes the listener
// and every worker connection (surviving workers observe ErrAborted),
// and waits for the service goroutines.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		co.wg.Wait()
		return
	}
	co.closed = true
	co.joinTimer.Stop()
	if co.roundTimer != nil {
		co.roundTimer.Stop()
	}
	conns := co.liveConnsLocked()
	co.mu.Unlock()
	close(co.hbStop)
	co.ln.Close()
	for _, fc := range conns {
		fc.close()
	}
	co.wg.Wait()
}

func (co *Coordinator) liveConnsLocked() []*frameConn {
	var conns []*frameConn
	for _, m := range co.members {
		if m.fc != nil {
			conns = append(conns, m.fc)
		}
		if m.pending != nil {
			conns = append(conns, m.pending)
		}
	}
	return conns
}

func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		conn, err := co.ln.Accept()
		if err != nil {
			return // listener closed
		}
		co.wg.Add(1)
		go co.handleConn(newFrameConn(conn))
	}
}

// handleConn authenticates one worker connection (hello) and then serves
// its frames until the socket dies.
func (co *Coordinator) handleConn(fc *frameConn) {
	defer co.wg.Done()
	fc.conn.SetReadDeadline(time.Now().Add(co.cfg.JoinDeadline))
	typ, body, err := fc.readFrame()
	if err != nil || typ != mHello {
		fc.close()
		return
	}
	fc.conn.SetReadDeadline(time.Time{})
	r := wire.NewReader(body)
	rank := int(r.I32())
	if r.Err() != nil || rank < 0 || rank >= co.cfg.Size {
		fc.close()
		return
	}

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		fc.close()
		return
	}
	m := co.members[rank]
	switch m.state {
	case stExpected:
		// Founding member: admitted immediately.
		m.state = stUp
		m.fc = fc
		m.lastPong = time.Now()
		co.sendWelcomeLocked(m, fc)
	case stUp:
		// A second connection for an up rank means the old process died
		// without the socket closing yet (or a worker restarted fast).
		// Declare the old incarnation dead, then queue the new one as a
		// rejoin.
		old := m.fc
		co.killLocked(m, "superseded connection")
		old.close()
		m.pending = fc
	case stDead:
		// Rejoin: queued until the next SUCCESSFUL collective. Admitting
		// any earlier — even while no round is assembling — would shrink
		// survivors' spans mid-phase after they already computed (and
		// will contribute) rows the joiner would recompute, double
		// counting them in the reduction. A successful collective is the
		// one point where every live rank's partial state is retired.
		if m.pending != nil {
			m.pending.close()
		}
		m.pending = fc
	case stLeft:
		co.mu.Unlock()
		fc.close()
		return
	}
	co.mu.Unlock()

	co.serve(m, fc)
}

// admitLocked turns a pending rejoin connection into an up member and
// appends its join event. The welcome is NOT sent here: the caller first
// admits every pending joiner of the boundary, then sends welcomes, so
// each welcome carries the complete boundary log (a joiner whose welcome
// missed a sibling join would start the next phase under a stale span
// division). Callers hold co.mu.
func (co *Coordinator) admitLocked(m *member) {
	m.state = stUp
	m.fc = m.pending
	m.pending = nil
	m.lastPong = time.Now()
	m.dep = nil
	co.events = append(co.events, cluster.MemberEvent{Rank: m.rank, Join: true})
	co.fstats.Rejoins++
	if o := co.cfg.Obs; o != nil {
		o.Counter("net.rejoins").Inc()
		o.Instant(m.rank, "membership", "rejoin", obs.NoVirtual,
			obs.F("round", float64(co.completedRounds)))
	}
}

// sendWelcomeLocked sends the admission frame: cluster shape, completed
// round count, the membership log, and the last Allreduce result as the
// mid-protocol seed.
func (co *Coordinator) sendWelcomeLocked(m *member, fc *frameConn) {
	var w wire.Writer
	w.I32(int32(co.cfg.Size))
	w.I32(int32(co.cfg.Threads))
	w.F64(co.cfg.OpsPerSecond)
	w.U32(uint32(co.completedRounds))
	appendEvents(&w, co.events)
	w.F64s(co.lastResult)
	if err := fc.writeFrame(mWelcome, w.Bytes()); err != nil {
		co.disconnectLocked(m, fc)
	}
}

// serve dispatches one connection's frames until it breaks.
func (co *Coordinator) serve(m *member, fc *frameConn) {
	for {
		typ, body, err := fc.readFrame()
		if err != nil {
			co.mu.Lock()
			co.disconnectLocked(m, fc)
			co.mu.Unlock()
			return
		}
		if o := co.cfg.Obs; o != nil {
			o.Counter("net.frames.recv").Inc()
			o.Histogram("net.frame.recv_bytes").Observe(int64(len(body)))
		}
		r := wire.NewReader(body)
		switch typ {
		case mPong:
			// The optional body is the worker's trace clock; RTT and the
			// midpoint offset estimate feed the merged-timeline clock
			// reconciliation (DESIGN.md §13).
			workerClock := r.F64()
			now := co.nowUS()
			co.mu.Lock()
			if m.fc == fc {
				m.lastPong = time.Now()
				if m.awaitPong {
					m.awaitPong = false
					rtt := now - m.pingSentUS
					if o := co.cfg.Obs; o != nil {
						o.Histogram("net.heartbeat.rtt_us").Observe(int64(rtt))
					}
					if r.Err() == nil && workerClock > 0 &&
						(!m.hasOffset || rtt <= m.bestRTTUS) {
						m.bestRTTUS = rtt
						m.offsetUS = m.pingSentUS + rtt/2 - workerClock
						m.hasOffset = true
					}
				}
			}
			co.mu.Unlock()
		case mTelemetry:
			o := co.cfg.Obs
			if o == nil {
				continue // plane disabled on the coordinator: drop
			}
			tl, terr := obs.DecodeTelemetry(body)
			if terr != nil {
				o.Counter("net.telemetry.decode_errors").Inc()
				continue
			}
			o.Counter("net.telemetry.frames").Inc()
			co.mu.Lock()
			var off float64
			if m.hasOffset {
				off = m.offsetUS
			}
			co.mu.Unlock()
			// Absorb outside co.mu: adopting events takes the trace
			// mutex, which must stay a leaf lock.
			o.Absorb(tl, m.rank, off)
		case mDeposit:
			dep, derr := decodeDeposit(r)
			co.mu.Lock()
			if m.fc != fc || m.state != stUp {
				co.mu.Unlock()
				continue // stale connection or not admitted: drop
			}
			if derr != nil {
				co.roundFailLocked(m, codeProtocol)
			} else {
				co.handleDepositLocked(m, dep)
			}
			co.mu.Unlock()
		case mRelay:
			seq := r.U64()
			dst := int(r.I32())
			tag := int(r.I32())
			data := r.F64s()
			co.mu.Lock()
			if r.Err() != nil {
				co.sendErrLocked(m, seq, codeProtocol)
			} else {
				co.handleRelayLocked(m, seq, dst, tag, data)
			}
			co.mu.Unlock()
		case mStats:
			rows := r.I64()
			secs := r.F64()
			co.mu.Lock()
			if r.Err() == nil {
				co.fstats.RecomputedRows += int(rows)
				co.fstats.RecoverySeconds += secs
			}
			co.mu.Unlock()
		case mBye:
			co.mu.Lock()
			if m.fc == fc && m.state == stUp {
				m.state = stLeft
				m.fc = nil
				m.dep = nil
				co.checkRoundLocked()
				co.noteLeftLocked()
			}
			co.mu.Unlock()
			fc.close()
			return
		default:
			// Unknown frame: tolerate (forward compatibility), but a
			// malformed known frame already failed above.
		}
	}
}

// disconnectLocked reacts to a broken connection: an up member's current
// socket dying is a death; a pending rejoin socket dying just clears the
// pending slot.
func (co *Coordinator) disconnectLocked(m *member, fc *frameConn) {
	fc.close()
	if m.fc == fc && m.state == stUp && !co.closed {
		co.killLocked(m, "connection lost")
	}
	if m.pending == fc {
		m.pending = nil
	}
}

// killLocked declares m dead: appends the death event, meters it, fails
// the assembling round for every outstanding depositor (their deposits
// predate the death — the stale-deposit guard), and closes the socket.
func (co *Coordinator) killLocked(m *member, reason string) {
	if m.state != stUp && m.state != stExpected {
		return
	}
	m.state = stDead
	co.noteLeftLocked()
	if m.fc != nil {
		m.fc.close()
		m.fc = nil
	}
	m.dep = nil
	co.events = append(co.events, cluster.MemberEvent{Rank: m.rank})
	co.fstats.Crashes++
	if o := co.cfg.Obs; o != nil {
		o.Counter("net.deaths").Inc()
		o.Instant(m.rank, "membership", "death: "+reason, obs.NoVirtual,
			obs.F("round", float64(co.completedRounds)))
		// Postmortem capture: a detected death dumps the flight ring —
		// the merged recent-event record including everything the victim
		// shipped before dying. Rare path, so the file IO under co.mu is
		// acceptable and keeps the dump ordered before round teardown.
		o.DumpFlight("death")
	}
	// Fail the round for everyone already deposited; late depositors are
	// caught by the seenEvents staleness check.
	for _, o := range co.members {
		if o.dep != nil {
			co.roundFailLocked(o, codeRankDead)
		}
	}
	co.stopRoundTimerLocked()
}

// handleDepositLocked runs the stale-deposit guard and files the
// contribution into the assembling round.
func (co *Coordinator) handleDepositLocked(m *member, dep *deposit) {
	if int(dep.seenEvents) > len(co.events) {
		co.roundFailDepositLocked(m, dep, codeProtocol)
		return
	}
	if int(dep.seenEvents) < len(co.events) {
		// Computed under a stale membership view: the depositor must
		// observe the new events and heal before retrying.
		co.roundFailDepositLocked(m, dep, codeRankDead)
		return
	}
	// Kind/op/root must agree with the round being assembled.
	for _, o := range co.members {
		if o.dep != nil && (o.dep.kind != dep.kind || o.dep.op != dep.op || o.dep.root != dep.root) {
			co.roundFailDepositLocked(m, dep, codeProtocol)
			return
		}
	}
	m.dep = dep
	co.armRoundTimerLocked(dep)
	co.checkRoundLocked()
}

// armRoundTimerLocked (re)arms the round stall backstop with the
// tightest deadline seen among this round's deposits.
func (co *Coordinator) armRoundTimerLocked(dep *deposit) {
	d := co.cfg.StallTimeout
	if dep.deadlineMS > 0 {
		if dd := time.Duration(dep.deadlineMS) * time.Millisecond; dd < d {
			d = dd
		}
	}
	if co.roundTimer == nil {
		co.roundDeadline = d
		co.roundTimer = time.AfterFunc(d, co.expireRound)
	} else if d < co.roundDeadline {
		co.roundDeadline = d
		co.roundTimer.Reset(d)
	}
}

func (co *Coordinator) stopRoundTimerLocked() {
	if co.roundTimer != nil {
		co.roundTimer.Stop()
		co.roundTimer = nil
	}
}

// expireRound fires when an assembling round stalls past its deadline:
// every outstanding depositor gets codeTimeout (no death is declared —
// distinguishing "somebody is slow" from "somebody is gone" is the
// caller's policy decision, typically degradation).
func (co *Coordinator) expireRound() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed || co.roundTimer == nil {
		return
	}
	co.roundTimer = nil
	for _, m := range co.members {
		if m.dep != nil {
			co.roundFailLocked(m, codeTimeout)
		}
	}
}

// expireFoundingMembers fires at the join deadline: founding ranks that
// never connected are declared dead so the connected ones can proceed.
func (co *Coordinator) expireFoundingMembers() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return
	}
	for _, m := range co.members {
		if m.state == stExpected {
			co.killLocked(m, "never joined")
		}
	}
	co.checkRoundLocked()
}

// roundFailLocked sends one member a round failure and clears its
// deposit (preserving the 1:1 deposit↔response invariant).
func (co *Coordinator) roundFailLocked(m *member, code uint8) {
	dep := m.dep
	m.dep = nil
	if dep == nil || m.fc == nil {
		return
	}
	co.roundFailDepositLocked(m, dep, code)
}

// roundFailDepositLocked responds to a specific deposit with a failure.
func (co *Coordinator) roundFailDepositLocked(m *member, dep *deposit, code uint8) {
	if m.fc == nil {
		return
	}
	var w wire.Writer
	w.U64(dep.seq)
	w.U8(code)
	appendEvents(&w, co.events)
	if err := m.fc.writeFrame(mRoundFail, w.Bytes()); err != nil {
		co.disconnectLocked(m, m.fc)
	}
}

// checkRoundLocked completes the assembling round if every up member has
// deposited and no founding member is still expected.
func (co *Coordinator) checkRoundLocked() {
	var deps []*member
	for _, m := range co.members {
		switch m.state {
		case stExpected:
			return // still waiting for a founder (or the join deadline)
		case stUp:
			if m.dep == nil {
				return
			}
			deps = append(deps, m)
		}
	}
	if len(deps) == 0 {
		return
	}
	co.completeRoundLocked(deps)
}

// completeRoundLocked combines the deposits in rank order, responds to
// every depositor, and admits pending rejoiners — the collective
// boundary where the event log may grow by joins.
func (co *Coordinator) completeRoundLocked(deps []*member) {
	kind := deps[0].dep.kind
	result, perRank, err := combine(kind, deps, co.cfg.Size)
	if err != nil {
		for _, m := range deps {
			co.roundFailLocked(m, codeProtocol)
		}
		co.stopRoundTimerLocked()
		return
	}
	co.completedRounds++
	if kind == kindAllreduce {
		co.lastResult = result
	}
	co.stopRoundTimerLocked()
	// Admit rejoiners BEFORE responding: the roundOK event log then
	// already contains the joins, so every survivor re-divides spans for
	// the next phase with the joiner included. All joins are appended
	// first, then welcomes sent, so each joiner also sees every sibling
	// join of this boundary.
	var admitted []*member
	for _, m := range co.members {
		if m.state == stDead && m.pending != nil {
			co.admitLocked(m)
			admitted = append(admitted, m)
		}
	}
	for _, m := range admitted {
		co.sendWelcomeLocked(m, m.fc)
	}
	for _, m := range deps {
		dep := m.dep
		m.dep = nil
		if m.fc == nil {
			continue
		}
		var w wire.Writer
		w.U64(dep.seq)
		appendEvents(&w, co.events)
		res := result
		if perRank != nil {
			res = perRank(m.rank, dep)
		}
		w.F64s(res)
		if werr := m.fc.writeFrame(mRoundOK, w.Bytes()); werr != nil {
			co.disconnectLocked(m, m.fc)
		}
	}
	if o := co.cfg.Obs; o != nil {
		o.Counter("cluster.collectives").Inc()
	}
}

// combine folds the deposits of one round in rank order. perRank, when
// non-nil, is what the round returns to rank's deposit dep instead of the
// result. An empty Sum deposit is no contribution, and its rank receives
// nothing back (cluster.Transport.Allreduce).
func combine(kind uint8, deps []*member, size int) (result []float64, perRank func(rank int, dep *deposit) []float64, err error) {
	switch kind {
	case kindBarrier:
		return nil, nil, nil
	case kindAllreduce, kindReduce:
		op := cluster.Op(deps[0].dep.op)
		if op != cluster.Sum && op != cluster.Min && op != cluster.Max {
			return nil, nil, fmt.Errorf("op %d: %w", op, cluster.ErrProtocol)
		}
		var out []float64
		for _, m := range deps {
			if op == cluster.Sum && len(m.dep.data) == 0 {
				continue
			}
			if out == nil {
				out = append([]float64(nil), m.dep.data...)
				continue
			}
			if len(m.dep.data) != len(out) {
				return nil, nil, fmt.Errorf("allreduce length mismatch: %w", cluster.ErrProtocol)
			}
			applyOp(op, out, m.dep.data)
		}
		root := int(deps[0].dep.root)
		return out, func(rank int, dep *deposit) []float64 {
			if kind == kindReduce && rank != root || op == cluster.Sum && len(dep.data) == 0 {
				return nil
			}
			return out
		}, nil
	case kindBcast:
		root := deps[0].dep.root
		for _, m := range deps {
			if int32(m.rank) == root {
				return m.dep.data, nil, nil
			}
		}
		return nil, nil, fmt.Errorf("bcast root %d absent: %w", root, cluster.ErrProtocol)
	case kindAllgatherv:
		counts := deps[0].dep.counts
		if len(counts) != size {
			return nil, nil, fmt.Errorf("allgatherv counts: %w", cluster.ErrProtocol)
		}
		var out []float64
		present := make(map[int][]float64, len(deps))
		for _, m := range deps {
			if len(m.dep.data) != int(counts[m.rank]) {
				return nil, nil, fmt.Errorf("allgatherv count mismatch at rank %d: %w", m.rank, cluster.ErrProtocol)
			}
			present[m.rank] = m.dep.data
		}
		for r := 0; r < size; r++ {
			if data, ok := present[r]; ok {
				out = append(out, data...)
			} else if counts[r] != 0 {
				return nil, nil, fmt.Errorf("allgatherv rank %d absent with count %d: %w", r, counts[r], cluster.ErrProtocol)
			}
		}
		return out, nil, nil
	}
	return nil, nil, fmt.Errorf("kind %d: %w", kind, cluster.ErrProtocol)
}

func applyOp(op cluster.Op, dst, src []float64) {
	switch op {
	case cluster.Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case cluster.Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case cluster.Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// handleRelayLocked forwards a point-to-point message to its
// destination, answering the sender with mSendOK / mSendErr.
func (co *Coordinator) handleRelayLocked(m *member, seq uint64, dst, tag int, data []float64) {
	if dst < 0 || dst >= co.cfg.Size || dst == m.rank {
		co.sendErrLocked(m, seq, codeProtocol)
		return
	}
	d := co.members[dst]
	if d.state != stUp || d.fc == nil {
		co.sendErrLocked(m, seq, codeRankDead)
		return
	}
	var w wire.Writer
	w.I32(int32(m.rank))
	w.I32(int32(tag))
	w.F64s(data)
	if err := d.fc.writeFrame(mRelayed, w.Bytes()); err != nil {
		co.disconnectLocked(d, d.fc)
		co.sendErrLocked(m, seq, codeRankDead)
		return
	}
	var ok wire.Writer
	ok.U64(seq)
	if err := m.fc.writeFrame(mSendOK, ok.Bytes()); err != nil {
		co.disconnectLocked(m, m.fc)
	}
}

func (co *Coordinator) sendErrLocked(m *member, seq uint64, code uint8) {
	if m.fc == nil {
		return
	}
	var w wire.Writer
	w.U64(seq)
	w.U8(code)
	appendEvents(&w, co.events)
	if err := m.fc.writeFrame(mSendErr, w.Bytes()); err != nil {
		co.disconnectLocked(m, m.fc)
	}
}

// heartbeatLoop pings up members and kills the unresponsive.
func (co *Coordinator) heartbeatLoop() {
	defer co.wg.Done()
	tick := time.NewTicker(co.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-co.hbStop:
			return
		case <-tick.C:
		}
		co.mu.Lock()
		now := time.Now()
		for _, m := range co.members {
			if m.state != stUp || m.fc == nil {
				continue
			}
			if now.Sub(m.lastPong) > co.cfg.HeartbeatTimeout {
				co.killLocked(m, "heartbeat timeout")
				continue
			}
			m.pingSentUS = co.nowUS()
			m.awaitPong = true
			if err := m.fc.writeFrame(mPing, nil); err != nil {
				co.disconnectLocked(m, m.fc)
			}
		}
		co.mu.Unlock()
	}
}
