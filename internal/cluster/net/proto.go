// Package net is the real multi-process cluster transport: ranks are OS
// processes exchanging length-prefixed binary frames over TCP through a
// coordinator (a star, matching the rendezvous semantics of the modeled
// in-process transport). Deaths are real — a closed socket, a heartbeat
// timeout, a join deadline — and membership is elastic: a crashed worker
// can be respawned and is re-admitted at the next successful collective.
// Every error a worker-side call returns wraps the same typed sentinels
// as the in-process transport (cluster.ErrRankDead, ErrTimeout,
// ErrAborted, ErrProtocol), so the self-healing rank bodies in
// internal/core run unchanged over goroutines and over sockets.
package net

import (
	"encoding/binary"
	"fmt"
	"io"
	gonet "net"
	"sync"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/wire"
)

// protoVersion is bumped on any incompatible frame-layout change; both
// ends reject mismatches with cluster.ErrProtocol.
const protoVersion = 1

// maxFrameBytes bounds a frame body (64 MiB — a 5k-atom snapshot's
// reduction vectors are well under 1 MiB). readFrame rejects larger
// length prefixes before allocating, so a garbage prefix cannot force a
// huge allocation.
const maxFrameBytes = 64 << 20

// Frame types.
const (
	mHello     uint8 = iota + 1 // worker → coord: rank announces itself
	mWelcome                    // coord → worker: admission (size, events, seed)
	mDeposit                    // worker → coord: collective contribution
	mRoundOK                    // coord → worker: collective completed
	mRoundFail                  // coord → worker: collective failed (code)
	mPing                       // coord → worker: heartbeat probe
	mPong                       // worker → coord: heartbeat reply
	mRelay                      // worker → coord: p2p send for forwarding
	mSendOK                     // coord → worker: relay forwarded
	mSendErr                    // coord → worker: relay refused (code)
	mRelayed                    // coord → worker: forwarded p2p message
	mStats                      // worker → coord: recovery metering
	mBye                        // worker → coord: graceful leave
	mTelemetry                  // worker → coord: encoded obs.Telemetry batch (fire-and-forget)
)

// Failure codes carried by mRoundFail/mSendErr, mapped back to the
// cluster sentinels on the worker side.
const (
	codeRankDead uint8 = iota + 1
	codeTimeout
	codeAborted
	codeProtocol
)

// codeToError converts a wire failure code into the typed sentinel error
// the in-process transport would have returned, so errors.Is behaves
// identically across both transports. events is the post-failure
// membership log (used to populate RankDeadError's ordered dead list).
func codeToError(code uint8, size int, events []cluster.MemberEvent) error {
	switch code {
	case codeRankDead:
		return &cluster.RankDeadError{Dead: cluster.DeadFromEvents(size, events)}
	case codeTimeout:
		return cluster.ErrTimeout
	case codeAborted:
		return cluster.ErrAborted
	default:
		return cluster.ErrProtocol
	}
}

// Collective kinds inside a deposit.
const (
	kindBarrier uint8 = iota + 1
	kindAllreduce
	kindReduce
	kindBcast
	kindAllgatherv
)

// deposit is one rank's contribution to a collective round.
type deposit struct {
	seq  uint64
	kind uint8
	op   uint8
	root int32
	// seenEvents is the length of the membership log the depositor
	// computed under — the wire form of the in-process stale-deposit
	// guard: a deposit made before the newest event must be discarded.
	seenEvents uint32
	// deadlineMS is the depositor's stall budget for this round in
	// milliseconds (0 = none); the coordinator fails the round with
	// codeTimeout when the tightest budget expires.
	deadlineMS uint32
	counts     []int32
	data       []float64
}

func (d *deposit) append(w *wire.Writer) {
	w.U64(d.seq)
	w.U8(d.kind)
	w.U8(d.op)
	w.I32(d.root)
	w.U32(d.seenEvents)
	w.U32(d.deadlineMS)
	w.I32s(d.counts)
	w.F64s(d.data)
}

func decodeDeposit(r *wire.Reader) (*deposit, error) {
	d := &deposit{
		seq:        r.U64(),
		kind:       r.U8(),
		op:         r.U8(),
		root:       r.I32(),
		seenEvents: r.U32(),
		deadlineMS: r.U32(),
		counts:     r.I32s(),
		data:       r.F64s(),
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if d.kind < kindBarrier || d.kind > kindAllgatherv {
		return nil, fmt.Errorf("deposit kind %d: %w", d.kind, cluster.ErrProtocol)
	}
	return d, nil
}

// appendEvents / decodeEvents carry the membership log. Every coordinator
// response includes the full log: it is small (one entry per death or
// rejoin) and makes each response self-contained, so a worker can never
// hold a log the coordinator did not send it.
func appendEvents(w *wire.Writer, events []cluster.MemberEvent) {
	w.U32(uint32(len(events)))
	for _, ev := range events {
		w.I32(int32(ev.Rank))
		w.Bool(ev.Join)
	}
}

func decodeEvents(r *wire.Reader) []cluster.MemberEvent {
	n := int(r.U32())
	if n < 0 || n > r.Remaining()/5 {
		return nil
	}
	out := make([]cluster.MemberEvent, n)
	for i := range out {
		out[i] = cluster.MemberEvent{Rank: int(r.I32()), Join: r.Bool()}
	}
	return out
}

// frameConn wraps a TCP connection with framed, mutex-serialized writes
// (the coordinator's heartbeat, relay and round goroutines share one
// socket per peer) and framed reads (single reader per connection).
type frameConn struct {
	conn gonet.Conn
	wmu  sync.Mutex
	rbuf [6]byte
}

func newFrameConn(conn gonet.Conn) *frameConn {
	if tc, ok := conn.(*gonet.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &frameConn{conn: conn}
}

// writeTimeout bounds any single frame write: a peer that stopped
// draining its socket must surface as a connection error, not wedge the
// writer (the coordinator writes while holding its state mutex).
const writeTimeout = time.Minute

// writeFrame sends one frame: u32 big-endian body length (including the
// version and type bytes), protocol version, frame type, body.
func (fc *frameConn) writeFrame(typ uint8, body []byte) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+2))
	hdr[4] = protoVersion
	hdr[5] = typ
	if _, err := fc.conn.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := fc.conn.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, validating version and size bounds.
func (fc *frameConn) readFrame() (typ uint8, body []byte, err error) {
	if _, err := io.ReadFull(fc.conn, fc.rbuf[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fc.rbuf[:4])
	if n < 2 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("frame length %d: %w", n, cluster.ErrProtocol)
	}
	if _, err := io.ReadFull(fc.conn, fc.rbuf[4:6]); err != nil {
		return 0, nil, err
	}
	if fc.rbuf[4] != protoVersion {
		return 0, nil, fmt.Errorf("frame version %d, want %d: %w", fc.rbuf[4], protoVersion, cluster.ErrProtocol)
	}
	typ = fc.rbuf[5]
	body = make([]byte, n-2)
	if _, err := io.ReadFull(fc.conn, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

func (fc *frameConn) close() error { return fc.conn.Close() }

// backoff returns the exponential reconnect delay for attempt i with
// deterministic per-rank jitter, capped at 2 s: rejoining workers must
// not thundering-herd a restarting coordinator.
func backoff(attempt, rank int) time.Duration {
	d := 25 * time.Millisecond << uint(attempt)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	// Deterministic jitter: spread ranks by golden-ratio hashing so
	// simultaneous rejoiners do not sync up (no global RNG — workers are
	// separate processes).
	j := time.Duration((uint64(rank+1)*0x9E3779B97F4A7C15)>>52) * time.Millisecond / 4
	return d + j
}
