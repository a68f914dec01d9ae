package net

import (
	"errors"
	"io"
	gonet "net"
	"testing"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/wire"
)

// frameBytes returns what writeFrame puts on the wire for one frame.
func frameBytes(t testing.TB, typ uint8, body []byte) []byte {
	t.Helper()
	a, b := gonet.Pipe()
	go func() {
		newFrameConn(a).writeFrame(typ, body)
		a.Close()
	}()
	out, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readFrames reads frames from in the way a peer's connection does and
// decodes each body the way its receiver does — the worker's welcome,
// round, send and relayed frames, the coordinator's hello, pong,
// telemetry, deposit, relay and stats frames — until the input ends or a
// frame is refused. It returns the frames read and the error that ended
// the stream.
func readFrames(in []byte) (frames int, err error) {
	a, b := gonet.Pipe()
	go func() {
		a.Write(in)
		a.Close()
	}()
	defer b.Close()
	fc := newFrameConn(b)
	for {
		typ, body, err := fc.readFrame()
		if err != nil {
			return frames, err
		}
		frames++
		r := wire.NewReader(body)
		switch typ {
		case mHello:
			r.I32()
		case mWelcome:
			r.I32()
			r.I32()
			r.F64()
			r.U32()
			decodeEvents(r)
			r.F64s()
		case mRoundOK:
			r.U64()
			decodeEvents(r)
			r.F64s()
		case mRoundFail, mSendErr:
			r.U64()
			codeToError(r.U8(), 4, decodeEvents(r))
		case mSendOK:
			r.U64()
		case mRelayed:
			r.I32()
			r.I32()
			r.F64s()
		case mPong:
			r.F64()
		case mTelemetry:
			obs.DecodeTelemetry(body)
		case mDeposit:
			decodeDeposit(r)
		case mRelay:
			r.U64()
			r.I32()
			r.I32()
			r.F64s()
		case mStats:
			r.I64()
			r.F64()
		}
	}
}

// FuzzFrame pins that the frame layer never panics on arbitrary bytes from
// a peer, whatever frames they hold: readFrame refuses a length outside
// [2, maxFrameBytes] or another protocol version with ErrProtocol before it
// allocates a body, and no receiver's decode of a body panics. The seeds
// are one frame of each type as the senders write it, a run of them, and
// each cut short and with a bad length or version. Run with `go test
// -fuzz=FuzzFrame` to explore (`make fuzz` does, for a few seconds).
func FuzzFrame(f *testing.F) {
	enc := func(put func(w *wire.Writer)) []byte {
		var w wire.Writer
		put(&w)
		return w.Bytes()
	}
	events := []cluster.MemberEvent{{Rank: 1}, {Rank: 1, Join: true}}
	var stream []byte
	for _, fr := range []struct {
		typ  uint8
		body []byte
	}{
		{mHello, enc(func(w *wire.Writer) { w.I32(1) })},
		{mWelcome, enc(func(w *wire.Writer) {
			w.I32(2)
			w.I32(1)
			w.F64(1e9)
			w.U32(1)
			appendEvents(w, events)
			w.F64s([]float64{1, 2, 3})
		})},
		{mDeposit, enc((&deposit{seq: 3, kind: kindAllgatherv, counts: []int32{1, 2}, data: []float64{4, 5, 6}}).append)},
		{mRoundOK, enc(func(w *wire.Writer) {
			w.U64(3)
			appendEvents(w, events)
			w.F64s([]float64{7})
		})},
		{mRoundFail, enc(func(w *wire.Writer) {
			w.U64(3)
			w.U8(codeRankDead)
			appendEvents(w, events)
		})},
		{mPing, nil},
		{mPong, enc(func(w *wire.Writer) { w.F64(12.5) })},
		{mRelay, enc(func(w *wire.Writer) {
			w.U64(4)
			w.I32(1)
			w.I32(100)
			w.F64s([]float64{8, 9})
		})},
		{mRelayed, enc(func(w *wire.Writer) {
			w.I32(0)
			w.I32(100)
			w.F64s([]float64{8, 9})
		})},
		{mStats, enc(func(w *wire.Writer) {
			w.I64(40)
			w.F64(0.25)
		})},
		{mTelemetry, telemetryBatch()},
		{mBye, nil},
	} {
		b := frameBytes(f, fr.typ, fr.body)
		f.Add(b)
		f.Add(b[:len(b)-1])
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add([]byte{0, 0, 0, 1, protoVersion, mPing})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, protoVersion, mPing})
	f.Add([]byte{0, 0, 0, 2, protoVersion + 1, mPing})
	f.Fuzz(func(t *testing.T, in []byte) {
		if _, err := readFrames(in); err != nil && !errors.Is(err, cluster.ErrProtocol) &&
			!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream ended with %v, want a protocol error or the end of the input", err)
		}
	})
}

// telemetryBatch is one worker's telemetry frame body: a span and a
// counter.
func telemetryBatch() []byte {
	o := obs.New()
	o.Counter("net.frames.sent").Add(3)
	o.Begin(1, "phase", "born", obs.NoVirtual).End(obs.NoVirtual, obs.F("rows", 8))
	return o.NewShipper().Collect()
}

// A frame whose length or version readFrame refuses ends the stream with
// ErrProtocol, after the frames before it were read whole.
func TestReadFrameRefuses(t *testing.T) {
	ping := frameBytes(t, mPing, nil)
	for name, tc := range map[string]struct {
		in     []byte
		frames int
	}{
		"length 1":      {append(append([]byte(nil), ping...), 0, 0, 0, 1, protoVersion, mPing), 1},
		"length past":   {[]byte{0x04, 0, 0, 3, protoVersion, mPing}, 0},
		"version":       {[]byte{0, 0, 0, 2, protoVersion + 1, mPing}, 0},
		"after a frame": {append(append([]byte(nil), ping...), 0, 0, 0, 2, 0, mPing), 1},
	} {
		n, err := readFrames(tc.in)
		if !errors.Is(err, cluster.ErrProtocol) || n != tc.frames {
			t.Errorf("%s: read %d frames, then %v; want %d, then ErrProtocol", name, n, err, tc.frames)
		}
	}
}
