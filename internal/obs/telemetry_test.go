package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randTelemetry builds a random but valid batch: the round-trip property
// must hold for any mix of events, metric deltas, and argument maps.
func randTelemetry(rng *rand.Rand) *Telemetry {
	tl := &Telemetry{}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		ev := Event{
			Name:      fmt.Sprintf("ev%d", rng.Intn(100)),
			Cat:       []string{"phase", "collective", "membership", ""}[rng.Intn(4)],
			Ph:        []string{"X", "i"}[rng.Intn(2)],
			Rank:      rng.Intn(8) - 1,
			WallUS:    rng.Float64() * 1e6,
			WallDurUS: rng.Float64() * 1e3,
			HasVirt:   rng.Intn(2) == 0,
		}
		if ev.HasVirt {
			ev.VirtUS = rng.Float64() * 1e6
			ev.VirtDurUS = rng.Float64() * 1e3
		}
		if na := rng.Intn(4); na > 0 {
			ev.Args = make(map[string]float64, na)
			for j := 0; j < na; j++ {
				ev.Args[fmt.Sprintf("arg%d", j)] = rng.NormFloat64()
			}
		}
		tl.Events = append(tl.Events, ev)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		tl.Counters = append(tl.Counters, CounterDelta{
			Name: fmt.Sprintf("c.%d", i), Delta: rng.Int63n(1e9) - 1e6,
		})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		tl.Gauges = append(tl.Gauges, GaugeValue{
			Name: fmt.Sprintf("g.%d", i), Value: rng.NormFloat64() * 1e9,
		})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		h := HistogramDelta{
			Name:  fmt.Sprintf("h.%d", i),
			Count: rng.Int63n(1000),
			Sum:   rng.Int63n(1e9),
			Max:   rng.Int63n(1e9),
		}
		for j, nb := 0, rng.Intn(5); j < nb; j++ {
			h.Buckets = append(h.Buckets, BucketDelta{
				Idx: uint8(rng.Intn(histBuckets)), N: rng.Int63n(1e6) + 1,
			})
		}
		tl.Histograms = append(tl.Histograms, h)
	}
	return tl
}

// The codec property: decode(encode(x)) == x for arbitrary batches.
func TestTelemetryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		want := randTelemetry(rng)
		got, err := DecodeTelemetry(want.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// Every strict prefix of a valid frame must decode to an error — never a
// panic, never a silently partial batch.
func TestTelemetryTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var full []byte
	for full == nil || len(full) < 100 {
		full = randTelemetry(rng).Encode()
	}
	for n := 0; n < len(full); n++ {
		if _, err := DecodeTelemetry(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	// Trailing garbage is rejected too: a frame is exactly one batch.
	if _, err := DecodeTelemetry(append(append([]byte(nil), full...), 0xAB)); err == nil {
		t.Fatal("frame with trailing byte decoded without error")
	}
}

// A wrong version byte is rejected before anything else is parsed.
func TestTelemetryVersionMismatch(t *testing.T) {
	b := (&Telemetry{Counters: []CounterDelta{{Name: "c", Delta: 1}}}).Encode()
	b[0] = telemetryVersion + 1
	if _, err := DecodeTelemetry(b); err == nil {
		t.Fatal("future-version frame decoded without error")
	}
}

// Fuzzing malformed frames: random corruption of valid frames and fully
// random byte strings must never panic or over-allocate — hostile length
// prefixes are capped against the bytes actually remaining.
func TestTelemetryCorruptionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		b := randTelemetry(rng).Encode()
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		// Either outcome is fine; surviving the parse is the property.
		DecodeTelemetry(b)
	}
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		DecodeTelemetry(b)
	}
}

// FuzzDecodeTelemetry holds DecodeTelemetry to its contract on any input:
// it never panics, and what it accepts round-trips — the decoded batch
// encodes to bytes that decode again, to a batch that encodes to the same
// bytes. (An accepted input need not be those bytes itself: a repeated
// argument key or a HasVirt byte other than 0 or 1 decodes, and encodes
// canonically.) The seeds are valid batches, an empty one, one cut short
// and one of another version; the committed corpus (testdata/fuzz) adds
// non-canonical and hostile ones. Run with `go test -fuzz=FuzzDecodeTelemetry`
// to explore (`make fuzz` does, for a few seconds).
func FuzzDecodeTelemetry(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for range 3 {
		f.Add(randTelemetry(rng).Encode())
	}
	f.Add((&Telemetry{}).Encode())
	full := randTelemetry(rng).Encode()
	f.Add(full[:len(full)/2])
	bad := (&Telemetry{Gauges: []GaugeValue{{Name: "g", Value: 1}}}).Encode()
	bad[0]++
	f.Add(bad)
	f.Fuzz(func(t *testing.T, b []byte) {
		tl, err := DecodeTelemetry(b)
		if err != nil {
			return
		}
		canon := tl.Encode()
		again, err := DecodeTelemetry(canon)
		if err != nil {
			t.Fatalf("the encoding of an accepted batch does not decode: %v", err)
		}
		if enc := again.Encode(); !bytes.Equal(enc, canon) {
			t.Fatalf("an accepted batch re-encodes to %d bytes unlike its first %d", len(enc), len(canon))
		}
	})
}

// The shipper drains incrementally: each Collect returns exactly what is
// new, and folding every batch into a second observer reconstructs the
// source's counters, histograms and events bit-for-bit.
func TestShipperIncrementalAbsorb(t *testing.T) {
	src := New()
	dst := New()
	ship := src.NewShipper()

	absorb := func() {
		b := ship.Collect()
		if b == nil {
			return
		}
		tl, err := DecodeTelemetry(b)
		if err != nil {
			t.Fatal(err)
		}
		dst.Absorb(tl, 3, 0)
	}

	if ship.Collect() != nil {
		t.Fatal("empty observer produced a batch")
	}

	sp := src.Begin(0, "phase", "build", NoVirtual)
	sp.End(NoVirtual, F("bytes", 128))
	src.Counter("net.frames.sent").Add(5)
	src.Histogram("net.frame.deposit_bytes").Observe(100)
	src.Gauge("net.rank_bytes").Set(42)
	absorb()

	src.Counter("net.frames.sent").Add(7)
	src.Histogram("net.frame.deposit_bytes").Observe(3000)
	src.Instant(0, "membership", "rejoin", NoVirtual)
	absorb()

	if ship.Collect() != nil {
		t.Fatal("drained observer produced another batch")
	}

	if got := dst.Counter("net.frames.sent").Value(); got != 12 {
		t.Fatalf("folded counter = %d, want 12", got)
	}
	h := dst.Histogram("net.frame.deposit_bytes")
	if h.Count() != 2 || h.Sum() != 3100 || h.Max() != 3000 {
		t.Fatalf("folded histogram count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Gauges are last-write-wins, so they land namespaced by source rank.
	if got := dst.Gauge("rank3.net.rank_bytes").Value(); got != 42 {
		t.Fatalf("rank-namespaced gauge = %g, want 42", got)
	}
	evs := dst.Trace.Events()
	if len(evs) != 2 {
		t.Fatalf("folded %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Rank != 3 {
			t.Fatalf("absorbed event rank %d, want source rank 3", ev.Rank)
		}
	}
	if evs[0].Args["bytes"] != 128 {
		t.Fatalf("span args lost: %+v", evs[0].Args)
	}
}

// Absorb shifts event wall timestamps by the clock-offset estimate but
// leaves durations alone — reconciliation compares durations, which must
// survive the wire bit-for-bit.
func TestAbsorbWallOffset(t *testing.T) {
	src := New()
	sp := src.Begin(1, "phase", "epol", NoVirtual)
	sp.End(NoVirtual)
	tl, err := DecodeTelemetry(src.NewShipper().Collect())
	if err != nil {
		t.Fatal(err)
	}
	wantDur := tl.Events[0].WallDurUS
	wantWall := tl.Events[0].WallUS

	dst := New()
	const off = 12345.5
	dst.Absorb(tl, 1, off)
	ev := dst.Trace.Events()[0]
	if ev.WallUS != wantWall+off {
		t.Fatalf("wall %g, want %g", ev.WallUS, wantWall+off)
	}
	if math.Float64bits(ev.WallDurUS) != math.Float64bits(wantDur) {
		t.Fatalf("duration changed across the wire: %g vs %g", ev.WallDurUS, wantDur)
	}
}
