package net

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/serve"
)

// waitState polls the coordinator until pred holds (the telemetry plane
// is asynchronous only across processes; frames from one worker are
// processed in order, so once its Bye is visible its final batch is in).
func waitState(t *testing.T, co *Coordinator, pred func(ClusterState) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred(co.State()) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster state never converged: %+v", co.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The merged stream: every shipping rank's collective spans land in the
// coordinator's trace tagged with the source rank, wall durations survive
// the wire bit-for-bit, and worker counters fold additively.
func TestNetTelemetryMergedStream(t *testing.T) {
	const size = 3
	coObs := obs.New()
	co := testCoordinator(t, size, func(cfg *Config) { cfg.Obs = coObs })

	workerObs := make([]*obs.Obs, size)
	for r := range workerObs {
		workerObs[r] = obs.New()
	}
	errs := runRanks(t, co, size, func(rank int) Options {
		return Options{
			StallTimeout:  20 * time.Second,
			Obs:           workerObs[rank],
			ShipTelemetry: true,
		}
	}, func(c *Comm) error {
		r := float64(c.Rank())
		for i := 0; i < 3; i++ {
			if _, err := c.Allreduce([]float64{r + 1}, cluster.Sum); err != nil {
				return err
			}
			// Give the heartbeat loop (50 ms interval) room to exchange
			// timestamped pongs, so the RTT/offset path runs too.
			time.Sleep(60 * time.Millisecond)
		}
		return c.Barrier()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	waitState(t, co, func(s ClusterState) bool { return s.Left == size })

	// Per-rank reconciliation: the merged collective spans must carry
	// exactly the durations the worker recorded locally.
	type agg struct {
		n     int
		durUS float64
	}
	merged := map[int]*agg{}
	for _, ev := range coObs.Trace.Events() {
		if ev.Cat != "collective" {
			continue
		}
		a := merged[ev.Rank]
		if a == nil {
			a = &agg{}
			merged[ev.Rank] = a
		}
		a.n++
		a.durUS += ev.WallDurUS
	}
	for r := 0; r < size; r++ {
		var local agg
		for _, ev := range workerObs[r].Trace.Events() {
			if ev.Cat == "collective" {
				local.n++
				local.durUS += ev.WallDurUS
			}
		}
		if local.n != 4 {
			t.Fatalf("rank %d recorded %d collective spans locally, want 4", r, local.n)
		}
		m := merged[r]
		if m == nil || m.n != local.n {
			t.Fatalf("rank %d: merged stream has %+v collective spans, local has %d", r, m, local.n)
		}
		if math.Abs(m.durUS-local.durUS) > 1e-9 {
			t.Fatalf("rank %d: merged wall %gus vs local %gus", r, m.durUS, local.durUS)
		}
	}

	// Counters fold additively: the coordinator's net.frames.sent can
	// only come from shipped worker deltas, and must equal the sum of
	// the worker-local values.
	var wantSent int64
	for r := 0; r < size; r++ {
		wantSent += workerObs[r].Metrics.Counter("net.frames.sent").Value()
	}
	if got := coObs.Metrics.Counter("net.frames.sent").Value(); got != wantSent {
		t.Fatalf("folded net.frames.sent = %d, want %d", got, wantSent)
	}
	if coObs.Metrics.Counter("net.telemetry.frames").Value() < int64(size) {
		t.Fatalf("coordinator absorbed %d telemetry frames, want >= %d",
			coObs.Metrics.Counter("net.telemetry.frames").Value(), size)
	}
	// Heartbeats ran, so the RTT histogram has samples and at least one
	// span name matches the modeled transport's rendezvous vocabulary.
	if coObs.Metrics.Histogram("net.heartbeat.rtt_us").Count() == 0 {
		t.Fatal("no heartbeat RTT samples recorded")
	}
	names := map[string]bool{}
	for _, ev := range coObs.Trace.Events() {
		names[ev.Name] = true
	}
	if !names["allreduce"] || !names["barrier"] {
		t.Fatalf("merged stream missing collective span names: %v", names)
	}
}

// A malformed telemetry frame is counted and dropped — never a protocol
// failure for the rank that sent it.
func TestNetTelemetryDecodeErrorTolerated(t *testing.T) {
	coObs := obs.New()
	co := testCoordinator(t, 1, func(cfg *Config) { cfg.Obs = coObs })
	errs := runRanks(t, co, 1, nil, func(c *Comm) error {
		if err := c.fc.writeFrame(mTelemetry, []byte{0xFF, 0x01, 0x02}); err != nil {
			return err
		}
		_, err := c.Allreduce([]float64{1}, cluster.Sum)
		return err
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	waitState(t, co, func(s ClusterState) bool { return s.Left == 1 })
	if got := coObs.Metrics.Counter("net.telemetry.decode_errors").Value(); got != 1 {
		t.Fatalf("decode_errors = %d, want 1", got)
	}
}

// The live endpoint over a real cluster: /metrics exposes the wire
// counters the round just produced, /readyz follows membership.
func TestNetObsEndpointSmoke(t *testing.T) {
	coObs := obs.New()
	co := testCoordinator(t, 1, func(cfg *Config) { cfg.Obs = coObs })
	srv, err := serve.Start("127.0.0.1:0", coObs, func() serve.Health {
		s := co.State()
		return serve.Health{State: "running", Ready: s.Ready(), Size: s.Size,
			LiveRanks: s.Live, Rounds: s.Rounds}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before any rank joins: alive but not ready.
	resp, err := http.Get("http://" + srv.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before join = %d, want 503", resp.StatusCode)
	}

	errs := runRanks(t, co, 1, func(int) Options {
		return Options{StallTimeout: 20 * time.Second, Obs: coObs}
	}, func(c *Comm) error {
		_, err := c.Allreduce([]float64{2}, cluster.Sum)
		return err
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	waitState(t, co, func(s ClusterState) bool { return s.Rounds >= 1 })

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gbpol_up 1", "gbpol_net_frames_recv", "gbpol_cluster_collectives 1"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
