package core

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gbpolar/internal/cluster/net"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
)

// The distributed observability acceptance run: a 4-process cluster with
// per-worker observers shipping telemetry, the coordinator folding it
// into one stream — and the merged gbtrace model reconciling per-rank
// phase totals with each worker's local trace to 1e-9.
func TestNetTelemetryMergedTrace(t *testing.T) {
	const procs = 4
	sys, _, _ := testSystem(t, 600, 11, DefaultParams())
	membership, checkpoint := netPaths(t)

	coObs := obs.New()
	workerObs := make([]*obs.Obs, procs)
	werrs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 1; r < procs; r++ {
		workerObs[r] = obs.New()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, werrs[r] = RunNetWorker(membership, r, NetWorkerOptions{
				StallTimeout: 60 * time.Second,
				JoinBudget:   60 * time.Second,
				Obs:          workerObs[r],
			})
		}(r)
	}
	res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:             procs,
		MembershipPath:    membership,
		CheckpointPath:    checkpoint,
		StallTimeout:      60 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		Obs:               coObs,
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < procs; r++ {
		if werrs[r] != nil {
			t.Fatalf("worker rank %d: %v", r, werrs[r])
		}
	}
	if res.Report.Faults.Degraded {
		t.Fatalf("clean observed run degraded: %+v", res.Report.Faults)
	}

	// The merged stream survives the JSONL round trip (what gbtrace
	// report consumes) and models every rank.
	var buf bytes.Buffer
	if err := coObs.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint hand-off is on the merged timeline: the coordinator's
	// save and every worker's load, outside the phase accounting.
	ckpt := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && ev.Cat == "ckpt" && ev.Args["bytes"] > 0 {
			ckpt[ev.Name]++
		}
	}
	enc := coObs.Metrics.Counter("snapshot.encode_bytes").Value()
	dec := coObs.Metrics.Counter("snapshot.decode_bytes").Value()
	if ckpt["ckpt.save"] != 1 || ckpt["ckpt.load"] != procs-1 || enc == 0 || dec != (procs-1)*enc {
		t.Fatalf("merged trace carries %d ckpt.save and %d ckpt.load spans, want 1 and %d; %d bytes encoded, %d decoded",
			ckpt["ckpt.save"], ckpt["ckpt.load"], procs-1, enc, dec)
	}
	merged := analyze.FromTrace(tr)
	mergedRank := map[int]analyze.RankStat{}
	for _, rs := range merged.Ranks {
		mergedRank[rs.Rank] = rs
	}
	if len(mergedRank) != procs {
		t.Fatalf("merged analysis models %d ranks, want %d", len(mergedRank), procs)
	}

	// Per-rank reconciliation: the workers' spans crossed the wire and
	// the JSONL round trip; their phase wall totals must match what each
	// worker holds locally to 1e-9 microseconds.
	for r := 1; r < procs; r++ {
		local := analyze.Analyze(workerObs[r].Trace.Events())
		var want analyze.RankStat
		for _, rs := range local.Ranks {
			if rs.Rank == r {
				want = rs
			}
		}
		got := mergedRank[r]
		if want.PhaseWallUS == 0 {
			t.Fatalf("rank %d recorded no local phase time", r)
		}
		if d := math.Abs(got.PhaseWallUS - want.PhaseWallUS); d > 1e-9 {
			t.Fatalf("rank %d: merged phase wall %gus vs local %gus (|Δ| = %g)",
				r, got.PhaseWallUS, want.PhaseWallUS, d)
		}
	}

	// The wire metrics folded additively across processes. Rank 0 dials
	// with the coordinator's own observer (no shipping), so its sends
	// are on top of the folded worker deltas.
	var wantSent int64
	for r := 1; r < procs; r++ {
		wantSent += workerObs[r].Metrics.Counter("net.frames.sent").Value()
	}
	got := coObs.Metrics.Counter("net.frames.sent").Value()
	if got < wantSent {
		t.Fatalf("folded net.frames.sent = %d, want >= %d", got, wantSent)
	}
	// (Heartbeat RTT sampling is asserted in the net package's
	// TestNetTelemetryMergedStream, which paces the run across several
	// heartbeat intervals; this workload can finish before the first
	// ping.)
}

// The live endpoint wired through NetOptions: the bound address is
// published in the membership file, /readyz follows founding membership,
// and /metrics serves mid-run.
func TestNetObsEndpoint(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, DefaultParams())
	membership, checkpoint := netPaths(t)
	coObs := obs.New()

	done := make(chan error, 1)
	go func() {
		_, err := RunNetCoordinator(context.Background(), sys, NetOptions{
			Procs:          2,
			MembershipPath: membership,
			CheckpointPath: checkpoint,
			StallTimeout:   60 * time.Second,
			JoinDeadline:   60 * time.Second,
			Obs:            coObs,
			ObsAddr:        "127.0.0.1:0",
		})
		done <- err
	}()

	m, err := net.WaitMembership(membership, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.ObsAddr == "" {
		t.Fatal("membership file carries no obs endpoint address")
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + m.ObsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// The worker has not joined yet: alive, not ready, starting.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"starting"`) {
		t.Fatalf("/healthz while waiting = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while waiting = %d, want 503", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "gbpol_up 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}

	// Let the worker join; the run completes and the endpoint goes away
	// with the coordinator.
	_, errs, wait := netWorkerGoroutines(membership, 2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wait()
	if errs[1] != nil {
		t.Fatal(errs[1])
	}
	if _, err := http.Get("http://" + m.ObsAddr + "/healthz"); err == nil {
		t.Fatal("endpoint still serving after the run ended")
	}
}
