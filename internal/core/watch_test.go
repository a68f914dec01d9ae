package core

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gbpolar/internal/cluster/net"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
	"gbpolar/internal/obs/watch"
)

// watchNetRun executes one fully observed 4-rank TCP run — in-process
// workers with their own observers, health samplers and fast telemetry,
// the coordinator optionally running the anomaly watchdog — and returns
// the coordinator's observer.
func watchNetRun(t *testing.T, membership, checkpoint string, sys *System,
	cfg *watch.Config, flightDir, obsAddr string) *obs.Obs {
	t.Helper()
	const procs = 4
	coObs := obs.New()
	werrs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 1; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, werrs[r] = RunNetWorker(membership, r, NetWorkerOptions{
				StallTimeout:      60 * time.Second,
				JoinBudget:        60 * time.Second,
				Obs:               obs.New(),
				HealthInterval:    2 * time.Millisecond,
				TelemetryInterval: 10 * time.Millisecond,
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
		HealthInterval:    2 * time.Millisecond,
		Watch:             cfg,
		FlightDir:         flightDir,
		ObsAddr:           obsAddr,
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
		t.Fatalf("observed run degraded: %+v", res.Report.Faults)
	}
	return coObs
}

// The watchdog acceptance run: a nominal 4-rank TCP run is traced, and
// its JSONL trace — what `gbpol -trace` writes and `-watch-baseline`
// reads — seeds the baseline; a second nominal run of the same shape
// must produce zero verdicts; a third run with a sustained synthetic
// slowdown in rank 1's epol phase must be flagged with the correct phase
// and rank within Sustain windows, flip /healthz to "anomalous", and
// dump a flight recording tagged with the offending phase and rank.
func TestNetWatchdogAcceptance(t *testing.T) {
	sys, _, _ := testSystem(t, 600, 11, DefaultParams())

	// Run 1 — nominal, unwatched: the nominal imbalances come from its
	// merged timeline, read back from JSONL.
	const epolStat = "phase.epol.wall_imbalance"
	nominal := func() map[string]float64 {
		m1, c1 := netPaths(t)
		co := watchNetRun(t, m1, c1, sys, nil, "", "")
		var jsonl strings.Builder
		if err := co.Trace.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		tr, err := obs.ReadJSONL(strings.NewReader(jsonl.String()))
		if err != nil {
			t.Fatal(err)
		}
		return watch.BaselineFromSummary(analyze.FromTrace(tr).Summary())
	}
	baseline := nominal()
	// Four ranks cap max/mean at 4, so a baseline at or above 4/1.3 leaves
	// the dragged run no room to breach the 30 % wall envelope. A nominal
	// epol phase lasts a few ms here, and one rank descheduled during it
	// (the suite shares two cores with other packages' tests under `go
	// test ./...`) reads 3 and more: that run measured the scheduler, take
	// another.
	for i := 0; i < 4 && baseline[epolStat] >= 3; i++ {
		baseline = nominal()
	}
	// Watch only the dominant compute phase. The micro-phases (build,
	// born, push) on this small workload sit near MinPhaseWall where
	// their imbalance is scheduler noise — especially with four ranks
	// oversubscribed in one -race test process — and judging them here
	// would test the scheduler, not the watchdog.
	for k := range baseline {
		if k != epolStat {
			delete(baseline, k)
		}
	}
	if len(baseline) == 0 {
		t.Fatal("nominal run yielded no epol imbalance stat to baseline")
	}

	// Run 2 — nominal, watched: same shape, same baseline, no verdicts.
	var mu sync.Mutex
	var verdicts []watch.Verdict
	collect := func(v watch.Verdict) {
		mu.Lock()
		verdicts = append(verdicts, v)
		mu.Unlock()
	}
	m2, c2 := netPaths(t)
	watchNetRun(t, m2, c2, sys, &watch.Config{
		Baseline:  baseline,
		Window:    15 * time.Millisecond,
		Sustain:   3,
		OnAnomaly: collect,
	}, "", "")
	mu.Lock()
	quiet := append([]watch.Verdict(nil), verdicts...)
	mu.Unlock()
	if len(quiet) != 0 {
		t.Fatalf("nominal watched run raised verdicts: %+v", quiet)
	}

	// Run 3 — rank 1 drags its epol phase by 500ms: a sustained 2×+
	// slowdown visible to the coordinator only through the shipped
	// open-span age gauge, since the span does not close until the drag
	// ends.
	testPhaseDrag = func(rank int, phase string) {
		if rank == 1 && phase == "epol" {
			time.Sleep(500 * time.Millisecond)
		}
	}
	defer func() { testPhaseDrag = nil }()

	verdicts = nil
	fired := make(chan watch.Verdict, 8)
	anomalous := make(chan string, 1)
	m3, c3 := netPaths(t)
	flightDir := t.TempDir()

	// Poll /healthz while the run is live: once the first verdict fires
	// the state must read "anomalous" (the cluster is structurally
	// healthy, so nothing else claims precedence).
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		v, ok := <-fired
		if !ok {
			return // the run ended without a verdict: fail below, do not hang
		}
		collect(v)
		m, err := net.WaitMembership(m3, 30*time.Second)
		if err != nil || m.ObsAddr == "" {
			return
		}
		for i := 0; i < 200; i++ {
			resp, err := http.Get("http://" + m.ObsAddr + "/healthz")
			if err != nil {
				return // run ended, endpoint gone
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), `"anomalous"`) {
				select {
				case anomalous <- string(body):
				default:
				}
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	watchNetRun(t, m3, c3, sys, &watch.Config{
		Baseline: baseline,
		Window:   15 * time.Millisecond,
		Sustain:  3,
		OnAnomaly: func(v watch.Verdict) {
			select {
			case fired <- v:
			default:
			}
		},
	}, flightDir, "127.0.0.1:0")
	close(fired) // the watchdog stopped with the run: no sender is left
	pollWG.Wait()

	mu.Lock()
	got := append([]watch.Verdict(nil), verdicts...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("dragged run raised no verdict")
	}
	v := got[0]
	if v.Phase != "epol" || v.Rank != 1 {
		t.Fatalf("verdict localization = phase %q rank %d, want epol rank 1 (%+v)", v.Phase, v.Rank, v)
	}
	if v.Stat != "phase.epol.wall_imbalance" {
		t.Errorf("verdict stat = %q", v.Stat)
	}
	if v.Windows > 3 {
		t.Errorf("verdict took %d windows, want <= Sustain (3)", v.Windows)
	}

	// The tagged flight recording: dumped by the coordinator's OnAnomaly
	// wrapper before the test's own hook ran.
	dumps, err := filepath.Glob(filepath.Join(flightDir, "flight-anomaly-epol-rank1-*.jsonl"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no tagged flight dump in %s (err %v)", flightDir, err)
	}
	// And the dump is a loadable trace.
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("flight dump unreadable: %v", err)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("flight dump is empty")
	}

	select {
	case <-anomalous:
	default:
		t.Error("/healthz never reported state \"anomalous\" while the verdict stood")
	}
}
