package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// netRunFixture is the ledger's net_run system: the 4 000-atom molecule
// (generator seed 2), Morton trees, the exact tier, lists compiled.
func netRunFixture(tb testing.TB) *System {
	sys, _, _ := testSystem(tb, 4000, 2, mortonParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	sys.Lists(pool)
	return sys
}

// netRunOp is the ledger's net_run op in process: a two-rank TCP run over
// loopback, one thread a rank, the coordinator observed (as the ledger's
// always is) and the worker rank a goroutine running the real worker entry
// point — membership file, checkpoint load, dial. It returns once the
// worker has returned, with the files of the run in dir.
func netRunOp(tb testing.TB, sys *System, dir string) {
	membership := filepath.Join(dir, "cluster.json")
	workerDone := make(chan error, 1)
	spawned := false
	res, err := RunNetCoordinator(context.Background(), sys, NetOptions{
		Procs:          2,
		Threads:        1,
		MembershipPath: membership,
		CheckpointPath: filepath.Join(dir, "sys.ckpt"),
		StallTimeout:   60 * time.Second,
		HealthInterval: -1,
		Obs:            obs.New(),
		Spawn: func(rank int) error {
			spawned = true
			go func() {
				_, err := RunNetWorker(membership, rank, NetWorkerOptions{StallTimeout: 60 * time.Second, HealthInterval: -1})
				workerDone <- err
			}()
			return nil
		},
	})
	if spawned {
		if werr := <-workerDone; werr != nil && err == nil {
			err = fmt.Errorf("worker rank 1: %w", werr)
		}
	}
	if err == nil && res.Report != nil && res.Report.Faults != nil && res.Report.Faults.Degraded {
		err = fmt.Errorf("run degraded: %s", res.Report.Faults.DegradedReason)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNetRun4k is the ledger's net_run op in process (netRunOp), each
// op after a forced collection and in a fresh directory, as the ledger runs
// it. gc/op is the collections that ran inside the ops: a run that
// allocates more than the pacer's headroom over the live heap has one. Run
// with `make bench-net`.
func BenchmarkNetRun4k(b *testing.B) {
	sys := netRunFixture(b)
	base := b.TempDir()
	var gcs uint32
	var m runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		dir := filepath.Join(base, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&m)
		gc0 := m.NumGC
		b.StartTimer()
		netRunOp(b, sys, dir)
		b.StopTimer()
		runtime.ReadMemStats(&m)
		gcs += m.NumGC - gc0
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(gcs)/float64(b.N), "gc/op")
}

// The net_run op's allocation budget: a run that allocates less than the
// pacer's headroom over the live heap (GOGC 100: about the live heap,
// 6.1 MB at the ledger's settings) runs no collection inside it, and one
// that allocates more collects in its E_pol phase. 5.2 MB leaves that
// headroom a margin. The least of three runs is judged, after one that
// warms the process up.
func TestNetRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	const budget = 5.2e6
	sys := netRunFixture(t)
	base := t.TempDir()
	least := uint64(1 << 62)
	for i := range 4 {
		dir := filepath.Join(base, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		_, bytes, _ := measureAllocs(func() { netRunOp(t, sys, dir) })
		if i > 0 {
			least = min(least, bytes)
		}
	}
	t.Logf("a net_run op allocates %.2f MB (budget %.2f MB)", float64(least)/1e6, budget/1e6)
	if least > budget {
		t.Errorf("a net_run op allocates %d bytes, budget %d", least, uint64(budget))
	}
}
