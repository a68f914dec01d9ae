package sched

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSingleTask(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ran := int32(0)
	p.Run(func(w *Worker) { atomic.AddInt32(&ran, 1) })
	if ran != 1 {
		t.Fatalf("root ran %d times", ran)
	}
}

func TestSpawnFanOut(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const n = 10000
	var count int32
	p.Run(func(w *Worker) {
		for i := 0; i < n; i++ {
			w.Spawn(func(w2 *Worker) { atomic.AddInt32(&count, 1) })
		}
	})
	if count != n {
		t.Fatalf("ran %d of %d spawned tasks", count, n)
	}
}

func TestRecursiveSpawnTree(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var count int64
	var grow func(depth int) Task
	grow = func(depth int) Task {
		return func(w *Worker) {
			atomic.AddInt64(&count, 1)
			if depth > 0 {
				w.Spawn(grow(depth - 1))
				w.Spawn(grow(depth - 1))
			}
		}
	}
	p.Run(grow(12)) // 2^13 - 1 tasks
	if want := int64(1<<13 - 1); count != want {
		t.Fatalf("count = %d want %d", count, want)
	}
}

func TestRunReusable(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 5; round++ {
		var count int32
		p.Run(func(w *Worker) {
			for i := 0; i < 100; i++ {
				w.Spawn(func(*Worker) { atomic.AddInt32(&count, 1) })
			}
		})
		if count != 100 {
			t.Fatalf("round %d: count = %d", round, count)
		}
	}
}

func TestParallelForCoversExactlyOnce(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const n = 100000
	hits := make([]int32, n)
	ParallelFor(p, n, 64, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ParallelFor(p, 0, 10, func(lo, hi, w int) { t.Error("called for n=0") })
	ran := int32(0)
	ParallelFor(p, 1, 0, func(lo, hi, w int) { atomic.AddInt32(&ran, 1) }) // grain<=0 normalized
	if ran != 1 {
		t.Errorf("n=1 ran %d times", ran)
	}
}

func TestParallelForUsesMultipleWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU")
	}
	p := NewPool(4)
	defer p.Close()
	var used [4]int32
	ParallelFor(p, 4000, 1, func(lo, hi, worker int) {
		atomic.AddInt32(&used[worker], 1)
		time.Sleep(10 * time.Microsecond)
	})
	distinct := 0
	for _, u := range used {
		if u > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		t.Errorf("only %d workers participated", distinct)
	}
	if p.Steals() == 0 {
		t.Error("no steals recorded despite fine-grained imbalance")
	}
}

func TestAccumulators(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	acc := NewAccumulators(p.NumWorkers())
	const n = 50000
	ParallelFor(p, n, 128, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			acc.Add(worker, float64(i))
		}
	})
	want := float64(n) * float64(n-1) / 2
	if got := acc.Sum(); got != want {
		t.Fatalf("Sum = %v want %v", got, want)
	}
	acc.Reset()
	if acc.Sum() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	p.Run(func(w *Worker) {
		for i := 0; i < 10; i++ {
			w.Spawn(func(*Worker) {})
		}
		panic("boom")
	})
}

func TestPoolSurvivesPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.Run(func(w *Worker) { panic("first") })
	}()
	// The pool must still work.
	ran := int32(0)
	p.Run(func(w *Worker) { atomic.AddInt32(&ran, 1) })
	if ran != 1 {
		t.Fatal("pool broken after panic")
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
}

func TestSingleWorkerPool(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var order []int
	p.Run(func(w *Worker) {
		for i := 0; i < 5; i++ {
			i := i
			w.Spawn(func(*Worker) { order = append(order, i) })
		}
	})
	if len(order) != 5 {
		t.Fatalf("ran %d tasks", len(order))
	}
	// Single worker pops LIFO, so spawned tasks run in reverse order.
	for i, v := range order {
		if v != 4-i {
			t.Fatalf("order = %v, want LIFO", order)
		}
	}
}

func TestStressRandomTrees(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 10; round++ {
		var count int64
		expected := int64(1)
		var build func(fanout, depth int) Task
		build = func(fanout, depth int) Task {
			return func(w *Worker) {
				atomic.AddInt64(&count, 1)
				if depth == 0 {
					return
				}
				for i := 0; i < fanout; i++ {
					w.Spawn(build(fanout, depth-1))
				}
			}
		}
		fanout := 1 + rng.Intn(4)
		depth := 1 + rng.Intn(6)
		expected = 0
		pow := int64(1)
		for d := 0; d <= depth; d++ {
			expected += pow
			pow *= int64(fanout)
		}
		p.Run(build(fanout, depth))
		if count != expected {
			t.Fatalf("round %d: count=%d want %d (fanout=%d depth=%d)",
				round, count, expected, fanout, depth)
		}
	}
}

func TestNewPoolDefaultSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.NumWorkers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default pool size %d", p.NumWorkers())
	}
}

func BenchmarkParallelForSum(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	acc := NewAccumulators(p.NumWorkers())
	data := make([]float64, 1<<20)
	for i := range data {
		data[i] = float64(i % 97)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		acc.Reset()
		ParallelFor(p, len(data), 4096, func(lo, hi, w int) {
			var s float64
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			acc.Add(w, s)
		})
	}
}

func BenchmarkSpawnOverhead(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	b.ResetTimer()
	p.Run(func(w *Worker) {
		for i := 0; i < b.N; i++ {
			w.Spawn(func(*Worker) {})
		}
	})
}

// TestBackToBackRuns: a Run that starts just as the workers finish
// searching after the previous one must still get its root executed. The
// worker loop used to read the wake-up epoch AFTER its search, so a root
// pushed in between was slept on and Run never returned — a few hundred
// thousand empty Runs hit the window on any pool size.
func TestBackToBackRuns(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 300000; i++ {
				p.Run(func(*Worker) {})
			}
		}()
		select {
		case <-done:
			p.Close()
		case <-time.After(60 * time.Second):
			t.Fatalf("%d workers: a Run never returned", workers)
		}
	}
}

func TestFanCoversExactlyOnceInFixedChunks(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range []struct{ n, grain int }{{0, 4}, {1, 4}, {4, 4}, {1000, 7}, {1000, 0}, {5, 100}} {
			hits := make([]int32, tc.n)
			Fan(tc.n, tc.grain, func(lo, hi int) {
				g := max(tc.grain, 1)
				if lo%g != 0 || hi != min(lo+g, tc.n) {
					t.Errorf("GOMAXPROCS %d n %d grain %d: chunk [%d,%d)", procs, tc.n, tc.grain, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS %d n %d grain %d: index %d ran %d times", procs, tc.n, tc.grain, i, h)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestFanRunsChunksConcurrently(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	// Every chunk waits for all four to have started: this returns only if
	// four goroutines run them at once.
	var started sync.WaitGroup
	started.Add(4)
	var ran atomic.Int32
	Together(
		func() { started.Done(); started.Wait(); ran.Add(1) },
		func() { started.Done(); started.Wait(); ran.Add(1) },
		func() { started.Done(); started.Wait(); ran.Add(1) },
		func() { started.Done(); started.Wait(); ran.Add(1) },
	)
	if ran.Load() != 4 {
		t.Fatalf("%d of 4 functions ran", ran.Load())
	}
}

func TestFanPanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("GOMAXPROCS %d: recovered %v, want boom", procs, r)
				}
			}()
			Fan(64, 1, func(lo, _ int) {
				if lo == 17 {
					panic("boom")
				}
			})
			t.Errorf("GOMAXPROCS %d: Fan returned after a panic", procs)
		}()
		runtime.GOMAXPROCS(prev)
	}
}
