package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Fan runs fn over [0, n) in chunks of grain indices on up to GOMAXPROCS
// goroutines, the caller among them, and returns when every chunk is done.
// It is the fan-out of the stages that run before any Pool exists (surface
// sampling, octree builds, system assembly, re-posing); code handed a Pool
// uses ParallelFor on it instead, so its work lands on the pool's workers.
//
// Chunk c is [c·grain, min((c+1)·grain, n)) whatever the core count, so a
// caller that writes only its chunk's outputs gets the same result on any
// number of cores. A panic in fn is re-raised on the caller's goroutine once
// the others have stopped.
func Fan(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	workers := min(chunks, runtime.GOMAXPROCS(0))
	if workers == 1 {
		for lo := 0; lo < n; lo += grain {
			fn(lo, min(lo+grain, n))
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				panicMu.Unlock()
				next.Store(int64(chunks)) // the others stop at their next claim
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			fn(c*grain, min((c+1)*grain, n))
		}
	}
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Together runs the given functions through Fan, one chunk each.
func Together(fns ...func()) {
	Fan(len(fns), 1, func(lo, _ int) { fns[lo]() })
}
