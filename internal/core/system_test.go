package core

import (
	"runtime"
	"testing"
	"time"
)

// A System its caller drops is garbage at the next collection once its
// evaluations are over: nothing the package keeps — the reused scratch
// buffers included — may point into it. A sync.Pool embedded in the
// System broke this (the runtime's pool registry held the System until
// the second collection), so how much heap a process held after a forced
// collection depended on when its last automatic one had run.
func TestDroppedSystemFreedByOneGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		sys, _, _ := testSystem(t, 300, 1, Params{})
		for range 2 {
			if _, err := RunShared(sys, SharedOptions{Threads: 2}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.SetFinalizer(sys, func(*System) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped System outlived one garbage collection")
	}
}
