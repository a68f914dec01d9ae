package core

import (
	"runtime"
	"testing"
	"time"

	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
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

// ledgerSystem builds the benchmark ledger's system of atoms atoms
// (generator seed 2 for the 4 000-atom molecule, 1 for the 20 000-atom one)
// on Morton trees, and returns with it the heap the build retains after a
// collection, and with lists that of the build and a compile together:
// the molecule and the surface are made before either is measured.
func ledgerSystem(t *testing.T, atoms int, lists bool) (*System, uint64) {
	t.Helper()
	seed := int64(2)
	if atoms > 4000 {
		seed = 1
	}
	mol := molecule.GenProtein("bench", atoms, seed)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	var sys *System
	_, _, live := measureAllocs(func() {
		if sys, err = NewSystem(mol, surf, mortonParams()); err == nil && lists {
			sys.Lists(pool)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, live
}

// The heap a built System retains, lists excluded: its two trees, its
// columns and its node aggregates. The q-point tree is an index and the
// columns the one copy of the q-points' positions and weighted normals: with
// two more copies of the positions, one more of the normals and the q-point
// tree's Morton keys beside them, the 4 000-atom ledger molecule's System
// retained 2.79 MB and the 20 000-atom one's 11.94 MB.
func TestSystemRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	for _, c := range []struct {
		atoms  int
		budget float64
	}{{4000, 2.05e6}, {20000, 9.0e6}} {
		if c.atoms > 4000 && testing.Short() {
			continue
		}
		sys, live := ledgerSystem(t, c.atoms, false)
		t.Logf("%d atoms, %d q-points: the System retains %.2f MB (budget %.2f MB)",
			c.atoms, sys.Surf.NumPoints(), float64(live)/1e6, c.budget/1e6)
		if float64(live) > c.budget {
			t.Errorf("%d atoms: the System retains %d bytes, budget %d", c.atoms, live, uint64(c.budget))
		}
	}
}

// What Memory reports of a System and its lists is the heap they retain,
// to 5 %: a structure it left out, or counted that the System no longer
// holds, would show here.
func TestMemoryMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	sys, live := ledgerSystem(t, 4000, true)
	m := sys.Memory()
	reported := m.Octrees + m.SoA + m.ListIndex
	t.Logf("Memory: octrees %d, columns %d, lists %d = %d bytes; the heap retains %d",
		m.Octrees, m.SoA, m.ListIndex, reported, live)
	if d := float64(reported)/float64(live) - 1; d > 0.05 || d < -0.05 {
		t.Errorf("Memory reports %d bytes, the System and its lists retain %d (%+.1f %%)", reported, live, 100*d)
	}
}
