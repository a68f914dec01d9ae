package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// Differential tests of the list back-end (ilist.go, ilist_repair.go):
// the transpose-based symmetrization against the sort + binary-search
// implementation it replaced (the margins it also carried went with the
// repair certificate), pooled against serial compiles, and chains of
// repairs against fresh compiles. `make race` runs all of it under the
// race detector.

// oracleRow is one row's lists in the oracle's per-row form.
type oracleRow struct {
	near, sym, cede []int32
}

// symmetrizeNearOracle is the production symmetrization up to PR 11, kept
// verbatim as the reference: per row a sorted copy of its near list, per
// entry a binary search of the partner's.
func symmetrizeNearOracle(numNodes int, rows []int32, per []oracleRow) {
	rowOf := make([]int32, numNodes)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for i, r := range rows {
		rowOf[r] = int32(i)
	}
	sorted := make([][]int32, len(per))
	for i := range per {
		c := append([]int32(nil), per[i].near...)
		slices.Sort(c)
		sorted[i] = c
	}
	for i := range per {
		kept := per[i].near[:0]
		for _, u := range per[i].near {
			j := int(rowOf[u])
			switch {
			case j == i:
				kept = append(kept, u)
			case j > i:
				if _, ok := slices.BinarySearch(sorted[j], rows[i]); ok {
					per[i].sym = append(per[i].sym, u)
				} else {
					kept = append(kept, u)
				}
			default:
				if _, ok := slices.BinarySearch(sorted[j], rows[i]); !ok {
					kept = append(kept, u)
				} else {
					per[i].cede = append(per[i].cede, u)
				}
			}
		}
		per[i].near = kept
	}
}

// listFixtures are the molecule shapes of the table: a globular protein,
// a hollow shell (deep tree near the surface, empty inside), a molecule
// that fits one leaf, and two atoms.
func listFixtures() []*molecule.Molecule {
	return []*molecule.Molecule{
		molecule.GenProtein("globular", 700, 301),
		molecule.GenCapsid("shell", 900, 14, 19, 302),
		molecule.GenProtein("one-leaf", 6, 303),
		molecule.GenProtein("two-atom", 2, 304),
	}
}

// numOrders is the number of opening configurations the list tables run
// their fixtures under, orderParams 0 to numOrders−1.
const numOrders = 3

// orderParams returns p as a list table's row "order<order>" compiles it.
// The rows keep the names of the far-field orders the lists were compiled
// at while there was more than one; with order 0 the only far field, the
// rows loosen one phase's opening test each instead, so every list path
// also runs on far lists that start nearer the root: order 0 is p itself,
// order 1 the E_pol phase's ε a third larger, order 2 the Born phase's (at
// the default ε, about the multiplier the loosest rung of the retired
// ladder admitted Born far entries at).
func orderParams(p Params, order int) Params {
	switch order {
	case 1:
		p.EpsEpol *= 4.0 / 3
	case 2:
		p.EpsBorn *= 4.0 / 3
	}
	return p
}

// fixtureSystem builds a Morton system of mol under orderParams.
func fixtureSystem(t testing.TB, mol *molecule.Molecule, order int) *System {
	t.Helper()
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, orderParams(mortonParams(), order))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// forPools runs fn with no pool and with pools of 1, 2 and 4 workers.
func forPools(t *testing.T, fn func(t *testing.T, pool *sched.Pool)) {
	t.Run("serial", func(t *testing.T) { fn(t, nil) })
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("pool%d", w), func(t *testing.T) {
			pool := sched.NewPool(w)
			defer pool.Close()
			fn(t, pool)
		})
	}
}

// forFixtures runs fn on every fixture at orders 0 and 2 (orderParams);
// build returns a fresh system each call.
func forFixtures(t *testing.T, fn func(t *testing.T, build func() *System)) {
	for _, mol := range listFixtures() {
		for _, order := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/order%d", mol.Name, order), func(t *testing.T) {
				fn(t, func() *System { return fixtureSystem(t, mol.Clone(), order) })
			})
		}
	}
}

// The new symmetrization must split every row exactly as the oracle does:
// same near/sym/cede entries in the same order.
func TestSymmetrizeMatchesOracle(t *testing.T) {
	forFixtures(t, func(t *testing.T, build func() *System) {
		sys := build()
		_, epol := sys.listPhases(sys.compile(nil))
		// The same phase without the split: its rows merged back are the
		// pre-symmetrization lists the oracle starts from.
		unsplit := epol
		unsplit.symmetrize = false
		pre := perRowLists(unsplit.index(nil), sys.Atoms)
		per := make([]oracleRow, len(pre.Rows))
		for i := range per {
			per[i].near = slices.Clone(pre.Near[pre.NearOff[i]:pre.NearOff[i+1]])
		}
		symmetrizeNearOracle(len(sys.Atoms.Nodes), pre.Rows, per)
		var want oracleRow
		off := [3][]int32{{0}, {0}, {0}}
		for i := range per {
			want.near = append(want.near, per[i].near...)
			want.sym = append(want.sym, per[i].sym...)
			want.cede = append(want.cede, per[i].cede...)
			off[0] = append(off[0], int32(len(want.near)))
			off[1] = append(off[1], int32(len(want.sym)))
			off[2] = append(off[2], int32(len(want.cede)))
		}
		forPools(t, func(t *testing.T, pool *sched.Pool) {
			got := perRowLists(epol.index(pool), sys.Atoms)
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"NearOff", got.NearOff, off[0]}, {"SymOff", got.SymOff, off[1]}, {"CedeOff", got.CedeOff, off[2]},
				{"Near", got.Near, want.near}, {"Sym", got.Sym, want.sym}, {"Cede", got.Cede, want.cede},
			} {
				// An empty list is empty either way.
				if reflect.ValueOf(c.got).Len()+reflect.ValueOf(c.want).Len() > 0 && !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s differs from the oracle", c.name)
				}
			}
		})
	})
}

// A compile on a pool must be byte-identical to the serial compile.
func TestCompilePoolMatchesSerial(t *testing.T) {
	forFixtures(t, func(t *testing.T, build func() *System) {
		sys := build()
		want := sys.compile(nil)
		forPools(t, func(t *testing.T, pool *sched.Pool) {
			if got := sys.compile(pool); !reflect.DeepEqual(got, want) {
				t.Error("pooled compile differs from the serial compile")
			}
		})
	})
}

// Ten cumulative local jiggles, each repaired in place: after every step
// the cached lists must be a fresh compile's, array for array — through
// copied, re-split and freshly classified rows alike.
func TestRepairChainMatchesFreshCompile(t *testing.T) {
	forFixtures(t, func(t *testing.T, build func() *System) {
		forPools(t, func(t *testing.T, pool *sched.Pool) {
			sys := build()
			sys.Lists(pool)
			rng := rand.New(rand.NewSource(305))
			pos := sys.Mol.Positions()
			repaired, carried := 0, 0
			for step := 0; step < 10; step++ {
				pos = localJiggle(rng, pos, 0.05)
				stats, err := sys.UpdateAtomsRepair(pos, pool, nil)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if !stats.Repaired {
					sys.Lists(pool) // rebuilt octree: compile afresh and go on
					continue
				}
				repaired++
				carried += stats.RowsTotal - stats.RowsRepaired
				if fresh := sys.compile(pool); !reflect.DeepEqual(sys.lists, fresh) {
					t.Fatalf("step %d: repaired lists differ from a fresh compile", step)
				}
			}
			if sys.Mol.NumAtoms() > 100 && (repaired < 8 || carried == 0) {
				t.Errorf("%d of 10 steps repaired, %d rows carried: the chain exercised too little", repaired, carried)
			}
		})
	})
}

// A trajectory, not a step: 2 000 cumulative local jiggles of σ = 0.05 Å on
// the 1 500-atom protein, each repaired on a pool of two, and every 500
// steps RecheckLists — a fresh compile over the same tree, diffed against
// the held lists, which have by then been repaired up to 500 times over.
// Every step must repair; the nodes the tracked updates leave behind,
// against those still reachable, are logged for ROADMAP item 14(b), which
// owns them. Skipped under -short, as it takes about twenty seconds, and
// under the race detector, which TestRepairChainMatchesFreshCompile's
// chains already run under.
func TestRepairLongChainMatchesFreshCompile(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2 000 repaired steps")
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	sys := fixtureSystem(t, codProtein(), 0)
	sys.Lists(pool)
	rng := rand.New(rand.NewSource(311))
	pos := sys.Mol.Positions()
	repaired := 0
	for step := 1; step <= 2000; step++ {
		pos = localJiggle(rng, pos, 0.05)
		stats, err := sys.UpdateAtomsRepair(pos, pool, nil)
		if err != nil || !stats.Repaired {
			t.Fatalf("step %d: not repaired: %+v %v", step, stats, err)
		}
		repaired += stats.RowsRepaired
		if step%500 == 0 {
			if err := sys.RecheckLists(pool); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			t.Logf("step %d: %d of %d rows reclassified a step; the atoms tree holds %d nodes, %d of them reachable",
				step, repaired/step, stats.RowsTotal, sys.Atoms.NumNodes(), sys.Atoms.NumReachableNodes())
		}
	}
}

// measureAllocs runs fn between two collections and reports the objects and
// bytes it allocated and the bytes it left alive.
func measureAllocs(fn func()) (objects, bytes, live uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	objects, bytes = b.Mallocs-a.Mallocs, b.TotalAlloc-a.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&b)
	return objects, bytes, b.HeapAlloc - min(a.HeapAlloc, b.HeapAlloc)
}

// The allocation budget of the back-end: every call allocates a number of
// objects that depends on the worker and chunk count, not on rows or
// entries (the per-row appends of PR 11 made 290 000 at this size), and
// keeps nothing alive but the lists it leaves behind. A compile allocates
// at most 2.5 times the bytes of its lists — the lists, the chunk arenas
// they were collected in, and the transpose of the near relation; a repair
// at most 1.6 times — the lists, the arenas of the rows it classified, a
// few words a node and a row, and the octree update's own scratch — and
// the lists it replaces die with the call.
func TestListBackendAllocBudget(t *testing.T) {
	sys, _, _ := testSystem(t, 4000, 2, mortonParams())
	pool := sched.NewPool(2)
	defer pool.Close()
	// Objects: a fixed set of arrays per phase plus one task closure per
	// chunk of each parallel loop (8 chunks per worker, ~10 loops, 2
	// phases), and the octree update's own scratch on the repair path.
	const maxObjects = 512
	check := func(what string, objects, bytes, live uint64, budget float64, lists, liveWant int64) {
		t.Helper()
		t.Logf("%s: %d objects, %.2f x list bytes allocated, %.2f x live", what, objects,
			float64(bytes)/float64(lists), float64(live)/float64(lists))
		if objects > maxObjects {
			t.Errorf("%s allocates %d objects, budget %d", what, objects, maxObjects)
		}
		if float64(bytes) > budget*float64(lists) {
			t.Errorf("%s allocates %d bytes for %d bytes of lists, budget %gx", what, bytes, lists, budget)
		}
		if live > uint64(liveWant+lists/8) {
			t.Errorf("%s leaves %d more bytes alive, want %d: scratch retained", what, live, liveWant)
		}
	}
	var cl *CompiledLists
	objects, bytes, live := measureAllocs(func() { cl = sys.compile(pool) })
	check("compile", objects, bytes, live, 2.5, cl.MemoryBytes(), cl.MemoryBytes())
	cl = nil

	sys.Lists(pool)
	rng := rand.New(rand.NewSource(306))
	pos := sys.Mol.Positions()
	for step := 0; step < 2; step++ {
		pos = localJiggle(rng, pos, 0.05)
		objects, bytes, live = measureAllocs(func() {
			if stats, err := sys.UpdateAtomsRepair(pos, pool, nil); err != nil || !stats.Repaired {
				t.Fatalf("not repaired: %+v %v", stats, err)
			}
		})
		check(fmt.Sprintf("repair %d", step), objects, bytes, live, 1.6, sys.lists.MemoryBytes(), 0)
	}
}
