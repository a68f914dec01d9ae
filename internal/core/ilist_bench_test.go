package core

import (
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// The list back-end at the ledger's fixture: the 20 000-atom generated
// protein, Morton trees, a 2-worker pool (benchmarks/README.md). Run with
// `make bench-lists`.

func listBenchSystem(b *testing.B) (*System, *sched.Pool) {
	b.Helper()
	sys, _, _ := testSystem(b, 20000, 1, mortonParams())
	pool := sched.NewPool(2)
	b.Cleanup(pool.Close)
	return sys, pool
}

// localJiggle displaces the atoms within 6 Å of a drawn site by σ — at
// 0.05 Å, the md_step workload's perturbation.
func localJiggle(rng *rand.Rand, pos []geom.Vec3, sigma float64) []geom.Vec3 {
	out := append([]geom.Vec3(nil), pos...)
	site := pos[rng.Intn(len(pos))]
	for k, p := range pos {
		if p.Dist2(site) <= 36 {
			out[k] = p.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(sigma))
		}
	}
	return out
}

// An index compile: what a first evaluation waits for, and the nodes its
// shared descents visit (each one opening test of eight lanes per rung; the
// per-row descents they replaced visited 22.1 M).
func BenchmarkCompileLists20k(b *testing.B) {
	sys, pool := listBenchSystem(b)
	o := obs.New()
	sys.compileObserved(pool, o, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := sys.compile(pool)
		b.SetBytes(cl.MemoryBytes())
	}
	b.ReportMetric(float64(o.Counter("ilist.compile.node_visits").Value()), "node_visits/op")
}

// far8Sink keeps the benchmarked opening tests' results live.
var far8Sink uint8

// The classification's primitive, ns per opening test of eight lanes: the
// dispatched one (the assembly where the host has AVX2) and its portable
// lanes.
func BenchmarkOpenFar8(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var tile rowTile
	for l := 0; l < tileLanes; l++ {
		tile.set(l, geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(20), 2*rng.Float64())
	}
	for _, impl := range []struct {
		name string
		fn   func(t *rowTile, cx, cy, cz, r, mac float64) uint8
		skip bool
	}{{"asm", openFar8, !useAsmKernels}, {"portable", openFar8Lanes, false}} {
		b.Run(impl.name, func(b *testing.B) {
			if impl.skip {
				b.Skip("no assembly in this build")
			}
			for i := 0; i < b.N; i++ {
				far8Sink |= impl.fn(&tile, float64(i&31), 3, -2, 4, 1.5)
			}
		})
	}
}

// repairBench times one repaired step of mode per iteration, displacements
// accumulating, and reports per step the rows it changed, the lanes its
// descents classified and the nodes they visited.
func repairBench(b *testing.B, mode jiggleMode) {
	sys, pool := listBenchSystem(b)
	sys.Lists(pool)
	rng := rand.New(rand.NewSource(5))
	pos := sys.Mol.Positions()
	rows := 0
	o := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pos = mode.step(rng, pos)
		b.StartTimer()
		stats, err := sys.UpdateAtomsRepair(pos, pool, o)
		if err != nil || !stats.Repaired {
			b.Fatalf("step %d: %+v %v", i, stats, err)
		}
		rows += stats.RowsRepaired
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	b.ReportMetric(float64(o.Counter("ilist.repair.lanes_classified").Value())/float64(b.N), "lanes/op")
	b.ReportMetric(float64(o.Counter("ilist.repair.node_visits").Value())/float64(b.N), "node_visits/op")
}

// The steady state of a trajectory: one repaired local jiggle, the md_step
// workload's perturbation.
func BenchmarkRepairLists20k(b *testing.B) { repairBench(b, rtwmModes[0]) }

// The worst case: every atom jiggled, every node moved, nearly every row
// reclassified — a repair that is a compile with a re-test in front.
func BenchmarkRepairGlobal20k(b *testing.B) { repairBench(b, rtwmModes[2]) }
