package core

import (
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
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

// localJiggle displaces the atoms within 6 Å of a drawn site by
// σ = 0.05 Å — the md_step workload's perturbation.
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

// An index compile: what a first evaluation waits for.
func BenchmarkCompileLists20k(b *testing.B) {
	sys, pool := listBenchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := sys.compile(pool)
		b.SetBytes(cl.MemoryBytes())
	}
}

// The materialisation alone: the certified build of compiled lists and the
// check of its index against theirs, which the first repair pays once.
func BenchmarkCertifyLists20k(b *testing.B) {
	sys, pool := listBenchSystem(b)
	index := sys.compile(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := sys.materialize(index, pool, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(cl.MemoryBytes())
	}
}

// The steady state of a trajectory: one repaired local jiggle of lists
// that already carry their certificate.
func BenchmarkRepairLists20k(b *testing.B) {
	sys, pool := listBenchSystem(b)
	sys.Lists(pool)
	certifyLists(b, sys, pool)
	rng := rand.New(rand.NewSource(5))
	pos := sys.Mol.Positions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pos = localJiggle(rng, pos, 0.05)
		b.StartTimer()
		stats, err := sys.UpdateAtomsRepair(pos, pool, nil)
		if err != nil || !stats.Repaired {
			b.Fatalf("step %d: %+v %v", i, stats, err)
		}
	}
}
