// Benchmarks: one per table/figure of the paper's evaluation (regenerate
// with `go test -bench=Fig -benchmem`, or at larger scale via
// cmd/gbbench), plus ablation benchmarks for the design choices DESIGN.md
// calls out — MAC criterion, approximate math, work-division scheme,
// octree-vs-nblist substrate and the work-stealing scheduler.
package gbpolar

import (
	"runtime"
	"testing"

	"gbpolar/internal/bench"
	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/nblist"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// benchCfg is the reduced-scale configuration for in-test regeneration.
func benchCfg() bench.Config {
	return bench.Config{Seed: 2, Scale: 0.004, SuiteStride: 28, Repetitions: 2}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)  { runExperiment(b, "tableI") }
func BenchmarkTableII(b *testing.B) { runExperiment(b, "tableII") }
func BenchmarkFig5(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)   { runExperiment(b, "fig11") }

// --- Ablation benchmarks ---------------------------------------------

func benchSystem(b *testing.B, n int, params core.Params) *core.System {
	b.Helper()
	mol := molecule.GenProtein("bench", n, 3)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(mol, surf, params)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// Loose (paper-behaviour) vs strict (worst-case-bound) Born MAC.
func BenchmarkAblationBornMACLoose(b *testing.B) {
	sys := benchSystem(b, 4000, core.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBornMACStrict(b *testing.B) {
	p := core.DefaultParams()
	p.StrictBornMAC = true
	sys := benchSystem(b, 4000, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// Approximate math ON vs OFF (the paper's ≈1.42× claim).
func BenchmarkAblationExactMath(b *testing.B) {
	sys := benchSystem(b, 4000, core.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationApproxMath(b *testing.B) {
	p := core.DefaultParams()
	p.Math = mathx.Approximate
	sys := benchSystem(b, 4000, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// Work-division schemes (node-node vs atom-node vs atom-atom).
func benchScheme(b *testing.B, scheme core.Scheme) {
	b.Helper()
	sys := benchSystem(b, 3000, core.DefaultParams())
	cfg := cluster.Config{Procs: 4, ThreadsPerProc: 1, RanksPerNode: 4, Topology: cluster.Lonestar4(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunDistributedScheme(sys, cfg, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSchemeNodeNode(b *testing.B) { benchScheme(b, core.NodeNode) }
func BenchmarkAblationSchemeAtomNode(b *testing.B) { benchScheme(b, core.AtomNode) }
func BenchmarkAblationSchemeAtomAtom(b *testing.B) { benchScheme(b, core.AtomAtom) }

// Octree vs nblist substrate: construction cost and memory for growing
// cutoffs (the paper's Section II space argument).
func BenchmarkAblationOctreeBuild(b *testing.B) {
	mol := molecule.GenProtein("sub", 20000, 4)
	pts := mol.Positions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := octree.Build(pts, octree.Options{LeafCap: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t.MemoryBytes()), "bytes")
	}
}

func BenchmarkAblationNblistBuildCutoff8(b *testing.B)  { benchNblist(b, 8) }
func BenchmarkAblationNblistBuildCutoff16(b *testing.B) { benchNblist(b, 16) }
func BenchmarkAblationNblistBuildCutoff32(b *testing.B) { benchNblist(b, 32) }

func benchNblist(b *testing.B, cutoff float64) {
	b.Helper()
	mol := molecule.GenProtein("sub", 20000, 4)
	pts := mol.Positions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := nblist.Build(pts, cutoff, nblist.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(l.MemoryBytes()), "bytes")
	}
}

// Work stealing vs no parallelism at all (scheduler overhead check).
func BenchmarkAblationSchedWorkStealing(b *testing.B) {
	sys := benchSystem(b, 3000, core.DefaultParams())
	pool := sched.NewPool(4)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Pool: pool}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSchedSerial(b *testing.B) {
	sys := benchSystem(b, 3000, core.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Single-tree (this paper) vs dual-tree ([6]) Born-radius traversal.
func BenchmarkAblationBornSingleTree(b *testing.B) {
	sys := benchSystem(b, 6000, core.DefaultParams())
	pool := sched.NewPool(4)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShared(sys, core.SharedOptions{Pool: pool}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBornDualTree(b *testing.B) {
	sys := benchSystem(b, 6000, core.DefaultParams())
	pool := sched.NewPool(4)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ops := core.DualTreeBornRadii(sys, pool)
		b.ReportMetric(ops, "kernel-ops")
	}
}

// Warm-engine repeated evaluation — the docking pose-scan workload. The
// compiled variant reuses the interaction lists built on the first call
// (rigid motion preserves the near/far classification); the recursive
// variant re-runs the reference traversal from the root every pose. The
// pool is sized to the machine: oversubscribing workers on a small host
// adds scheduler churn to both variants and drowns the signal.
// EXPERIMENTS.md records the measured gap.
func benchComputeWarm(b *testing.B, recursive bool) {
	b.Helper()
	sys := benchSystem(b, 40000, core.DefaultParams())
	pool := sched.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	opts := core.SharedOptions{Pool: pool, Recursive: recursive}
	if _, err := core.RunShared(sys, opts); err != nil { // warm-up: compile lists
		b.Fatal(err)
	}
	step := geom.Translate(geom.V(1.5, -0.7, 0.9)).Compose(geom.RotateAxis(geom.V(0, 0, 1), 0.05))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ApplyRigidTransform(step)
		res, err := core.RunShared(sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ops, "kernel-ops")
	}
}

func BenchmarkComputeWarmCompiled(b *testing.B)  { benchComputeWarm(b, false) }
func BenchmarkComputeWarmRecursive(b *testing.B) { benchComputeWarm(b, true) }

// End-to-end engine benchmarks at growing sizes (scaling sanity).
func benchEngine(b *testing.B, atoms int) {
	b.Helper()
	mol := GenerateProtein("scalebench", atoms, 5)
	eng, err := NewEngine(mol, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Compute(ctx, Plan{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ops, "kernel-ops")
	}
}

func BenchmarkEngine1k(b *testing.B)  { benchEngine(b, 1000) }
func BenchmarkEngine4k(b *testing.B)  { benchEngine(b, 4000) }
func BenchmarkEngine16k(b *testing.B) { benchEngine(b, 16000) }
