package bench

import (
	"fmt"
	"io"
	"time"

	"gbpolar/internal/bench/gate"
	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
	"gbpolar/internal/octree"
)

// This file is the performance regression gate (`gbbench -baseline` /
// `-compare`, `make perfgate`): the fixed gate workload — a traced
// 4-rank resilient run with one injected crash — is measured N times,
// each repetition reduced to the analyzer's summary stats, and the
// per-stat medians snapshotted into results/baseline.json. A compare run
// re-measures and fails when any tracked stat regresses beyond a
// noise-aware relative tolerance: a per-axis floor plus a multiple of
// the observed run-to-run spread on both sides. The statistical core
// (median/spread reduction, tolerance policy, comparison) lives in
// internal/bench/gate so the live anomaly watchdog (internal/obs/watch)
// shares it; this file keeps the gate workload itself. See DESIGN.md §9.

const (
	gateProcs     = 4
	gateCrashRank = 1
	gateCrashNth  = 2

	// gateOpsPerSecond pins the cost model instead of calibrating it, so
	// the virtual-axis stats are machine-independent: a baseline written
	// on one host compares cleanly on another, and only the wall-axis
	// stats carry real hardware speed.
	gateOpsPerSecond = 1e9
)

// GateStat re-exports the gate package's per-stat distribution.
type GateStat = gate.Stat

// Baseline re-exports the persisted gate snapshot (results/baseline.json).
type Baseline = gate.Baseline

// GateRow re-exports one stat's baseline-vs-current verdict.
type GateRow = gate.Row

// CompareBaselines judges current against base stat-by-stat (see
// gate.Compare).
func CompareBaselines(base, current *Baseline) (rows []GateRow, ok bool) {
	return gate.Compare(base, current)
}

// FprintGate renders the comparison (see gate.Fprint).
func FprintGate(w io.Writer, rows []GateRow, verbose bool) error {
	return gate.Fprint(w, rows, verbose)
}

// ReadBaseline loads a baseline written by Baseline.WriteFile.
func ReadBaseline(path string) (*Baseline, error) { return gate.ReadBaseline(path) }

// gateRun executes the gate workload once against a prepared system:
// the 4-rank resilient OCT_MPI replay with rank 1 crashing at its 2nd
// collective, fully traced.
func gateRun(p *prepared, seed int64, o *obs.Obs) error {
	cc := cluster.Config{
		Topology:       cluster.Lonestar4(1),
		Procs:          gateProcs,
		ThreadsPerProc: 1,
		RanksPerNode:   gateProcs,
		OpsPerSecond:   gateOpsPerSecond,
		Seed:           seed,
		Faults: &cluster.FaultPlan{Faults: []cluster.Fault{
			{Kind: cluster.CrashAtCollective, Rank: gateCrashRank, Nth: gateCrashNth},
		}},
		Obs: o,
	}
	_, err := core.RunDistributedResilient(p.sys, cc)
	return err
}

// gatePrepare builds the gate molecule/system once; repetitions reuse it
// so the warm compiled-list path is what the gate times.
func gatePrepare(atoms int, seed int64) (*prepared, error) {
	mol := molecule.GenProtein(fmt.Sprintf("gate-%d", atoms), atoms, seed)
	return prepare(mol, paperParams(mathx.Exact))
}

// gateBuildStats is the "build" measurement class: one cold octree
// construction per builder over the gate molecule's atom positions,
// timed wall-clock. The stat names carry "wall" so the comparison
// applies the generous wall-clock tolerance floor — these are real
// timings, not modeled ones.
func gateBuildStats(p *prepared) (map[string]float64, error) {
	pts := p.mol.Positions()
	out := make(map[string]float64, 2)
	for _, b := range []struct {
		stat    string
		builder octree.Builder
	}{
		{"build.recursive.wall_ms", octree.BuilderRecursive},
		{"build.morton.wall_ms", octree.BuilderMorton},
	} {
		t0 := time.Now()
		if _, err := octree.Build(pts, octree.Options{Builder: b.builder}); err != nil {
			return nil, fmt.Errorf("bench: gate %s: %w", b.stat, err)
		}
		out[b.stat] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return out, nil
}

// gateSampler is one prepared gate system, warmed up: each sample call
// measures one repetition of the gate workload on it.
type gateSampler struct {
	p    *prepared
	seed int64
}

// newGateSampler prepares the gate system and discards one warm-up run,
// so list compilation and pool growth don't pollute the wall stats.
func newGateSampler(atoms int, seed int64) (*gateSampler, error) {
	p, err := gatePrepare(atoms, seed)
	if err != nil {
		return nil, err
	}
	if err := gateRun(p, seed, nil); err != nil {
		return nil, err
	}
	return &gateSampler{p: p, seed: seed}, nil
}

// sample is one repetition: the analyzer summary of a traced gate run,
// merged with the cold-build and kernel stats.
func (g *gateSampler) sample() (map[string]float64, error) {
	o := obs.New()
	if err := gateRun(g.p, g.seed, o); err != nil {
		return nil, err
	}
	s := analyze.FromTrace(o.Trace).Summary()
	builds, err := gateBuildStats(g.p)
	if err != nil {
		return nil, err
	}
	for k, v := range builds {
		s[k] = v
	}
	kernels, err := gateKernelStats(g.p)
	if err != nil {
		return nil, err
	}
	for k, v := range kernels {
		s[k] = v
	}
	return s, nil
}

// GateSamples measures the gate workload reps times and returns one
// analyzer summary per repetition (see gateSampler).
func GateSamples(atoms, reps int, seed int64) ([]map[string]float64, error) {
	g, err := newGateSampler(atoms, seed)
	if err != nil {
		return nil, err
	}
	samples := make([]map[string]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		s, err := g.sample()
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// BuildBaseline reduces per-repetition summaries to median + spread per
// stat (see gate.Reduce) and stamps the gate workload's shape.
func BuildBaseline(samples []map[string]float64, atoms int, seed int64) *Baseline {
	return &Baseline{
		Schema: gate.Schema,
		Atoms:  atoms, Procs: gateProcs,
		Reps: len(samples), Seed: seed,
		Stats: gate.Reduce(samples),
	}
}
