package bench

import (
	"fmt"
	"math"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// Config parameterizes all experiments. The defaults run every figure at
// laptop scale; raise Scale/SuiteStride/Repetitions to approach the
// paper's full workloads.
type Config struct {
	// Seed drives every generator; a fixed seed reproduces every table
	// byte-for-byte.
	Seed int64
	// Scale shrinks the virus-shell molecules (1 = the paper's full
	// CMV/BTV sizes). Default 0.02 (≈10k-atom CMV analogue).
	Scale float64
	// SuiteStride subsamples the 84-protein ZDock-like suite (1 = all).
	// Default 7 (12 proteins).
	SuiteStride int
	// Repetitions is the per-configuration run count for min/max and
	// averaging figures (paper: 20 for Figure 6, 10 for Figure 8).
	Repetitions int
	// OpsPerSecond overrides the calibrated kernel rate (0 = calibrate).
	OpsPerSecond float64
	// NoiseSigma is the modeled OS jitter for repetition experiments.
	NoiseSigma float64
	// MPIStartup is the per-run launch overhead of distributed programs
	// (default 1 ms) — the cost that makes OCT_CILK the fastest octree
	// variant below ≈2500 atoms in the paper's Figure 7.
	MPIStartup time.Duration
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.SuiteStride <= 0 {
		c.SuiteStride = 7
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 5
	}
	if c.OpsPerSecond <= 0 {
		c.OpsPerSecond = core.CalibratedOpsPerSecond()
	}
	if c.NoiseSigma <= 0 {
		c.NoiseSigma = 0.03
	}
	if c.MPIStartup == 0 {
		c.MPIStartup = time.Millisecond
	}
	return c
}

// cilkNUMAFactor models the NUMA penalty of the affinity-less cilk++
// scheduler when one shared-memory pool spans both sockets (Section V.A:
// "cilk++ does not provide any thread affinity manager"). It multiplies
// OCT_CILK's modeled time when more than one socket's worth of threads
// share a pool; OCT_MPI+CILK avoids it by pinning one 6-thread rank per
// socket, exactly like the paper's ibrun tacc_affinity setup.
const cilkNUMAFactor = 1.3

// coresPerNode and threads-per-socket of the modeled Lonestar4 node.
const (
	coresPerNode   = 12
	threadsPerSock = 6
)

// prepared bundles a molecule with its surface and octree system.
type prepared struct {
	mol  *molecule.Molecule
	surf *surface.Surface
	sys  *core.System
}

func prepare(mol *molecule.Molecule, params core.Params) (*prepared, error) {
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: surface for %s: %w", mol.Name, err)
	}
	sys, err := core.NewSystem(mol, surf, params)
	if err != nil {
		return nil, fmt.Errorf("bench: system for %s: %w", mol.Name, err)
	}
	return &prepared{mol: mol, surf: surf, sys: sys}, nil
}

// runOctCILK is the OCT_CILK configuration: one shared-memory process
// with `threads` work-stealing workers. The NUMA factor applies when the
// pool spans sockets.
func runOctCILK(p *prepared, threads int, cfg Config) (*core.Result, error) {
	res, err := core.RunShared(p.sys, core.SharedOptions{
		Threads:      threads,
		OpsPerSecond: cfg.OpsPerSecond,
	})
	if err != nil {
		return nil, err
	}
	if threads > threadsPerSock {
		res.ModelSeconds *= cilkNUMAFactor
	}
	return res, nil
}

// octClusterConfig builds the cluster layout for `cores` total cores:
// pure MPI packs 12 single-threaded ranks per node; hybrid runs 2 ranks
// × 6 threads per node (one rank per socket, the paper's Section V.A
// placement).
func octClusterConfig(cores int, hybrid bool, cfg Config, seed int64) cluster.Config {
	nodes := (cores + coresPerNode - 1) / coresPerNode
	cc := cluster.Config{
		Topology:     cluster.Lonestar4(nodes),
		OpsPerSecond: cfg.OpsPerSecond,
		NoiseSigma:   cfg.NoiseSigma,
		Seed:         seed,
		StartupCost:  cfg.MPIStartup,
	}
	if hybrid {
		cc.Procs = cores / threadsPerSock
		cc.ThreadsPerProc = threadsPerSock
		cc.RanksPerNode = 2
	} else {
		cc.Procs = cores
		cc.ThreadsPerProc = 1
		cc.RanksPerNode = coresPerNode
	}
	return cc
}

// runOctMPI is OCT_MPI (hybrid=false) or OCT_MPI+CILK (hybrid=true) on
// the given total core count.
func runOctMPI(p *prepared, cores int, hybrid bool, cfg Config, seed int64) (*core.Result, error) {
	return core.RunDistributed(p.sys, octClusterConfig(cores, hybrid, cfg, seed))
}

// speedup formats base/t with a guard.
func speedup(base, t float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return base / t
}
