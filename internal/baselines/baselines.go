// Package baselines re-implements the algorithmic approach of each GB
// package the paper compares against (Table II): Amber 12 (HCT, MPI),
// Gromacs 4.5.3 (HCT, MPI), NAMD 2.9 (OBC, MPI, with the paper's
// subtract-two-runs measurement overhead), Tinker 6.0 (Still-style,
// OpenMP-like static shared-memory parallelism) and GBr⁶ (volume-based
// r⁶, serial). All five run all pairs: EXPERIMENTS.md's Figure 8 notes say
// why Gromacs and NAMD are modelled without their cutoff lists.
//
// The comparison the paper draws is between algorithm classes — quadratic
// pairwise versus the hierarchical O(M log M) octree — so each baseline
// here executes its real pairwise algorithm and is metered by the same
// virtual clock as the octree runners. Per-package cost multipliers
// (Spec.Efficiency) account for the implementation-maturity differences
// between Fortran/C++ production codes that a re-implementation cannot
// reproduce microarchitecturally; they are scalar constants calibrated once
// against the paper's observed ratios and documented in EXPERIMENTS.md. All
// scaling behaviour — growth with M, crossovers — comes from the executed
// algorithms, not from the constants; the out-of-memory failures are each
// package's AtomLimit.
package baselines

import (
	"errors"
	"fmt"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/gbmodels"
	"gbpolar/internal/molecule"
)

// ErrAtomLimit reports a molecule beyond a package's compiled-in or
// memory-bound capacity (the paper: Tinker fails >12k atoms, GBr⁶ >13k,
// both fail on CMV).
var ErrAtomLimit = errors.New("baselines: molecule exceeds package capacity")

// Spec describes one simulated package.
type Spec struct {
	// Name as reported in the paper's Table II.
	Name string
	// GBModel is the Born-radius flavor (HCT/OBC/STILL/VR6).
	GBModel string
	// Parallelism is the Table II description.
	Parallelism string
	// Efficiency multiplies per-op cost (1.0 = the calibrated kernel
	// rate; >1 = slower per op). Calibrated against the paper's Figure 8
	// ratios; see the package comment.
	Efficiency float64
	// AtomLimit fails molecules larger than this (0 = unlimited).
	AtomLimit int
	// Shared marks OpenMP-style shared-memory-only packages (Tinker).
	Shared bool
	// Serial marks single-core packages (GBr⁶).
	Serial bool
}

// Options configures a baseline run.
type Options struct {
	// Cores is the parallel width (ranks for MPI packages, threads for
	// shared packages; ignored for serial ones).
	Cores int
	// RanksPerNode places MPI ranks (default 12, one node's worth).
	RanksPerNode int
	// OpsPerSecond is the calibrated base kernel rate (0 = calibrate).
	OpsPerSecond float64
	// MPIStartup is the per-run job-launch overhead charged to
	// distributed packages (default 1 ms).
	MPIStartup time.Duration
	// EpsSolv is the solvent dielectric (default 80).
	EpsSolv float64
	// Mode selects modeled vs real cluster accounting.
	Mode cluster.Mode
}

func (o Options) withDefaults() Options {
	if o.Cores <= 0 {
		o.Cores = 1
	}
	if o.RanksPerNode <= 0 {
		o.RanksPerNode = 12
	}
	if o.EpsSolv <= 1 {
		o.EpsSolv = 80
	}
	if o.MPIStartup == 0 {
		o.MPIStartup = time.Millisecond
	}
	return o
}

// Result is a baseline run outcome.
type Result struct {
	// Epol is the polarization energy in kcal/mol.
	Epol float64
	// BornRadii holds the package's effective Born radii.
	BornRadii []float64
	// ModelSeconds is the modeled runtime (comparable with core.Result).
	ModelSeconds float64
	// Ops counts kernel evaluations across ranks.
	Ops float64
	// Report carries cluster accounting for MPI packages.
	Report *cluster.Report
}

// Pkg is one runnable simulated package.
type Pkg struct {
	Spec Spec
}

// Standard package roster (Table II).
var (
	Amber   = &Pkg{Spec{Name: "Amber 12", GBModel: "HCT", Parallelism: "Distributed (MPI)", Efficiency: 1.0}}
	Gromacs = &Pkg{Spec{Name: "Gromacs 4.5.3", GBModel: "HCT", Parallelism: "Distributed (MPI)", Efficiency: 0.37}}
	NAMD    = &Pkg{Spec{Name: "NAMD 2.9", GBModel: "OBC", Parallelism: "Distributed (MPI)", Efficiency: 0.55}}
	Tinker  = &Pkg{Spec{Name: "Tinker 6.0", GBModel: "STILL", Parallelism: "Shared (OpenMP)", Efficiency: 1.6, AtomLimit: 12000, Shared: true}}
	GBr6    = &Pkg{Spec{Name: "GBr6", GBModel: "VR6", Parallelism: "Serial", Efficiency: 1.2, AtomLimit: 13000, Serial: true}}
)

// All returns the roster in the paper's Table II order.
func All() []*Pkg { return []*Pkg{Gromacs, NAMD, Amber, Tinker, GBr6} }

// Run computes the GB polarization energy the way the simulated package
// would.
func (p *Pkg) Run(mol *molecule.Molecule, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if p.Spec.AtomLimit > 0 && mol.NumAtoms() > p.Spec.AtomLimit {
		return nil, fmt.Errorf("%w: %s handles ≤%d atoms, molecule has %d",
			ErrAtomLimit, p.Spec.Name, p.Spec.AtomLimit, mol.NumAtoms())
	}
	switch {
	case p.Spec.Serial:
		return p.runSerial(mol, opts)
	case p.Spec.Shared:
		return p.runShared(mol, opts)
	default:
		return p.runMPI(mol, opts)
	}
}

// rate returns the package's effective ops/second.
func (p *Pkg) rate(opts Options) float64 {
	base := opts.OpsPerSecond
	if base <= 0 {
		base = 100e6
	}
	return base / p.Spec.Efficiency
}

// measureOverhead is the extra factor for NAMD: the paper could not
// isolate GB energy, so it ran the full electrostatics twice and
// subtracted — doubling the measured cost (Section V.C).
func (p *Pkg) measureOverhead() float64 {
	if p.Spec.Name == "NAMD 2.9" {
		return 2.0
	}
	return 1.0
}

// radiiRows computes the package's Born radii for rows [lo,hi) over all
// pairs, returning the radii and the op count expended.
func (p *Pkg) radiiRows(mol *molecule.Molecule, lo, hi int) ([]float64, float64) {
	ops := float64(hi-lo) * float64(mol.NumAtoms())
	switch p.Spec.GBModel {
	case "HCT":
		inv := gbmodels.HCTInverseRadiiRange(mol, lo, hi, gbmodels.HCTDescreenScale)
		return gbmodels.HCTRadiiFromInverse(mol, lo, inv), ops
	case "OBC":
		inv := gbmodels.HCTInverseRadiiRange(mol, lo, hi, gbmodels.OBCDescreenScale)
		return gbmodels.OBCRadiiFromInverse(mol, lo, inv), ops
	case "STILL":
		return gbmodels.StillRadiiRange(mol, lo, hi), ops
	case "VR6":
		return gbmodels.VR6RadiiRange(mol, lo, hi), ops
	}
	panic("baselines: unknown GB model " + p.Spec.GBModel)
}

// energyRows returns the raw ordered-pair energy sum for rows [lo,hi) over
// all pairs and the ops expended.
func energyRows(mol *molecule.Molecule, radii []float64, lo, hi int) (float64, float64) {
	return gbmodels.EnergyRange(mol, radii, lo, hi), float64(hi-lo) * float64(mol.NumAtoms())
}
