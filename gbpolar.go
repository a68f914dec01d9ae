// Package gbpolar computes the Generalized Born (GB) polarization energy
// of molecules with the octree-based hierarchical O(M log M) algorithm of
// Tithi & Chowdhury, "Polarization Energy on a Cluster of Multicores"
// (SC 2012): a Greengard–Rokhlin-style near–far decomposition over atoms
// and surface quadrature points, surface-based r⁶ Born radii, and three
// execution models — shared-memory work stealing (OCT_CILK), distributed
// message passing (OCT_MPI) and hybrid (OCT_MPI+CILK).
//
// Quick start:
//
//	mol := gbpolar.GenerateProtein("demo", 5000, 42)
//	eng, err := gbpolar.NewEngine(mol, gbpolar.Options{})
//	if err != nil { ... }
//	res, err := eng.Compute(ctx, gbpolar.Plan{}) // shared-memory, all cores
//	fmt.Println(res.Epol, "kcal/mol")
//
// Engine.Compute is the one way to run the algorithm; the Plan says where:
// Plan{Cluster: &Cluster{...}} for the modeled cluster, Plan{Net:
// &NetRun{...}} for real worker processes. For the exact quadratic
// reference use Engine.ComputeNaive.
package gbpolar

import (
	"context"
	"fmt"
	"math"
	"time"

	"gbpolar/internal/bench/gate"
	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/serve"
	"gbpolar/internal/obs/watch"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// Molecule re-exports the molecular model.
type Molecule = molecule.Molecule

// Atom re-exports the atom type.
type Atom = molecule.Atom

// Vec3 re-exports the vector type.
type Vec3 = geom.Vec3

// Transform re-exports rigid transforms (for docking pose scans).
type Transform = geom.Transform

// Surface re-exports the sampled molecular surface.
type Surface = surface.Surface

// Result is the outcome of an energy computation.
type Result = core.Result

// Options configures an Engine.
type Options struct {
	// EpsBorn is the Born-radius approximation parameter (default 0.9,
	// the paper's headline setting). Smaller = more accurate, slower.
	EpsBorn float64
	// EpsEpol is the polarization-energy approximation parameter
	// (default 0.9).
	EpsEpol float64
	// SolventDielectric defaults to 80 (water).
	SolventDielectric float64
	// ApproximateMath selects the paper's approximate-math accuracy class
	// (fast exp/rsqrt, ≈1e-4 of the exact energy), evaluated in width-4
	// lanes: core.PrecisionLanes.
	ApproximateMath bool
	// SurfaceLevel overrides the icosphere subdivision level (0 = auto).
	SurfaceLevel int
	// QuadratureDegree selects the Dunavant rule, 1–5 (0 = degree 2).
	QuadratureDegree int
	// LeafCap is the octree leaf capacity (0 = 8).
	LeafCap int
	// Builder selects the octree construction algorithm: "" or "morton"
	// (the Morton-key radix build — the prerequisite for incremental list
	// repair after atom motion) or "recursive" (the reference top-down
	// builder; node for node the same tree).
	Builder string
}

// OptionError reports an Options field whose value is neither zero (= the
// default) nor in range.
type OptionError struct {
	Field string
	Value any
	// Want describes the accepted values.
	Want string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("gbpolar: option %s = %v: want %s", e.Field, e.Value, e.Want)
}

// Validate checks every field before any work is done with it: zero
// selects the field's default, anything else out of range is an
// *OptionError — never a silent fallback to the default.
func (o Options) Validate() error {
	bad := func(field string, value any, want string) error {
		return &OptionError{Field: field, Value: value, Want: want}
	}
	eps := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) } // false for NaN
	_, builderErr := octree.ParseBuilder(o.Builder)
	switch {
	case !eps(o.EpsBorn):
		return bad("EpsBorn", o.EpsBorn, "a finite value > 0 (0 = 0.9)")
	case !eps(o.EpsEpol):
		return bad("EpsEpol", o.EpsEpol, "a finite value > 0 (0 = 0.9)")
	case o.SolventDielectric != 0 && !(o.SolventDielectric > 1 && !math.IsInf(o.SolventDielectric, 0)):
		return bad("SolventDielectric", o.SolventDielectric, "a finite value > 1 (0 = 80)")
	case o.SurfaceLevel < 0 || o.SurfaceLevel > 10:
		return bad("SurfaceLevel", o.SurfaceLevel, "0 (auto) to 10")
	case o.QuadratureDegree < 0 || o.QuadratureDegree > 5:
		return bad("QuadratureDegree", o.QuadratureDegree, "1 to 5 (0 = 2)")
	case o.LeafCap < 0:
		return bad("LeafCap", o.LeafCap, "a positive count (0 = 8)")
	case o.Builder != "" && builderErr != nil:
		return bad("Builder", o.Builder, `"", "morton" or "recursive"`)
	}
	return nil
}

// params translates validated options; zero fields keep the defaults.
func (o Options) params() core.Params {
	p := core.DefaultParams()
	p.Builder = octree.BuilderMorton
	if o.EpsBorn != 0 {
		p.EpsBorn = o.EpsBorn
	}
	if o.EpsEpol != 0 {
		p.EpsEpol = o.EpsEpol
	}
	if o.SolventDielectric != 0 {
		p.EpsSolv = o.SolventDielectric
	}
	if o.ApproximateMath {
		p.Precision = core.PrecisionLanes
	}
	if o.LeafCap != 0 {
		p.LeafCap = o.LeafCap
	}
	if o.Builder != "" {
		p.Builder, _ = octree.ParseBuilder(o.Builder)
	}
	return p
}

// KernelISA reports the instruction set the compiled kernels of both
// precision tiers execute on ("avx2+fma" or "portable").
func KernelISA() string { return core.KernelISA() }

// Observer re-exports the observability bundle: a hierarchical trace
// (per-rank phase and collective spans on both wall and virtual clocks,
// exportable as JSONL or chrome://tracing JSON) plus an allocation-free
// metrics registry. See internal/obs and DESIGN.md §8.
type Observer = obs.Obs

// NewObserver returns an observer with tracing and metrics enabled.
func NewObserver() *Observer { return obs.New() }

// FlightRecorder re-exports the crash flight recorder: a fixed-size
// lock-free ring of the most recent trace events, dumped to a
// timestamped JSONL file on death detection, degradation, panic, or
// SIGTERM. See DESIGN.md §13.
type FlightRecorder = obs.FlightRecorder

// DefaultFlightEvents is the default flight-recorder ring capacity.
const DefaultFlightEvents = obs.DefaultFlightEvents

// NewFlightRecorder returns a flight recorder keeping the last size
// events (0 = DefaultFlightEvents), dumping into dir. Attach it with
// Observer.AttachFlight.
func NewFlightRecorder(size int, dir string) *FlightRecorder {
	return obs.NewFlightRecorder(size, dir)
}

// ObsServer re-exports the live observability endpoint (/metrics in
// Prometheus text format, /healthz, /readyz, /debug/pprof).
type ObsServer = serve.Server

// ServeObs starts the live observability endpoint for o on addr
// (host:port; port 0 binds an ephemeral one — read it back from
// Addr()). For net runs prefer NetRun.ObsAddr, which also wires
// membership-backed health probes.
func ServeObs(addr string, o *Observer) (*ObsServer, error) {
	return serve.Start(addr, o, nil)
}

// Manifest re-exports the run manifest (config, seed, git describe, host
// info) that makes results/ artifacts reproducible.
type Manifest = obs.Manifest

// NewManifest collects host and revision info for the given tool, seed
// and config.
func NewManifest(tool string, seed int64, config map[string]any) *Manifest {
	return obs.NewManifest(tool, seed, config)
}

// Engine holds a molecule, its sampled surface and the prebuilt octrees.
// Building an Engine is the preprocessing step; Compute calls are the
// timed energy evaluations and can be repeated (e.g. per docking pose).
type Engine struct {
	sys  *core.System
	mol  *Molecule
	surf *Surface
	obs  *obs.Obs
}

// Observe attaches an observer to all subsequent Compute calls: phase
// and collective spans land on its trace, pair counts, batch histograms,
// steal counts and fault events on its metrics. Passing nil detaches
// (the default — disabled observability costs one branch per phase).
func (e *Engine) Observe(o *Observer) { e.obs = o }

// NewEngine samples the molecular surface and builds both octrees.
func NewEngine(mol *Molecule, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if mol == nil || mol.NumAtoms() == 0 {
		return nil, fmt.Errorf("gbpolar: molecule is empty")
	}
	if err := mol.Validate(); err != nil {
		return nil, fmt.Errorf("gbpolar: %w", err)
	}
	surf, err := surface.ForMolecule(mol, surface.Options{
		SubdivisionLevel: opts.SurfaceLevel,
		QuadratureDegree: opts.QuadratureDegree,
	})
	if err != nil {
		return nil, fmt.Errorf("gbpolar: %w", err)
	}
	return NewEngineWithSurface(mol, surf, opts)
}

// NewEngineWithSurface builds an Engine from a pre-sampled surface
// (e.g. one loaded from disk or shared between parameter sweeps).
func NewEngineWithSurface(mol *Molecule, surf *Surface, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(mol, surf, opts.params())
	if err != nil {
		return nil, fmt.Errorf("gbpolar: %w", err)
	}
	return &Engine{sys: sys, mol: mol, surf: surf}, nil
}

// Molecule returns the engine's molecule.
func (e *Engine) Molecule() *Molecule { return e.mol }

// Surface returns the engine's sampled surface.
func (e *Engine) Surface() *Surface { return e.surf }

// NumQuadraturePoints returns the surface sample count.
func (e *Engine) NumQuadraturePoints() int { return e.surf.NumPoints() }

// Cluster describes a distributed run layout.
type Cluster struct {
	// Procs is the number of ranks (P).
	Procs int
	// ThreadsPerProc is the intra-rank worker count (p); 0 or 1 = pure
	// distributed (OCT_MPI), >1 = hybrid (OCT_MPI+CILK).
	ThreadsPerProc int
	// RanksPerNode places ranks on modeled 12-core nodes (0 = all on
	// one node).
	RanksPerNode int
	// Nodes is the modeled machine size (0 = just enough nodes).
	Nodes int
	// Modeled selects virtual-clock accounting (reproducible replay of
	// large clusters); false measures wall-clock.
	Modeled bool
}

// config is THE Cluster defaulting: the (validated, so Procs ≥ 1) layout
// as the substrate's Config.
func (cl Cluster) config(o *obs.Obs) cluster.Config {
	cfg := cluster.Config{Procs: cl.Procs, ThreadsPerProc: max(cl.ThreadsPerProc, 1),
		RanksPerNode: cl.RanksPerNode, Mode: cluster.Real, Obs: o}
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = cl.Procs
	}
	nodes := cl.Nodes
	if nodes == 0 {
		nodes = (cl.Procs + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	}
	cfg.Topology = cluster.Lonestar4(nodes)
	if cl.Modeled {
		cfg.Mode = cluster.Modeled
	}
	return cfg
}

// Plan says where and how one Compute runs. The zero Plan is the
// shared-memory (OCT_CILK) algorithm on all cores.
type Plan struct {
	// Threads is the shared-memory worker count (0 = GOMAXPROCS). It
	// belongs to the shared plan; cluster plans set ThreadsPerProc.
	Threads int
	// Cluster, when non-nil, runs the distributed/hybrid algorithm
	// (Figure 4 of the paper) on the in-process cluster of that layout.
	Cluster *Cluster
	// Faults, with a Modeled Cluster, injects the plan's rank crashes,
	// message drops and delays; the run heals itself — surviving ranks
	// detect crashed peers, deterministically re-divide their work and
	// redo only the lost part, finishing with the same E_pol (to 1e-12
	// relative) or degrading to the shared-memory runner when fewer than
	// two ranks survive. Result.Report.Faults records what was injected,
	// detected and recovered.
	Faults *FaultPlan
	// Stealing, with a Modeled Cluster, adds inter-rank work stealing in
	// the energy phase — the explicit dynamic load balancing the paper's
	// Section VI names as future work; it absorbs stragglers the static
	// division cannot. Result.Stealing reports the steals.
	Stealing bool
	// Net, when non-nil, runs the distributed algorithm across real OS
	// processes over TCP.
	Net *NetRun
}

// PlanErrorCode classes the ways a Plan can be unrunnable.
type PlanErrorCode int

const (
	// PlanConflict: fields of different modes are set together.
	PlanConflict PlanErrorCode = iota + 1
	// PlanProcs: a rank count below 1.
	PlanProcs
	// PlanThreads: a negative thread, rank-placement or node count.
	PlanThreads
	// PlanWallClock: fault injection or stealing on a wall-clock cluster.
	PlanWallClock
	// PlanLayout: ranks × threads do not fit the modeled machine, or the
	// fault plan names ranks the cluster does not have.
	PlanLayout
	// PlanNetPaths: a net run without its membership or checkpoint path.
	PlanNetPaths
)

// PlanError is the typed error of Plan.Validate.
type PlanError struct {
	Code PlanErrorCode
	// Field names the offending Plan field.
	Field  string
	Reason string
}

func (e *PlanError) Error() string { return "gbpolar: plan " + e.Field + ": " + e.Reason }

// Validate checks the whole Plan before any work starts.
func (p Plan) Validate() error {
	bad := func(code PlanErrorCode, field, format string, args ...any) error {
		return &PlanError{Code: code, Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	switch {
	case p.Cluster != nil && p.Net != nil:
		return bad(PlanConflict, "Net", "set together with Cluster; a run is one or the other")
	case p.Threads != 0 && (p.Cluster != nil || p.Net != nil):
		return bad(PlanConflict, "Threads", "is the shared-memory worker count; a cluster plan sets ThreadsPerProc")
	case p.Faults != nil && p.Cluster == nil:
		return bad(PlanConflict, "Faults", "needs a Cluster to inject into")
	case p.Stealing && p.Cluster == nil:
		return bad(PlanConflict, "Stealing", "needs a Cluster to steal across")
	case p.Stealing && p.Faults != nil:
		return bad(PlanConflict, "Stealing", "set together with Faults; the stealing protocol does not heal")
	case p.Threads < 0:
		return bad(PlanThreads, "Threads", "%d is negative", p.Threads)
	}
	if cl := p.Cluster; cl != nil {
		switch {
		case cl.Procs < 1:
			return bad(PlanProcs, "Cluster.Procs", "%d, want at least 1", cl.Procs)
		case cl.ThreadsPerProc < 0 || cl.RanksPerNode < 0 || cl.Nodes < 0:
			return bad(PlanThreads, "Cluster", "ThreadsPerProc %d, RanksPerNode %d, Nodes %d: none may be negative",
				cl.ThreadsPerProc, cl.RanksPerNode, cl.Nodes)
		case !cl.Modeled && p.Faults != nil:
			return bad(PlanWallClock, "Faults", "faults are injected on the virtual clock; set Cluster.Modeled")
		case !cl.Modeled && p.Stealing:
			return bad(PlanWallClock, "Stealing", "steal timing follows the virtual clock; set Cluster.Modeled")
		}
		cfg := cl.config(nil)
		cfg.Faults = p.Faults
		if err := cfg.Validate(); err != nil {
			return bad(PlanLayout, "Cluster", "%v", err)
		}
	}
	if nr := p.Net; nr != nil {
		switch {
		case nr.Procs < 1:
			return bad(PlanProcs, "Net.Procs", "%d, want at least 1", nr.Procs)
		case nr.ThreadsPerProc < 0:
			return bad(PlanThreads, "Net.ThreadsPerProc", "%d is negative", nr.ThreadsPerProc)
		case nr.MembershipPath == "" || nr.CheckpointPath == "":
			return bad(PlanNetPaths, "Net", "needs MembershipPath and CheckpointPath")
		}
	}
	return nil
}

// Compute evaluates Born radii and E_pol as the Plan says. The Plan is
// validated first (*PlanError) and nothing runs if it is unrunnable.
// Cancelling ctx aborts a Net run in flight; the in-process plans check it
// before they start. A cluster run that cannot complete on its surviving
// ranks degrades to the shared-memory runner and reports the reason in
// Result.Report.Faults.
func (e *Engine) Compute(ctx context.Context, p Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case p.Net != nil:
		return e.computeNet(ctx, *p.Net)
	case p.Cluster == nil:
		return core.RunShared(e.sys, core.SharedOptions{Threads: p.Threads, Obs: e.obs})
	}
	cfg := p.Cluster.config(e.obs)
	cfg.Faults = p.Faults
	if p.Stealing {
		res, _, err := core.RunDistributedDynamic(e.sys, cfg)
		return res, err
	}
	return core.RunDistributed(e.sys, cfg)
}

// FaultPlan re-exports the cluster substrate's deterministic fault
// schedule (rank crashes, message drops and delays).
type FaultPlan = cluster.FaultPlan

// Fault re-exports one injected fault.
type Fault = cluster.Fault

// FaultReport re-exports the fault layer's accounting (injections,
// detections, retries, recomputed work, recovery time).
type FaultReport = cluster.FaultReport

// Fault kinds, re-exported for building FaultPlans.
const (
	CrashAtClock      = cluster.CrashAtClock
	CrashAtCollective = cluster.CrashAtCollective
	DropMessages      = cluster.DropMessages
	DelayMessages     = cluster.DelayMessages
)

// RandomFaultPlan re-exports the deterministic chaos-schedule generator.
func RandomFaultPlan(seed int64, procs, n int, horizon float64) *FaultPlan {
	return cluster.RandomFaultPlan(seed, procs, n, horizon)
}

// Memory is what an Engine holds, in bytes by structure: the octrees, the
// SoA mirrors, and the compiled interaction lists.
type Memory = core.Memory

// Memory reports what the engine holds now. The lists are 0 before the
// first Compute compiles them, and of one size from then on: evaluating,
// re-posing, checkpointing or repairing them adds nothing.
func (e *Engine) Memory() Memory { return e.sys.Memory() }

// SaveSnapshot writes a versioned, parameter-stamped binary checkpoint
// of the engine's full compiled state — molecule, surface, both octrees
// and (when already compiled) the interaction lists — with a CRC-32C
// trailer. A snapshot restores with NewEngineFromSnapshot without
// resampling, rebuilding or recompiling anything.
func (e *Engine) SaveSnapshot(path string) error {
	return core.SaveSnapshot(path, e.sys)
}

// NewEngineFromSnapshot restores an Engine from a SaveSnapshot file.
// Corruption, truncation, a future format version, a parameter mismatch
// and a retired configuration each fail with their typed sentinel
// (core.ErrSnapshotCorrupt, core.ErrSnapshotVersion, core.ErrSnapshotParams,
// core.ErrSnapshotRetired), returned unchanged.
func NewEngineFromSnapshot(path string) (*Engine, error) {
	// The snapshot is its own parameter source: one read, one decode (the
	// stamp's self-consistency is verified by the decoder).
	sys, err := core.LoadSnapshotAnyParams(path)
	if err != nil {
		return nil, err
	}
	return &Engine{sys: sys, mol: sys.Mol, surf: sys.Surf}, nil
}

// NetRun configures a real multi-process cluster run over TCP: the
// coordinator process rendezvouses Procs ranks (itself computing as rank
// 0), publishes a membership file and a checkpoint that worker processes
// load, and survives real worker deaths — a SIGKILLed rank's rows are
// re-divided among survivors, and a respawned rank is re-admitted at the
// next collective boundary. See DESIGN.md §12.
type NetRun struct {
	// Procs is the rank count; Procs-1 worker processes join over TCP.
	Procs int
	// ThreadsPerProc is the intra-rank worker count (0 = 1).
	ThreadsPerProc int
	// ListenAddr binds the coordinator ("" = ephemeral loopback port).
	ListenAddr string
	// MembershipPath is where the cluster bootstrap JSON is published.
	MembershipPath string
	// CheckpointPath is where the engine snapshot is written; workers
	// load it instead of rebuilding, and a restarted coordinator resumes
	// from it without recompiling the interaction lists.
	CheckpointPath string
	// Spawn, when non-nil, launches the worker process for a rank.
	Spawn func(rank int) error
	// RespawnDead relaunches each crashed worker once via Spawn.
	RespawnDead bool
	// StallTimeout bounds every collective round (0 = 2 minutes).
	StallTimeout time.Duration
	// ObsAddr, when non-empty, serves the live observability endpoint
	// (/metrics, /healthz, /readyz, /debug/pprof) on this address; the
	// bound address is published in the membership file. See DESIGN.md
	// §13.
	ObsAddr string
	// FlightDir, when non-empty, attaches a crash flight recorder to the
	// engine's observer: the most recent trace events are dumped to a
	// timestamped JSONL file here on death detection, degradation, or
	// panic.
	FlightDir string
	// WatchBaseline, when non-empty, loads a perf-gate baseline
	// (results/baseline.json) and runs the anomaly watchdog against the
	// live merged timeline: a phase imbalance outside the baseline's
	// tolerance envelope for several consecutive windows flips /healthz
	// to "anomalous" and dumps the flight recorder tagged with the
	// offending phase and rank. See DESIGN.md §14.
	WatchBaseline string
}

func (e *Engine) computeNet(ctx context.Context, nr NetRun) (*Result, error) {
	opts := core.NetOptions{
		Procs:          nr.Procs,
		Threads:        nr.ThreadsPerProc,
		ListenAddr:     nr.ListenAddr,
		MembershipPath: nr.MembershipPath,
		CheckpointPath: nr.CheckpointPath,
		Spawn:          nr.Spawn,
		RespawnDead:    nr.RespawnDead,
		StallTimeout:   nr.StallTimeout,
		ObsAddr:        nr.ObsAddr,
		FlightDir:      nr.FlightDir,
		Obs:            e.obs,
	}
	if nr.WatchBaseline != "" {
		base, err := gate.ReadBaseline(nr.WatchBaseline)
		if err != nil {
			return nil, fmt.Errorf("gbpolar: watch baseline: %w", err)
		}
		opts.Watch = &watch.Config{Baseline: base}
	}
	return core.RunNetCoordinator(ctx, e.sys, opts)
}

// NetWorkerOptions re-exports the worker-process configuration.
type NetWorkerOptions = core.NetWorkerOptions

// RunNetWorker is the worker-process entry point for Plan.Net runs:
// it loads the membership file and checkpoint published by the
// coordinator, joins as the given rank and computes until the protocol
// completes (or this process is the one the chaos hook kills). It
// reports whether this rank completed the protocol.
func RunNetWorker(membershipPath string, rank int, opts NetWorkerOptions) (completed bool, err error) {
	out, err := core.RunNetWorker(membershipPath, rank, opts)
	if err != nil {
		return false, err
	}
	return out.Completed, nil
}

// DynStats re-exports the inter-rank stealing statistics.
type DynStats = core.DynStats

// ComputeNaive evaluates the exact quadratic reference (Equations 2 and
// 4 of the paper) — the accuracy baseline — in the engine's math mode
// (approximate with ApproximateMath). It is Θ(M·N + M²).
func (e *Engine) ComputeNaive() (epol float64, bornRadii []float64) {
	return core.NaiveEnergy(e.mol, e.surf, e.sys.Params.EpsSolv, e.sys.Params.MathMode())
}

// Repose rigidly moves the molecule, surface and both octrees without
// rebuilding anything — the paper's docking workload (Section IV.C,
// Step 1: "we can move the same octree to different positions or rotate
// it ... by multiplying with proper transformation matrices"). Rigid
// motion preserves the near/far classification, so the engine's compiled
// interaction lists stay warm across poses: a pose scan pays the
// traversal cost once, then every Compute is a pure list sweep.
func (e *Engine) Repose(t Transform) {
	e.mol.ApplyTransform(t)
	e.surf.ApplyTransform(t)
	e.sys.ApplyRigidTransform(t)
}

// GenerateProtein deterministically generates a packed protein-like test
// molecule (see internal/molecule for the model).
func GenerateProtein(name string, atoms int, seed int64) *Molecule {
	return molecule.GenProtein(name, atoms, seed)
}

// GenerateLigand generates a small drug-like molecule.
func GenerateLigand(name string, atoms int, seed int64) *Molecule {
	return molecule.GenLigand(name, atoms, seed)
}

// GenerateCapsid generates a virus-shell-like molecule.
func GenerateCapsid(name string, atoms int, innerR, outerR float64, seed int64) *Molecule {
	return molecule.GenCapsid(name, atoms, innerR, outerR, seed)
}

// LoadMolecule reads a PQR or XYZQR file.
func LoadMolecule(path string) (*Molecule, error) { return molecule.LoadFile(path) }

// SaveMolecule writes a PQR or XYZQR file.
func SaveMolecule(path string, m *Molecule) error { return molecule.SaveFile(path, m) }

// MergeMolecules concatenates molecules (receptor + ligand complexes).
func MergeMolecules(name string, ms ...*Molecule) *Molecule {
	return molecule.Merge(name, ms...)
}
