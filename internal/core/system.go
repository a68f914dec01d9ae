// Package core implements the paper's primary contribution: octree-based
// Greengard–Rokhlin-style near–far approximation of surface-r⁶
// Generalized Born radii (Figure 2: APPROX-INTEGRALS and
// PUSH-INTEGRALS-TO-ATOMS) and of the GB polarization energy (Figure 3:
// APPROX-EPOL with per-node Born-radius-binned charge histograms), plus
// the three execution models of Table II — OCT_CILK (shared memory),
// OCT_MPI (distributed) and OCT_MPI+CILK (hybrid, Figure 4) — and the
// naïve exact reference implementations of Equations 2 and 4.
package core

import (
	"fmt"
	"math"
	"sync"

	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// BornKernel selects the surface integral of the Born-radius phase.
type BornKernel int

const (
	// R6 is the surface-based r⁶ approximation of Eq. 4 (Grycuk) — the
	// paper's method, more accurate for near-spherical solutes.
	R6 BornKernel = iota
	// R4 is the Coulomb-field r⁴ approximation of Eq. 3, kept for the
	// accuracy comparison the paper cites from Grycuk 2003.
	R4
)

// String implements fmt.Stringer.
func (k BornKernel) String() string {
	if k == R4 {
		return "r4"
	}
	return "r6"
}

// Params are the tunable knobs of the octree algorithms.
type Params struct {
	// EpsBorn is the Born-radius approximation parameter ε (the paper's
	// experiments fix it at 0.9). Larger ε → faster, less accurate.
	EpsBorn float64
	// EpsEpol is the E_pol approximation parameter ε (swept 0.1–0.9 in
	// the paper's Figure 10).
	EpsEpol float64
	// EpsSolv is the solvent dielectric (default 80, water).
	EpsSolv float64
	// Kernel selects the Born-radius surface integral (default R6).
	Kernel BornKernel
	// StrictBornMAC switches the Born-phase opening criterion to the
	// worst-case (1+ε)^{1/6} bound of Section II instead of the loose
	// (1+2/ε) criterion the paper's measurements imply (see DESIGN.md
	// §1). Strict is near-exact but forfeits the Born-phase speedup
	// below ~10⁵ atoms.
	StrictBornMAC bool
	// LeafCap is the octree leaf capacity (default 8).
	LeafCap int
	// Builder selects the octree construction algorithm for both trees
	// (default the recursive reference builder; octree.BuilderMorton is
	// the sorted cold-path builder). Both produce the same decomposition
	// on realistic inputs; Morton is faster and keys the atoms tree for
	// incremental updates.
	Builder octree.Builder
	// DebugCheckLists makes every compiled-list evaluation recompile the
	// interaction lists from the current geometry and assert they match
	// the cached ones — the paranoid mode backing the rigid-transform
	// reuse invariant (DESIGN.md §6). It also re-verifies the SoA lane
	// padding invariants. Expensive; for tests and debugging.
	DebugCheckLists bool
	// Precision selects the arithmetic tier (precision.go): exact float64
	// (default) or the paper's "approximate math", laned. It does not
	// affect the interaction lists; the scalar kernels of the recursive and
	// naive reference paths follow it through MathMode.
	Precision Precision
}

// DefaultParams returns the configuration of the paper's headline runs:
// ε = 0.9 for both phases, water solvent, exact math.
func DefaultParams() Params {
	return Params{EpsBorn: 0.9, EpsEpol: 0.9, EpsSolv: 80, LeafCap: 8}
}

func (p Params) withDefaults() Params {
	if p.EpsBorn <= 0 {
		p.EpsBorn = 0.9
	}
	if p.EpsEpol <= 0 {
		p.EpsEpol = 0.9
	}
	if p.EpsSolv <= 1 {
		p.EpsSolv = 80
	}
	if p.LeafCap <= 0 {
		p.LeafCap = 8
	}
	return p
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	if math.IsNaN(p.EpsBorn) || p.EpsBorn < 0 {
		return fmt.Errorf("core: EpsBorn %g invalid", p.EpsBorn)
	}
	if math.IsNaN(p.EpsEpol) || p.EpsEpol < 0 {
		return fmt.Errorf("core: EpsEpol %g invalid", p.EpsEpol)
	}
	if p.EpsSolv <= 1 {
		return fmt.Errorf("core: EpsSolv %g must exceed 1", p.EpsSolv)
	}
	return nil
}

// System bundles a molecule, its sampled surface and the two octrees
// (T_A over atoms, T_Q over q-points) with the per-slot payloads
// re-ordered to match each tree's cache-friendly layout.
type System struct {
	Mol  *molecule.Molecule
	Surf *surface.Surface
	// Atoms is T_A; slot i corresponds to atom Atoms.Index[i].
	Atoms *octree.Tree
	// QPts is T_Q, an index without points (octree.Tree.DropPoints): slot
	// i is q-point QPts.Index[i], at (QX, QY, QZ)[i].
	QPts *octree.Tree

	// Charge and Radius are atom payloads in T_A slot order.
	Charge, Radius []float64
	// QNodeWN is Σ w_q·n_q over the q-points under each T_Q node — the
	// ñ_Q aggregate of the paper's APPROX-INTEGRALS.
	QNodeWN []geom.Vec3

	// Columns for the batched kernels (kernels.go), all in tree-slot
	// order: atom positions (a mirror of Atoms.Pts, which the tracked update
	// reads), q-point positions and weighted normals w_q·n_q (the System's
	// only copy of either), and the atoms-octree node centers. They spare
	// the inner loops Vec3 loads and Node pointer chasing, and move with the
	// geometry (UpdateAtomsRepair, ApplyRigidTransform). Each is allocated
	// at a capacity rounded up to mathx.LaneWidth, its pad slots kept zero
	// (checkSoAPadding asserts it under DebugCheckLists), so lane-blocked
	// sweeps run whole blocks with no bounds-check tail.
	AtomX, AtomY, AtomZ    []float64
	QX, QY, QZ             []float64
	WNX, WNY, WNZ          []float64
	ANodeX, ANodeY, ANodeZ []float64
	// ANodeLo and ANodeHi are every atoms-tree node's slot range
	// (Nodes[n].Start, Nodes[n].End) as flat tables: a kernel that reads a
	// leaf's atoms per list entry reads two of them, where an 80-byte Node
	// per entry would miss. Refreshed with the node centers.
	ANodeLo, ANodeHi []int32

	Params Params

	// lists caches the compiled interaction lists (ilist.go), reused
	// across Compute* calls and rigid re-poses; listsMu guards lazy
	// compilation when distributed ranks share the System.
	listsMu sync.Mutex
	lists   *CompiledLists

	// nodeScratch holds released NumNodes-sized float64 buffers (the
	// downward inheritance vector of PushIntegralsToAtoms) for reuse
	// across calls and ranks, guarded by scratchMu. A plain free list, not
	// a sync.Pool: the runtime's registry of pools points into the System
	// that embeds one, and so keeps a dropped System alive until the
	// second garbage collection after its last use — how much heap a
	// process holds then depends on when its collections happened to run.
	scratchMu   sync.Mutex
	nodeScratch [][]float64
}

// NewSystem builds the octrees and aggregates for a molecule/surface
// pair. It is the preprocessing step the paper's timing excludes
// ("we can consider the octree construction cost as a pre-processing
// cost", Section IV.C); Runner implementations time the energy phases
// only, like the paper.
func NewSystem(mol *molecule.Molecule, surf *surface.Surface, params Params) (*System, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if mol.NumAtoms() == 0 {
		return nil, fmt.Errorf("core: molecule %q has no atoms", mol.Name)
	}
	if err := mol.CheckAtoms(); err != nil {
		return nil, fmt.Errorf("core: molecule %q: %w", mol.Name, err)
	}
	if surf.NumPoints() == 0 {
		return nil, fmt.Errorf("core: surface has no quadrature points")
	}

	// The two trees share nothing: build them side by side.
	opts := octree.Options{LeafCap: params.LeafCap, Builder: params.Builder}
	var ta, tq *octree.Tree
	var errA, errQ error
	sched.Together(
		func() { ta, errA = octree.Build(mol.Positions(), opts) },
		func() {
			qpos := make([]geom.Vec3, surf.NumPoints())
			for i, p := range surf.Points {
				qpos[i] = p.Pos
			}
			tq, errQ = octree.Build(qpos, opts)
		})
	if errA != nil {
		return nil, fmt.Errorf("core: atoms octree: %w", errA)
	}
	if errQ != nil {
		return nil, fmt.Errorf("core: q-points octree: %w", errQ)
	}
	return assembleSystem(mol, surf, ta, tq, params), nil
}

// assembleSystem derives the slot-ordered payloads, node aggregates and
// columns of ALREADY-BUILT octrees — the tail of NewSystem, which the
// snapshot loader (snapshot.go) shares to skip the rebuild. params must be
// defaulted and validated, and ta and tq must index mol's atoms and surf's
// q-points; tq's points are dropped once the columns are gathered. A
// worker's snapshot (decodeWorkerSnapshot) has no surface side: surf and
// tq are nil, and the System derives nothing from them.
func assembleSystem(mol *molecule.Molecule, surf *surface.Surface, ta, tq *octree.Tree, params Params) *System {
	s := &System{Mol: mol, Surf: surf, Atoms: ta, QPts: tq, Params: params}
	// Everything derived from T_A on one side, everything derived from T_Q
	// on the other: the halves write disjoint fields.
	sched.Together(
		func() {
			s.Charge = make([]float64, mol.NumAtoms(), padLanes(mol.NumAtoms()))
			s.Radius = make([]float64, mol.NumAtoms(), padLanes(mol.NumAtoms()))
			for slot, orig := range ta.Index {
				s.Charge[slot] = mol.Atoms[orig].Charge
				s.Radius[slot] = mol.Atoms[orig].Radius
			}
			s.refreshAtomSoA()
		},
		func() {
			if tq == nil {
				return
			}
			n := len(tq.Index)
			col := func() []float64 { return make([]float64, n, padLanes(n)) }
			s.QX, s.QY, s.QZ, s.WNX, s.WNY, s.WNZ = col(), col(), col(), col(), col(), col()
			sched.Fan(n, fanGrain, func(lo, hi int) {
				for slot := lo; slot < hi; slot++ {
					p := &surf.Points[tq.Index[slot]]
					wn := p.Normal.Scale(p.Weight)
					s.QX[slot], s.QY[slot], s.QZ[slot] = p.Pos.X, p.Pos.Y, p.Pos.Z
					s.WNX[slot], s.WNY[slot], s.WNZ[slot] = wn.X, wn.Y, wn.Z
				}
			})
			s.QNodeWN = qNodeAggregates(tq, s.WNX, s.WNY, s.WNZ)
			tq.DropPoints()
		})
	return s
}

// refreshAtomSoA rebuilds the flat atom-position, node-center and
// node-range arrays from the atoms octree (after construction, update or
// rigid motion).
func (s *System) refreshAtomSoA() {
	pts, n := s.Atoms.Pts, s.Atoms.NumNodes()
	s.AtomX, s.AtomY, s.AtomZ = padded3(len(pts), s.AtomX, s.AtomY, s.AtomZ)
	s.ANodeX, s.ANodeY, s.ANodeZ = padded3(n, s.ANodeX, s.ANodeY, s.ANodeZ)
	if cap(s.ANodeLo) < n {
		s.ANodeLo, s.ANodeHi = make([]int32, n), make([]int32, n)
	}
	s.ANodeLo, s.ANodeHi = s.ANodeLo[:n], s.ANodeHi[:n]
	sched.Fan(len(pts), fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.AtomX[i], s.AtomY[i], s.AtomZ[i] = pts[i].X, pts[i].Y, pts[i].Z
		}
	})
	sched.Fan(n, fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nd := &s.Atoms.Nodes[i]
			s.ANodeX[i], s.ANodeY[i], s.ANodeZ[i] = nd.Center.X, nd.Center.Y, nd.Center.Z
			s.ANodeLo[i], s.ANodeHi[i] = nd.Start, nd.End
		}
	})
}

// fanGrain is the chunk of the element-wise loops that run through
// sched.Fan — SoA scatters, re-posing: a few microseconds of work each, so
// a molecule of a few thousand atoms stays on the calling goroutine.
const fanGrain = 4096

// padLanes rounds a SoA length up to the next lane-width multiple — the
// padded capacity every component array is allocated with.
func padLanes(n int) int {
	return (n + mathx.LaneWidth - 1) &^ (mathx.LaneWidth - 1)
}

// zeroPad clears the pad slots between len and the padded capacity of
// equally-sized component arrays, keeping the padding invariant across
// capacity reuse (a shrinking node count would otherwise leave stale
// values in the pad).
func zeroPad(arrs ...[]float64) {
	for _, a := range arrs {
		for i, p := len(a), padLanes(len(a)); i < p; i++ {
			a[:p][i] = 0
		}
	}
}

// padded3 reslices three component arrays to n, reallocating them at the
// lane-padded capacity (padLanes) when short, and zeroes their pad slots.
func padded3(n int, x, y, z []float64) ([]float64, []float64, []float64) {
	if p := padLanes(n); cap(x) < p {
		x, y, z = make([]float64, p), make([]float64, p), make([]float64, p)
	}
	x, y, z = x[:n], y[:n], z[:n]
	zeroPad(x, y, z)
	return x, y, z
}

// checkSoAPadding asserts the lane-padding invariant of every SoA
// component array: capacity rounded up to mathx.LaneWidth with zeroed
// pad slots. Run by RecheckLists, i.e. under Params.DebugCheckLists.
func (s *System) checkSoAPadding() error {
	for name, a := range map[string][]float64{
		"Charge": s.Charge, "Radius": s.Radius,
		"AtomX": s.AtomX, "AtomY": s.AtomY, "AtomZ": s.AtomZ,
		"QX": s.QX, "QY": s.QY, "QZ": s.QZ, "WNX": s.WNX, "WNY": s.WNY, "WNZ": s.WNZ,
		"ANodeX": s.ANodeX, "ANodeY": s.ANodeY, "ANodeZ": s.ANodeZ,
	} {
		p := padLanes(len(a))
		if cap(a) < p {
			return fmt.Errorf("core: SoA array %s has cap %d < padded len %d (lane width %d)",
				name, cap(a), p, mathx.LaneWidth)
		}
		for i := len(a); i < p; i++ {
			if a[:p][i] != 0 {
				return fmt.Errorf("core: SoA array %s pad slot %d is %g, want 0", name, i, a[:p][i])
			}
		}
	}
	return nil
}

// ApplyRigidTransform rigidly moves the whole system — both octrees, the
// q-point columns, the node aggregates and the atom mirrors — in place,
// every element-wise loop split across the cores (sched.Fan). Rigid motion
// preserves every pairwise distance and node radius, so the compiled lists
// stay valid and are deliberately NOT invalidated (the reuse invariant of
// DESIGN.md §6; Params.DebugCheckLists re-verifies it at every evaluation).
func (s *System) ApplyRigidTransform(t geom.Transform) {
	s.Atoms.ApplyTransform(t)
	s.QPts.ApplyTransform(t) // its nodes: the columns are its points
	sched.Fan(len(s.QX), fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := t.Apply(geom.Vec3{X: s.QX[i], Y: s.QY[i], Z: s.QZ[i]})
			n := t.ApplyVector(geom.Vec3{X: s.WNX[i], Y: s.WNY[i], Z: s.WNZ[i]})
			s.QX[i], s.QY[i], s.QZ[i] = p.X, p.Y, p.Z
			s.WNX[i], s.WNY[i], s.WNZ[i] = n.X, n.Y, n.Z
		}
	})
	sched.Fan(len(s.QNodeWN), fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.QNodeWN[i] = t.ApplyVector(s.QNodeWN[i])
		}
	})
	s.refreshAtomSoA()
}

// InvalidateLists drops the cached interaction lists; the next Compute*
// recompiles them. Called whenever a non-rigid geometry change (or a
// parameter change) breaks the near/far classification.
func (s *System) InvalidateLists() {
	s.listsMu.Lock()
	s.lists = nil
	s.listsMu.Unlock()
}

// grabNodeScratch returns a zeroed NumNodes-sized scratch buffer from
// the free list (concurrent ranks each get their own).
func (s *System) grabNodeScratch() []float64 {
	n := s.Atoms.NumNodes()
	var buf []float64
	s.scratchMu.Lock()
	if k := len(s.nodeScratch); k > 0 {
		buf = s.nodeScratch[k-1]
		s.nodeScratch[k-1] = nil
		s.nodeScratch = s.nodeScratch[:k-1]
	}
	s.scratchMu.Unlock()
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *System) releaseNodeScratch(buf []float64) {
	s.scratchMu.Lock()
	s.nodeScratch = append(s.nodeScratch, buf)
	s.scratchMu.Unlock()
}

// qNodeAggregates computes Σ w·n per node from a prefix sum, in slot
// order, of the weighted-normal columns over the contiguous slot ranges.
func qNodeAggregates(t *octree.Tree, wx, wy, wz []float64) []geom.Vec3 {
	prefix := make([]geom.Vec3, len(wx)+1)
	for i := range wx {
		prefix[i+1] = prefix[i].Add(geom.Vec3{X: wx[i], Y: wy[i], Z: wz[i]})
	}
	out := make([]geom.Vec3, t.NumNodes())
	for i := range t.Nodes {
		n := &t.Nodes[i]
		out[i] = prefix[n.End].Sub(prefix[n.Start])
	}
	return out
}

// MemoryBytes is the paper's Section V.B per-rank quantity: the inputs,
// the two octrees and their per-slot payloads (the q-point columns among
// them), which every MPI rank replicates. It excludes the compiled lists
// and the atom-side mirrors, which the paper has no counterpart for (at
// 20 000 atoms the lists alone are 10× it); Memory reports everything.
func (s *System) MemoryBytes() int64 {
	n := s.Mol.MemoryBytes() + s.Atoms.MemoryBytes() + int64(cap(s.Charge)+cap(s.Radius))*8
	if s.QPts != nil { // a worker's system holds no surface side
		n += s.Surf.MemoryBytes() + s.QPts.MemoryBytes() + int64(cap(s.QNodeWN))*24 +
			columnBytes(s.QX, s.QY, s.QZ, s.WNX, s.WNY, s.WNZ)
	}
	return n
}

// columnBytes is the heap of float64 columns, at their padded capacity.
func columnBytes(cols ...[]float64) (n int64) {
	for _, c := range cols {
		n += int64(cap(c)) * 8
	}
	return n
}

// Memory is what a System holds, in bytes by structure.
type Memory struct {
	// Octrees is both trees: nodes, permutations and leaf lists, and the
	// atoms tree's points and Morton keys (the q-point tree has neither).
	Octrees int64 `json:"octree_bytes"`
	// SoA is every table beside the trees, at its capacity: the columns and
	// node tables the batch kernels read, and QNodeWN.
	SoA int64 `json:"soa_bytes"`
	// ListIndex is the compiled lists (ilist.go) — a list is its index:
	// 0 before the first compile, and the same size compiled or repaired.
	ListIndex int64 `json:"list_index_bytes"`
}

// Memory reports what the system holds now, inputs excluded.
func (s *System) Memory() Memory {
	m := Memory{
		Octrees: s.Atoms.MemoryBytes() + s.QPts.MemoryBytes(),
		SoA: columnBytes(s.Charge, s.Radius, s.AtomX, s.AtomY, s.AtomZ, s.QX, s.QY, s.QZ,
			s.WNX, s.WNY, s.WNZ, s.ANodeX, s.ANodeY, s.ANodeZ) +
			int64(cap(s.ANodeLo)+cap(s.ANodeHi))*4 + int64(cap(s.QNodeWN))*24,
	}
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	if s.lists != nil {
		m.ListIndex = s.lists.MemoryBytes()
	}
	return m
}

// RecordMemory publishes the gauges mem.octree_bytes and mem.soa_bytes;
// the lists publish theirs (CompiledLists.RecordMetrics). No-op when o is
// nil.
func (s *System) RecordMemory(o *obs.Obs) {
	if o == nil {
		return
	}
	m := s.Memory()
	o.Gauge("mem.octree_bytes").Set(float64(m.Octrees))
	o.Gauge("mem.soa_bytes").Set(float64(m.SoA))
}

// kern returns the scalar kernels of the system's precision tier
// (Params.MathMode), so the whole pipeline stays in one accuracy class.
func (s *System) kern() mathx.Kernels { return mathx.ForMode(s.Params.MathMode()) }

// BornRadiiToOriginalOrder maps tree-slot-ordered Born radii back to the
// molecule's original atom order.
func (s *System) BornRadiiToOriginalOrder(slotRadii []float64) []float64 {
	out := make([]float64, len(slotRadii))
	for slot, orig := range s.Atoms.Index {
		out[orig] = slotRadii[slot]
	}
	return out
}
