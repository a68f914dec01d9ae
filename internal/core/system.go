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
	// QPts is T_Q; slot i corresponds to q-point QPts.Index[i].
	QPts *octree.Tree

	// Charge and Radius are atom payloads in T_A slot order.
	Charge, Radius []float64
	// WN is the weight-premultiplied surface normal w_q·n_q per q-point
	// in T_Q slot order.
	WN []geom.Vec3
	// QNodeWN is Σ w_q·n_q over the q-points under each T_Q node — the
	// ñ_Q aggregate of the paper's APPROX-INTEGRALS.
	QNodeWN []geom.Vec3

	// SoA mirrors for the batched kernels (kernels.go), all in tree-slot
	// order: atom positions, q-point positions, the weight-premultiplied
	// surface normals, and the atoms-octree node centers. The flat
	// component arrays let the inner loops run without Vec3 struct loads
	// or Node pointer chasing; they are refreshed whenever the underlying
	// geometry moves (UpdateAtoms, ApplyRigidTransform). Each array is
	// allocated with its capacity rounded up to mathx.LaneWidth and the
	// pad slots kept at zero (checkSoAPadding asserts this under
	// DebugCheckLists), so lane-blocked sweeps can run whole blocks with no
	// bounds-check tail.
	AtomX, AtomY, AtomZ    []float64
	QX, QY, QZ             []float64
	WNX, WNY, WNZ          []float64
	ANodeX, ANodeY, ANodeZ []float64

	Params Params

	// lists caches the compiled interaction lists (ilist.go), reused
	// across Compute* calls and rigid re-poses; listsMu guards lazy
	// compilation when distributed ranks share the System.
	listsMu sync.Mutex
	lists   *CompiledLists

	// nodeScratch pools NumNodes-sized float64 buffers (the downward
	// inheritance vector of PushIntegralsToAtoms) across calls and ranks.
	nodeScratch sync.Pool
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
// SoA mirrors for ALREADY-BUILT octrees — the tail of NewSystem, split
// out so the snapshot loader (snapshot.go) can reconstruct a System from
// serialized trees without rebuilding them. params must already be
// defaulted and validated, and the trees must index mol/surf (ta over
// the atom positions, tq over the q-point positions).
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
			s.WN = make([]geom.Vec3, surf.NumPoints())
			for slot, orig := range tq.Index {
				p := surf.Points[orig]
				s.WN[slot] = p.Normal.Scale(p.Weight)
			}
			s.QNodeWN = qNodeAggregates(tq, s.WN)
			s.refreshQPointSoA()
		})
	return s
}

// refreshAtomSoA rebuilds the flat atom-position and node-center arrays
// from the atoms octree (after construction, update or rigid motion).
func (s *System) refreshAtomSoA() {
	s.AtomX, s.AtomY, s.AtomZ = splitVecs(s.Atoms.Pts, s.AtomX, s.AtomY, s.AtomZ)
	n := s.Atoms.NumNodes()
	p := padLanes(n)
	if cap(s.ANodeX) < p {
		s.ANodeX = make([]float64, p)
		s.ANodeY = make([]float64, p)
		s.ANodeZ = make([]float64, p)
	}
	s.ANodeX, s.ANodeY, s.ANodeZ = s.ANodeX[:n], s.ANodeY[:n], s.ANodeZ[:n]
	zeroPad(s.ANodeX, s.ANodeY, s.ANodeZ)
	sched.Fan(n, fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := s.Atoms.Nodes[i].Center
			s.ANodeX[i], s.ANodeY[i], s.ANodeZ[i] = c.X, c.Y, c.Z
		}
	})
}

// refreshQPointSoA rebuilds the flat q-point position and weighted-normal
// arrays from the q-points octree and WN.
func (s *System) refreshQPointSoA() {
	s.QX, s.QY, s.QZ = splitVecs(s.QPts.Pts, s.QX, s.QY, s.QZ)
	s.WNX, s.WNY, s.WNZ = splitVecs(s.WN, s.WNX, s.WNY, s.WNZ)
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

// splitVecs scatters an AoS Vec3 slice into three component arrays,
// reusing the destination capacity when possible. Arrays are allocated
// with lane-padded capacity and zeroed pad slots (see padLanes).
func splitVecs(src []geom.Vec3, x, y, z []float64) (ox, oy, oz []float64) {
	p := padLanes(len(src))
	if cap(x) < p {
		x = make([]float64, p)
		y = make([]float64, p)
		z = make([]float64, p)
	}
	x, y, z = x[:len(src)], y[:len(src)], z[:len(src)]
	zeroPad(x, y, z)
	sched.Fan(len(src), fanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i], y[i], z[i] = src[i].X, src[i].Y, src[i].Z
		}
	})
	return x, y, z
}

// checkSoAPadding asserts the lane-padding invariant of every SoA
// component array: capacity rounded up to mathx.LaneWidth with zeroed
// pad slots. Run by RecheckLists, i.e. under Params.DebugCheckLists.
func (s *System) checkSoAPadding() error {
	check := func(name string, a []float64) error {
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
		return nil
	}
	for _, c := range []struct {
		name string
		a    []float64
	}{
		{"Charge", s.Charge}, {"Radius", s.Radius},
		{"AtomX", s.AtomX}, {"AtomY", s.AtomY}, {"AtomZ", s.AtomZ},
		{"QX", s.QX}, {"QY", s.QY}, {"QZ", s.QZ},
		{"WNX", s.WNX}, {"WNY", s.WNY}, {"WNZ", s.WNZ},
		{"ANodeX", s.ANodeX}, {"ANodeY", s.ANodeY}, {"ANodeZ", s.ANodeZ},
	} {
		if err := check(c.name, c.a); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRigidTransform rigidly moves the whole system — both octrees, the
// weighted normals and the SoA mirrors — without rebuilding anything,
// every element-wise loop of it split across the cores (sched.Fan).
// Rigid motion preserves every pairwise distance and every node radius,
// so the near/far classification of the compiled interaction lists stays
// valid and the lists are deliberately NOT invalidated (the reuse
// invariant of DESIGN.md §6; Params.DebugCheckLists re-verifies it at
// every evaluation).
func (s *System) ApplyRigidTransform(t geom.Transform) {
	s.Atoms.ApplyTransform(t)
	s.QPts.ApplyTransform(t)
	for _, vecs := range [][]geom.Vec3{s.WN, s.QNodeWN} {
		sched.Fan(len(vecs), fanGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vecs[i] = t.ApplyVector(vecs[i])
			}
		})
	}
	s.refreshAtomSoA()
	s.refreshQPointSoA()
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
// the pool (concurrent ranks each get their own).
func (s *System) grabNodeScratch() []float64 {
	n := s.Atoms.NumNodes()
	if v := s.nodeScratch.Get(); v != nil {
		if buf := *v.(*[]float64); cap(buf) >= n {
			buf = buf[:n]
			for i := range buf {
				buf[i] = 0
			}
			return buf
		}
	}
	return make([]float64, n)
}

func (s *System) releaseNodeScratch(buf []float64) {
	s.nodeScratch.Put(&buf)
}

// qNodeAggregates computes Σ w·n per node from a prefix sum over the
// contiguous slot ranges.
func qNodeAggregates(t *octree.Tree, wn []geom.Vec3) []geom.Vec3 {
	prefix := make([]geom.Vec3, len(wn)+1)
	for i, v := range wn {
		prefix[i+1] = prefix[i].Add(v)
	}
	out := make([]geom.Vec3, t.NumNodes())
	for i := range t.Nodes {
		n := &t.Nodes[i]
		out[i] = prefix[n.End].Sub(prefix[n.Start])
	}
	return out
}

// MemoryBytes is the paper's Section V.B per-rank quantity — the inputs,
// the two octrees and their per-slot payloads, which every MPI rank
// replicates — and nothing else: it EXCLUDES the compiled interaction
// lists and the SoA mirrors, structures of this implementation that the
// paper's comparison has no counterpart for and that outweigh it several
// times over (at 20 000 atoms the lists alone are 10× it). Memory reports
// those.
func (s *System) MemoryBytes() int64 {
	return s.Mol.MemoryBytes() + s.Surf.MemoryBytes() +
		s.Atoms.MemoryBytes() + s.QPts.MemoryBytes() +
		int64(len(s.Charge)+len(s.Radius))*8 +
		int64(len(s.WN)+len(s.QNodeWN))*24
}

// Memory is what a System holds, in bytes by structure.
type Memory struct {
	// Octrees is both trees: nodes, permutations and points.
	Octrees int64 `json:"octree_bytes"`
	// SoA is the flat float64 component mirrors the batch kernels read, at
	// their padded capacity.
	SoA int64 `json:"soa_bytes"`
	// ListIndex is the compiled lists (ilist.go) — a list is its index:
	// 0 before the first compile, and the same size compiled or repaired.
	ListIndex int64 `json:"list_index_bytes"`
}

// Memory reports what the system holds now.
func (s *System) Memory() Memory {
	m := Memory{Octrees: s.Atoms.MemoryBytes() + s.QPts.MemoryBytes()}
	for _, a := range [][]float64{s.AtomX, s.AtomY, s.AtomZ, s.QX, s.QY, s.QZ,
		s.WNX, s.WNY, s.WNZ, s.ANodeX, s.ANodeY, s.ANodeZ} {
		m.SoA += int64(cap(a)) * 8
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

// UpdateAtoms moves the atoms to new positions (original atom order) and
// incrementally repairs the atoms octree (octree.Tree.Update — the
// dynamic-octree machinery of the paper's reference [8]), re-deriving the
// slot-ordered payloads. The surface and its octree are left untouched:
// this is the rigid-cavity setting of flexible-molecule steps between
// boundary rebuilds. It returns the number of atoms that changed leaf.
func (s *System) UpdateAtoms(newPositions []geom.Vec3) (moved int, err error) {
	if len(newPositions) != s.Mol.NumAtoms() {
		return 0, fmt.Errorf("core: UpdateAtoms with %d positions for %d atoms",
			len(newPositions), s.Mol.NumAtoms())
	}
	moved, err = s.Atoms.Update(newPositions)
	if err != nil {
		return moved, err
	}
	s.commitAtomPositions(newPositions)
	// Non-rigid motion: the compiled near/far classification is stale.
	// (UpdateAtomsRepair is the variant that repairs it instead.)
	s.InvalidateLists()
	return moved, nil
}

// BornRadiiToOriginalOrder maps tree-slot-ordered Born radii back to the
// molecule's original atom order.
func (s *System) BornRadiiToOriginalOrder(slotRadii []float64) []float64 {
	out := make([]float64, len(slotRadii))
	for slot, orig := range s.Atoms.Index {
		out[orig] = slotRadii[slot]
	}
	return out
}
