package core

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
	"gbpolar/internal/wire"
)

// This file is the checkpoint format of the multi-process runner: a
// versioned, parameter-stamped binary snapshot of a System — molecule,
// surface, both octrees and (when compiled) the interaction lists — so a
// crashed-and-restarted coordinator resumes from the preprocessed state
// instead of rebuilding trees and recompiling lists. The list block holds
// what the lists hold, their index, and nothing else. The format is
// deliberately hostile-input safe: every array length is validated
// against the bytes remaining before allocation (internal/wire), the
// whole payload is covered by a CRC-32C trailer, and every structural
// invariant the kernels rely on (CSR shape, index bounds, permutation
// and geometry consistency) is re-checked on load, so a truncated,
// bit-flipped or adversarial snapshot fails with a typed error and can
// never panic the kernels downstream.

// Typed snapshot failures, distinguishable with errors.Is.
var (
	// ErrSnapshotCorrupt reports a snapshot that is truncated, fails its
	// checksum, or violates a structural invariant.
	ErrSnapshotCorrupt = errors.New("core: snapshot corrupt")
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = errors.New("core: snapshot version unsupported")
	// ErrSnapshotParams reports a well-formed snapshot whose parameter
	// stamp does not match the parameters the caller is running under.
	ErrSnapshotParams = errors.New("core: snapshot parameter mismatch")
)

const (
	snapshotMagic = "GBPSNAP1"
	// The layout: the parameters, the molecule, the surface, both trees —
	// each its permutation, shape, keys and its nodes as one block of
	// columns, not its points, which the molecule and the surface give
	// (octree.Tree.AppendTo) — and each phase's lists — its rows, then every
	// CSR of its tiles' own runs (near, sym and far), masks beside the
	// entries, and of their shared runs (InteractionLists.arrays), not the
	// tiles' cut, which the rows make.
	// Checkpoints are written and read by one build — the net runner's
	// workers and restart — so an image of any other version is refused with
	// ErrSnapshotVersion.
	snapshotVersion = 9
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// appendParams writes the canonical parameter encoding — the bytes the
// fingerprint hashes and the file stores. DebugCheckLists is excluded:
// it is a runtime verification knob that does not affect any computed
// state, so toggling it must not invalidate checkpoints.
func appendParams(w *wire.Writer, p Params) {
	w.F64(p.EpsBorn)
	w.F64(p.EpsEpol)
	w.F64(p.EpsSolv)
	w.U8(uint8(p.Kernel))
	w.U8(uint8(p.Precision))
	w.U8(uint8(p.Builder))
	w.Bool(p.StrictBornMAC)
	w.U32(uint32(p.LeafCap))
}

// ParamsFingerprint hashes the result-determining parameters (after
// defaulting) to the 64-bit stamp embedded in snapshots: two runs agree
// on the fingerprint exactly when a snapshot from one is a valid
// checkpoint for the other.
func ParamsFingerprint(p Params) uint64 {
	var w wire.Writer
	appendParams(&w, p.withDefaults())
	h := fnv.New64a()
	h.Write(w.Bytes())
	return h.Sum64()
}

// snapshotLists runs the checks every encoding starts with and returns
// the compiled lists to embed (nil when there are none for the current
// geometry). A system whose octree geometry has diverged from its
// molecule/surface is refused (a re-posed System transforms the trees in
// place but not the input structures): the loader re-derives payloads
// from the inputs and would silently restore pre-transform state.
func snapshotLists(sys *System) (*CompiledLists, error) {
	if err := checkGeometryConsistent(sys); err != nil {
		return nil, fmt.Errorf("core: snapshot of transformed system: %v", err)
	}
	sys.listsMu.Lock()
	lists := sys.lists
	sys.listsMu.Unlock()
	if !lists.matches(sys) {
		lists = nil
	}
	return lists, nil
}

// encodeSnapshot writes the snapshot, all but its CRC trailer, onto w —
// the one encoder behind EncodeSnapshot (a buffer) and SaveSnapshot (a
// stream). Every array goes out whole from the live slice.
func encodeSnapshot(w *wire.Writer, sys *System, lists *CompiledLists) {
	w.Raw([]byte(snapshotMagic))
	w.U16(snapshotVersion)
	w.U64(ParamsFingerprint(sys.Params))
	appendParams(w, sys.Params)

	w.Str(sys.Mol.Name)
	wire.PutF64Records(w, sys.Mol.Atoms)

	w.I32(int32(sys.Surf.Level))
	w.I32(int32(sys.Surf.Degree))
	w.F64(sys.Surf.Area)
	wire.PutF64Records(w, sys.Surf.Points)

	sys.Atoms.AppendTo(w)
	sys.QPts.AppendTo(w)

	w.Bool(lists != nil)
	if lists != nil {
		w.F64(lists.bornMAC)
		w.F64(lists.epolFar)
		appendIL(w, lists.Born)
		appendIL(w, lists.Epol)
	}
}

// EncodeSnapshot serializes the system into one buffer, sized by a first
// pass of the encoder that writes nowhere and allocated once.
func EncodeSnapshot(sys *System) ([]byte, error) {
	lists, err := snapshotLists(sys)
	if err != nil {
		return nil, err
	}
	sizer := wire.NewStreamWriter(io.Discard)
	encodeSnapshot(sizer, sys, lists)
	var w wire.Writer
	w.Grow(sizer.Len() + 4)
	encodeSnapshot(&w, sys, lists)
	w.U32(crc32.Checksum(w.Bytes(), snapshotCRC))
	return w.Bytes(), nil
}

// DecodeSnapshot reconstructs a System from EncodeSnapshot's output,
// restoring the stamped parameters. Check order: magic/size and CRC
// (ErrSnapshotCorrupt), version (ErrSnapshotVersion), parameter-stamp
// self-consistency (ErrSnapshotParams), then structure. The octrees are
// NOT rebuilt and the interaction lists (when present) NOT recompiled —
// that is the point of checkpointing. The System keeps no byte of data:
// every array is copied out of it (loadSnapshot unmaps a mapped file once
// this returns).
func DecodeSnapshot(data []byte) (*System, error) { return decodeSnapshot(data, false) }

// decodeWorkerSnapshot is what a worker of a TCP run decodes: the E_pol
// phase's side of the snapshot, since the Born and push phases belong to
// rank 0 (pipeline.go, holders). It checks the whole file's CRC as
// DecodeSnapshot does, decodes and validates the parameters, the molecule,
// the atoms tree and the E_pol lists, and steps over the surface, the
// q-point tree and the Born lists by their length prefixes, each
// bounds-checked, none of their bytes read. The System holds no surface
// side — Surf, QPts, WN, QNodeWN and the lists' Born phase are nil — and a
// snapshot without lists is refused: a worker could not compile them.
func decodeWorkerSnapshot(data []byte) (*System, error) { return decodeSnapshot(data, true) }

// decodeSnapshot is DecodeSnapshot, or with worker decodeWorkerSnapshot.
func decodeSnapshot(data []byte, worker bool) (*System, error) {
	if len(data) < len(snapshotMagic)+2+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	body := data[:len(data)-4]
	r := wire.NewReader(data[len(snapshotMagic) : len(data)-4])
	version := r.U16()
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrSnapshotVersion, version, snapshotVersion)
	}
	// CRC after the version gate: a future-version snapshot should report
	// "too new", not "corrupt", even though its layout is unknown here.
	stored := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if crc32.Checksum(body, snapshotCRC) != stored {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	stamp := r.U64()
	params, err := decodeParams(r)
	if err != nil {
		return nil, err
	}
	if got := ParamsFingerprint(params); got != stamp {
		return nil, fmt.Errorf("%w: stamp %016x does not cover stored parameters (%016x)",
			ErrSnapshotParams, stamp, got)
	}

	mol, err := decodeMolecule(r)
	if err != nil {
		return nil, err
	}
	var surf *surface.Surface
	if worker {
		r.Next(4 + 4 + 8) // the level, the degree, the area
		r.SkipArray(8)    // the q-points
	} else if surf, err = decodeSurface(r); err != nil {
		return nil, err
	}

	// The trees' points are the molecule's and the surface's, gathered
	// through each tree's validated permutation: they index exactly that
	// geometry by construction.
	ta, err := octree.DecodeTree(r, len(mol.Atoms), func(i int) geom.Vec3 { return mol.Atoms[i].Pos })
	if err != nil {
		return nil, fmt.Errorf("%w: atoms octree: %v", ErrSnapshotCorrupt, err)
	}
	var tq *octree.Tree
	if worker {
		octree.SkipTree(r)
	} else if tq, err = octree.DecodeTree(r, len(surf.Points), func(i int) geom.Vec3 { return surf.Points[i].Pos }); err != nil {
		return nil, fmt.Errorf("%w: q-points octree: %v", ErrSnapshotCorrupt, err)
	}

	var lists *CompiledLists
	if r.Bool() {
		cl := &CompiledLists{bornMAC: r.F64(), epolFar: r.F64()}
		if worker {
			skipIL(r)
		} else {
			cl.Born = decodeIL(r)
		}
		cl.Epol = decodeIL(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
		}
		// The phases are checked side by side; the Born phase's failure is
		// the one reported when both fail.
		var scans [2]listScan
		var errs [2]error
		sched.Together(
			func() {
				if !worker {
					scans[phaseBorn], errs[0] = validateIL("born", cl.Born, tq, ta)
				}
			},
			func() { scans[phaseEpol], errs[1] = validateIL("epol", cl.Epol, ta, ta) })
		if err := cmp.Or(errs[0], errs[1]); err != nil {
			return nil, err
		}
		cl.cost[phaseBorn], cl.cost[phaseEpol], cl.epolNear = scans[phaseBorn].cost, scans[phaseEpol].cost, scans[phaseEpol].near
		lists = cl
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Remaining())
	}
	if worker && lists == nil {
		return nil, fmt.Errorf("core: a worker's snapshot carries no compiled lists")
	}

	sys := assembleSystem(mol, surf, ta, tq, params)
	if lists != nil {
		// A list block whose opening criteria disagree with the stamped
		// parameters can only be a crafted inconsistency: reject rather
		// than silently recompiling on first use.
		if !lists.matches(sys) {
			return nil, fmt.Errorf("%w: list block compiled under bornMAC=%g epolFar=%g, parameters imply %g/%g",
				ErrSnapshotCorrupt, lists.bornMAC, lists.epolFar, sys.bornMAC(), epolFarFactor(sys.Params.EpsEpol))
		}
		sys.lists = lists
	}
	return sys, nil
}

// decodeParams reads and range-checks the parameter section.
func decodeParams(r *wire.Reader) (Params, error) {
	var p Params
	p.EpsBorn = r.F64()
	p.EpsEpol = r.F64()
	p.EpsSolv = r.F64()
	p.Kernel = BornKernel(r.U8())
	p.Precision = Precision(r.U8())
	p.Builder = octree.Builder(r.U8())
	p.StrictBornMAC = r.Bool()
	p.LeafCap = int(r.U32())
	if r.Err() != nil {
		return Params{}, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
	}
	if p.Kernel != R6 && p.Kernel != R4 {
		return Params{}, fmt.Errorf("%w: born kernel %d", ErrSnapshotCorrupt, p.Kernel)
	}
	if p.Precision < PrecisionExact || p.Precision > PrecisionLanes {
		return Params{}, fmt.Errorf("%w: precision tier %d", ErrSnapshotCorrupt, p.Precision)
	}
	if p.Builder != octree.BuilderRecursive && p.Builder != octree.BuilderMorton {
		return Params{}, fmt.Errorf("%w: octree builder %d", ErrSnapshotCorrupt, p.Builder)
	}
	if p.LeafCap <= 0 || p.LeafCap > 1<<20 {
		return Params{}, fmt.Errorf("%w: leaf cap %d", ErrSnapshotCorrupt, p.LeafCap)
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return p, nil
}

// decodeMolecule reads and validates the molecule section.
func decodeMolecule(r *wire.Reader) (*molecule.Molecule, error) {
	mol := &molecule.Molecule{Name: r.Str(), Atoms: wire.F64Records[molecule.Atom](r)}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
	}
	if len(mol.Atoms) == 0 {
		return nil, fmt.Errorf("%w: molecule without atoms", ErrSnapshotCorrupt)
	}
	if err := mol.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return mol, nil
}

// decodeSurface reads and validates the surface section.
func decodeSurface(r *wire.Reader) (*surface.Surface, error) {
	s := &surface.Surface{
		Level:  int(r.I32()),
		Degree: int(r.I32()),
		Area:   r.F64(),
	}
	s.Points = wire.F64Records[surface.Point](r)
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
	}
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("%w: surface without q-points", ErrSnapshotCorrupt)
	}
	if !finite(s.Area) {
		return nil, fmt.Errorf("%w: surface area %g", ErrSnapshotCorrupt, s.Area)
	}
	for i := range s.Points {
		p := &s.Points[i]
		if !p.Pos.IsFinite() || !p.Normal.IsFinite() || !finite(p.Weight) {
			return nil, fmt.Errorf("%w: q-point %d not finite", ErrSnapshotCorrupt, i)
		}
	}
	return s, nil
}

// validateIL re-establishes every structural invariant the batch kernels
// and the repair rely on: rows are exactly the row tree's leaves in order,
// each CSR offset array brackets its entry array, entries index atoms-tree
// nodes, and every own run's masks are its entries' lane masks — as many,
// none 0, none with a bit past its tile's rows, none the tile's full mask
// where the phase shares such an entry (every run but the Born phase's
// near one) — and no entry is twice in one tile and class. A snapshot does
// not carry the tiles' cut: validateIL gives the lists the one their rows
// make (listPhase.cutTiles), which sizes every run, and refuses Born lists
// with shared near runs, which bornTile would not read. A list that passes
// cannot make a kernel or a repair index out of bounds. The entries are
// checked in one pass (scanTiles), which prices the tiles and measures their
// near streams on the way: it returns what that pass learned.
func validateIL(phase string, il *InteractionLists, rowTree, atomTree *octree.Tree) (listScan, error) {
	leaves := rowTree.Leaves()
	if len(il.Rows) != len(leaves) {
		return listScan{}, fmt.Errorf("%w: %s lists have %d rows for %d leaves",
			ErrSnapshotCorrupt, phase, len(il.Rows), len(leaves))
	}
	for i, row := range il.Rows {
		if row != leaves[i] {
			return listScan{}, fmt.Errorf("%w: %s list row %d is node %d, leaf order says %d",
				ErrSnapshotCorrupt, phase, i, row, leaves[i])
		}
	}
	var ph listPhase // the Born phase's cut; the E_pol phase's has parents
	if rowTree == atomTree {
		ph.up = parentsOf(atomTree)
	}
	il.TileOff = ph.cutTiles(il.Rows)
	for k, c := range il.arrays() {
		r, shared := k%(runFar+1), k > runFar
		name := "own " + runNames[r]
		if shared {
			name = "shared " + runNames[r]
		}
		off, entries := *c.off, *c.ents
		if len(off) != il.tiles()+1 {
			return listScan{}, fmt.Errorf("%w: %s %s offsets sized %d for %d tiles",
				ErrSnapshotCorrupt, phase, name, len(off), il.tiles())
		}
		if off[0] != 0 || int(off[len(off)-1]) != len(entries) {
			return listScan{}, fmt.Errorf("%w: %s %s offsets span [%d,%d] over %d entries",
				ErrSnapshotCorrupt, phase, name, off[0], off[len(off)-1], len(entries))
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return listScan{}, fmt.Errorf("%w: %s %s offsets decrease at %d",
					ErrSnapshotCorrupt, phase, name, i-1)
			}
		}
		if ph.up == nil && shared && r != runFar && len(entries) > 0 {
			return listScan{}, fmt.Errorf("%w: %s lists share %d %s entries", ErrSnapshotCorrupt, phase, len(entries), runNames[r])
		}
		if !shared && len(*c.masks) != len(entries) {
			return listScan{}, fmt.Errorf("%w: %s %s run has %d masks for %d entries",
				ErrSnapshotCorrupt, phase, name, len(*c.masks), len(entries))
		}
	}
	return scanTiles(phase, il, rowTree, atomTree, true)
}

// scanTiles walks il's runs once, tile by tile and class by class, and
// returns the tiles' cumulative estimated costs and the near streams' extents
// (listScan). With check it first re-establishes, in each run while it is in
// cache, what validateIL asks of an entry (runCheck.runs). The CSR shapes and
// the rows have been checked, or the lists compiled.
func scanTiles(phase string, il *InteractionLists, rowTree, atoms *octree.Tree, check bool) (listScan, error) {
	nNodes := int32(atoms.NumNodes())
	rc := runCheck{phase: phase, nNodes: nNodes}
	if check {
		rc.stamp = make([]int32, nNodes)
	}
	count := make([]int64, nNodes) // each node's atoms, read densely
	for i := range atoms.Nodes {
		count[i] = int64(atoms.Nodes[i].Count())
	}
	born := rowTree != atoms // the Born phase shares no near leaves: a full near mask is its own
	own, shared := il.ownCSR(), il.tileCSR()
	scan := listScan{cost: make([]int64, il.tiles()+1)}
	for t := range il.tiles() {
		lo, hi := il.tileRows(t)
		var pts [tileLanes]int64 // the tile's row points, lane by lane
		var all int64
		for l := range hi - lo {
			pts[l] = int64(rowTree.Nodes[il.Rows[lo+l]].Count())
			all += pts[l]
		}
		// The atoms of the tile's shared near entries, and of its own ones by
		// the low and the high half of their lane masks.
		var sharedAtoms int64
		var byLo, byHi [16]int64
		c := int64(hi-lo)*int64(len(shared[runFar].run(t))) + int64(popcount(own[runFar].runMasks(t)))
		for r := range own {
			sh, ow, masks := shared[r].run(t), own[r].run(t), own[r].runMasks(t)
			if check {
				allowFull := 0
				if born && r != runFar {
					allowFull = 1
				}
				if err := rc.runs(t, r, sh, ow, masks, &badMasks[hi-lo][allowFull]); err != nil {
					return listScan{}, err
				}
			}
			if r == runFar {
				continue
			}
			for _, e := range sh {
				sharedAtoms += count[e]
			}
			for n, e := range ow {
				m := masks[n]
				byLo[m&15] += count[e]
				byHi[m>>4] += count[e]
			}
		}
		// A shared entry is swept against every row point of the tile, an own
		// one against those of the lanes of its mask.
		c += all * sharedAtoms
		scan.near.shared = max(scan.near.shared, int(sharedAtoms))
		halves := [2][4]int64{nibbleLanes(&byLo), nibbleLanes(&byHi)}
		for l := range tileLanes {
			atoms := halves[l/4][l%4]
			c += pts[l] * atoms
			scan.near.lanes[l] = max(scan.near.lanes[l], int(atoms))
		}
		scan.cost[t+1] = scan.cost[t] + c
	}
	return scan, nil
}

// runCheck re-establishes what validateIL asks of a tile's runs of one
// class: every entry indexes an atoms-tree node, no node is in them twice,
// and no own entry's lane mask is bad (badMasks).
type runCheck struct {
	phase  string
	nNodes int32
	stamp  []int32 // the last (tile, class) that held each node, numbered upward
	mark   int32
}

// runs checks tile t's shared run sh and own run ow, its masks beside it,
// of class r.
func (rc *runCheck) runs(t, r int, sh, ow []int32, masks []uint8, bad *[256]bool) error {
	rc.mark++
	for _, e := range sh {
		if uint32(e) >= uint32(rc.nNodes) {
			return fmt.Errorf("%w: %s shared %s entry of tile %d references node %d of %d",
				ErrSnapshotCorrupt, rc.phase, runNames[r], t, e, rc.nNodes)
		}
		if rc.stamp[e] == rc.mark {
			return fmt.Errorf("%w: %s tile %d holds node %d twice in its %s runs",
				ErrSnapshotCorrupt, rc.phase, t, e, runNames[r])
		}
		rc.stamp[e] = rc.mark
	}
	for n, e := range ow {
		if uint32(e) >= uint32(rc.nNodes) {
			return fmt.Errorf("%w: %s own %s entry %d of tile %d references node %d of %d",
				ErrSnapshotCorrupt, rc.phase, runNames[r], n, t, e, rc.nNodes)
		}
		if m := masks[n]; bad[m] {
			return fmt.Errorf("%w: %s own %s entry %d of tile %d has lane mask %#x",
				ErrSnapshotCorrupt, rc.phase, runNames[r], n, t, m)
		}
		if rc.stamp[e] == rc.mark {
			return fmt.Errorf("%w: %s tile %d holds node %d twice in its %s runs",
				ErrSnapshotCorrupt, rc.phase, t, e, runNames[r])
		}
		rc.stamp[e] = rc.mark
	}
	return nil
}

// badMasks[k][allowFull] says which lane masks no own entry of a tile of k
// rows may carry: 0, one with a bit past the k rows, and the full mask
// unless allowFull is 1 (the Born phase's near run, where nothing is
// shared).
var badMasks = func() (bad [tileLanes + 1][2][256]bool) {
	for k := 1; k <= tileLanes; k++ {
		all := 1<<k - 1
		for allowFull := range 2 {
			for m := range 256 {
				bad[k][allowFull][m] = m == 0 || m&^all != 0 || m == all && allowFull == 0
			}
		}
	}
	return bad
}()

// skipIL steps over what appendIL wrote, reading only its lengths.
func skipIL(r *wire.Reader) {
	r.SkipArray(4) // the rows
	for _, c := range (&InteractionLists{}).arrays() {
		r.SkipArray(4) // the offsets
		r.SkipArray(4) // the entries
		if c.masks != nil {
			r.SkipArray(1)
		}
	}
}

// decodeIL reads what appendIL wrote.
func decodeIL(r *wire.Reader) *InteractionLists {
	il := &InteractionLists{Rows: r.I32s()}
	for _, c := range il.arrays() {
		*c.off, *c.ents = r.I32s(), r.I32s()
		if c.masks != nil {
			*c.masks = r.U8s()
		}
	}
	return il
}

// appendIL writes one phase's lists: the rows, then every CSR — the own
// runs' and then the shared ones' (InteractionLists.arrays) — offsets, then
// entries, then an own run's masks.
func appendIL(w *wire.Writer, il *InteractionLists) {
	w.I32s(il.Rows)
	for _, c := range il.arrays() {
		w.I32s(*c.off)
		w.I32s(*c.ents)
		if c.masks != nil {
			w.U8s(*c.masks)
		}
	}
}

// checkGeometryConsistent verifies the trees index exactly the
// molecule/surface geometry: atoms-tree slot s holds atom Index[s], and
// q-point slot s, at (QX, QY, QZ)[s], q-point QPts.Index[s].
func checkGeometryConsistent(sys *System) error {
	mol, surf, ta, tq := sys.Mol, sys.Surf, sys.Atoms, sys.QPts
	if ta.NumPoints() != mol.NumAtoms() {
		return fmt.Errorf("atoms tree has %d points for %d atoms", ta.NumPoints(), mol.NumAtoms())
	}
	if tq.NumPoints() != surf.NumPoints() {
		return fmt.Errorf("q-points tree has %d points for %d q-points", tq.NumPoints(), surf.NumPoints())
	}
	for slot, orig := range ta.Index {
		if ta.Pts[slot] != mol.Atoms[orig].Pos {
			return fmt.Errorf("atoms tree slot %d diverged from atom %d", slot, orig)
		}
	}
	for slot, orig := range tq.Index {
		if (geom.Vec3{X: sys.QX[slot], Y: sys.QY[slot], Z: sys.QZ[slot]}) != surf.Points[orig].Pos {
			return fmt.Errorf("q-points tree slot %d diverged from q-point %d", slot, orig)
		}
	}
	return nil
}

// SaveSnapshot writes the system's snapshot to path atomically (tmp file
// + rename), so a coordinator killed mid-checkpoint never leaves a
// half-written file where the restart logic looks. The bytes are
// EncodeSnapshot's, but no image of them is built: the encoder streams
// to the file, large arrays straight from the live slices, and the
// CRC-32C is accumulated on the way. On any failure the tmp file is
// removed and the first error returned.
func SaveSnapshot(path string, sys *System) error {
	_, err := saveSnapshot(path, sys)
	return err
}

// saveSnapshot is SaveSnapshot, also reporting the bytes written.
func saveSnapshot(path string, sys *System) (n int64, err error) {
	lists, err := snapshotLists(sys)
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("core: save snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close() // no-op after the checked Close below
			os.Remove(tmp)
			err = fmt.Errorf("core: save snapshot: %w", err)
		}
	}()
	sum := &crcWriter{out: f}
	w := wire.NewStreamWriter(sum)
	encodeSnapshot(w, sys, lists)
	if err = w.Flush(); err != nil {
		return 0, err
	}
	var trailer wire.Writer
	trailer.U32(sum.crc)
	if _, err = f.Write(trailer.Bytes()); err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return int64(w.Len() + trailer.Len()), nil
}

// crcWriter passes writes through, folding them into the snapshot CRC.
type crcWriter struct {
	out io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, snapshotCRC, p)
	return c.out.Write(p)
}

// LoadSnapshot reads path and decodes it, verifying the stamp against
// the parameters the caller is running under (ErrSnapshotParams on
// mismatch — a checkpoint from a differently-configured run must not be
// silently resumed).
func LoadSnapshot(path string, want Params) (*System, error) {
	sys, _, err := loadSnapshot(path, DecodeSnapshot)
	if err != nil {
		return nil, err
	}
	if ParamsFingerprint(sys.Params) != ParamsFingerprint(want) {
		return nil, fmt.Errorf("%w: snapshot stamped %016x, run wants %016x",
			ErrSnapshotParams, ParamsFingerprint(sys.Params), ParamsFingerprint(want))
	}
	return sys, nil
}

// LoadSnapshotAnyParams reads path and decodes it under whatever
// parameters it was stamped with — for restore paths (worker processes,
// engine reload) where the snapshot itself is the parameter source. The
// stamp's self-consistency is still verified by DecodeSnapshot.
func LoadSnapshotAnyParams(path string) (*System, error) {
	sys, _, err := loadSnapshot(path, DecodeSnapshot)
	return sys, err
}

// loadSnapshot decodes the snapshot file at path with decode
// (DecodeSnapshot, or a worker's decodeWorkerSnapshot), mapped where the
// host maps it (mapSnapshot), and returns its size too. Nothing decoded
// keeps a byte of the file.
func loadSnapshot(path string, decode func([]byte) (*System, error)) (*System, int, error) {
	data, release, err := mapSnapshot(path)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	sys, err := decode(data)
	return sys, len(data), err
}

// finite reports whether v is neither a NaN nor an infinity (v − v is 0
// exactly then).
func finite(v float64) bool { return v-v == 0 }
