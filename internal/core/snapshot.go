package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
	"gbpolar/internal/wire"
)

// This file is the checkpoint format of the multi-process runner: a
// versioned, parameter-stamped binary snapshot of a System — molecule,
// surface, both octrees and (when compiled) the interaction lists — so a
// crashed-and-restarted coordinator resumes from the preprocessed state
// instead of rebuilding trees and recompiling lists. The list block holds
// what the lists hold, their index. Its layout also has room for the repair
// certificate that builds up to PR 19 kept beside it (six margin arrays per
// phase and a copy of the node geometry): this build keeps none, writes
// those seven arrays zero-length, and drops them from an older image once
// they have passed the size checks (oldCertificate). The format is
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
	// ErrSnapshotRetired reports a snapshot stamped with a configuration
	// this build no longer computes: a far-field order above 0, the f32
	// precision tier (EXPERIMENTS.md "Deletion round 2") or the scalar
	// approximate-math tier ("Deletion round 3").
	ErrSnapshotRetired = errors.New("core: snapshot configuration retired")
)

const (
	snapshotMagic = "GBPSNAP1"
	// Version 2 added a far-field order to the parameter stamp, moment
	// sets behind each octree, and per-entry orders plus the compiled
	// order in the list block; version-1 snapshots are refused with
	// ErrSnapshotVersion. Version 3 stores the Born lists' tile runs
	// (InteractionLists.TileFar) behind their index, and each row's far run
	// without them; a version-2 image still decodes, its per-row Born lists
	// hoisted into tiles (hoistTiles). The far-field orders are gone from
	// this build and the layout keeps their places: it writes order 0, no
	// moment sets and no per-entry orders, reads past the moment sets an
	// older image carries (octree.DecodeTree), and refuses an image stamped
	// with an order above 0 (ErrSnapshotRetired).
	snapshotVersion = 3
	// snapshotVersionRows is the last version whose Born lists are per row.
	snapshotVersionRows = 2
	// retiredPrecision is the precision byte of the f32 tier, which this
	// build refuses (ErrSnapshotRetired).
	retiredPrecision = 2
	// approxMath is the byte an older build wrote for the approximate math
	// mode of its retired Math parameter, which the precision tier now
	// implies (Params.MathMode): beside the lanes tier it is that tier,
	// beside the exact one the retired scalar approximate-math tier.
	approxMath = 1
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// appendParams writes the canonical parameter encoding — the bytes the
// fingerprint hashes and the file stores. DebugCheckLists is excluded:
// it is a runtime verification knob that does not affect any computed
// state, so toggling it must not invalidate checkpoints. mathByte fills the
// place of the retired math mode: this build writes 0, and re-hashes the
// approxMath an older build's lanes image carries (DecodeSnapshot).
func appendParams(w *wire.Writer, p Params, mathByte uint8) {
	w.F64(p.EpsBorn)
	w.F64(p.EpsEpol)
	w.F64(p.EpsSolv)
	w.U8(mathByte)
	w.U8(uint8(p.Kernel))
	w.U8(uint8(p.Precision))
	w.U8(uint8(p.Builder))
	w.Bool(p.StrictBornMAC)
	w.U32(uint32(p.LeafCap))
	w.U8(0) // the far-field order; above 0 is ErrSnapshotRetired
}

// ParamsFingerprint hashes the result-determining parameters (after
// defaulting) to the 64-bit stamp embedded in snapshots: two runs agree
// on the fingerprint exactly when a snapshot from one is a valid
// checkpoint for the other.
func ParamsFingerprint(p Params) uint64 { return paramsFingerprint(p, 0) }

// paramsFingerprint is ParamsFingerprint over the encoding with mathByte in
// the retired math mode's place.
func paramsFingerprint(p Params, mathByte uint8) uint64 {
	var w wire.Writer
	appendParams(&w, p.withDefaults(), mathByte)
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
	if err := checkGeometryConsistent(sys.Mol, sys.Surf, sys.Atoms, sys.QPts); err != nil {
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
	appendParams(w, sys.Params, 0)

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
		w.U8(0) // the far-field order the lists were compiled under
		appendIL(w, lists.Born)
		w.I32s(lists.Born.TileFarOff)
		w.I32s(lists.Born.TileFar)
		w.U8s(nil) // the tile runs' orders
		appendIL(w, lists.Epol)
		wire.PutF64Records[geom.Vec3](w, nil) // an older build's copy of the node
		w.F64s(nil)                           // centers and radii: oldCertificate
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
// (ErrSnapshotCorrupt), version (ErrSnapshotVersion), a retired
// configuration (ErrSnapshotRetired), parameter-stamp self-consistency
// (ErrSnapshotParams), then structure. The octrees are
// NOT rebuilt and the interaction lists (when present) NOT recompiled —
// that is the point of checkpointing.
func DecodeSnapshot(data []byte) (*System, error) {
	if len(data) < len(snapshotMagic)+2+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	body := data[:len(data)-4]
	r := wire.NewReader(data[len(snapshotMagic) : len(data)-4])
	version := r.U16()
	if version != snapshotVersion && version != snapshotVersionRows {
		return nil, fmt.Errorf("%w: version %d, this build reads %d and %d",
			ErrSnapshotVersion, version, snapshotVersionRows, snapshotVersion)
	}
	// CRC after the version gate: a future-version snapshot should report
	// "too new", not "corrupt", even though its layout is unknown here.
	stored := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if crc32.Checksum(body, snapshotCRC) != stored {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	stamp := r.U64()
	params, mathByte, err := decodeParams(r)
	if err != nil {
		return nil, err
	}
	if got := paramsFingerprint(params, mathByte); got != stamp {
		return nil, fmt.Errorf("%w: stamp %016x does not cover stored parameters (%016x)",
			ErrSnapshotParams, stamp, got)
	}

	mol, err := decodeMolecule(r)
	if err != nil {
		return nil, err
	}
	surf, err := decodeSurface(r)
	if err != nil {
		return nil, err
	}

	ta, err := octree.DecodeTree(r)
	if err != nil {
		return nil, fmt.Errorf("%w: atoms octree: %v", ErrSnapshotCorrupt, err)
	}
	tq, err := octree.DecodeTree(r)
	if err != nil {
		return nil, fmt.Errorf("%w: q-points octree: %v", ErrSnapshotCorrupt, err)
	}
	if err := checkGeometryConsistent(mol, surf, ta, tq); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}

	var lists *CompiledLists
	if r.Bool() {
		cl := &CompiledLists{bornMAC: r.F64(), epolFar: r.F64()}
		// The stamp says far-field order 0 (decodeParams): the lists can be
		// of no other, and carry no per-entry orders.
		orders := int(r.U8())
		var bornCert, epolCert oldCertificate
		var n int
		cl.Born, bornCert, n = decodeIL(r)
		orders += n
		if version == snapshotVersion {
			cl.Born.TileFarOff, cl.Born.TileFar = r.I32s(), r.I32s()
			orders += len(r.U8s())
		}
		cl.Epol, epolCert, n = decodeIL(r)
		orders += n
		centers, radii := wire.F64Records[geom.Vec3](r), r.F64s()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
		}
		if orders != 0 {
			return nil, fmt.Errorf("%w: a list block of far-field order 0 carries far-field orders", ErrSnapshotCorrupt)
		}
		// An older build's certificate is whole or absent: its copy of the
		// node geometry says which, and every margin array of both phases
		// must agree with it. Whole, it is dropped here.
		certified := len(centers)+len(radii) > 0
		if certified && version != snapshotVersionRows {
			return nil, fmt.Errorf("%w: a version-%d image with a repair certificate", ErrSnapshotCorrupt, version)
		}
		if certified && (len(centers) != ta.NumNodes() || len(radii) != ta.NumNodes()) {
			return nil, fmt.Errorf("%w: node geometry arrays sized %d/%d for %d nodes",
				ErrSnapshotCorrupt, len(centers), len(radii), ta.NumNodes())
		}
		if err := validateIL("born", cl.Born, tq, ta, version == snapshotVersion); err != nil {
			return nil, err
		}
		if err := bornCert.validate("born", cl.Born, certified, true); err != nil {
			return nil, err
		}
		if version == snapshotVersionRows {
			cl.Born = hoistTiles(cl.Born, ta.NumNodes())
		}
		if err := validateIL("epol", cl.Epol, ta, ta, false); err != nil {
			return nil, err
		}
		if err := epolCert.validate("epol", cl.Epol, certified, false); err != nil {
			return nil, err
		}
		lists = cl
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Remaining())
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

// decodeParams reads and range-checks the parameter section, returning
// the byte in the retired math mode's place beside the parameters (the
// stamp covers it). A retired configuration is refused before the stamp
// is checked: the stamp covers the parameters this build can represent.
func decodeParams(r *wire.Reader) (Params, uint8, error) {
	var p Params
	p.EpsBorn = r.F64()
	p.EpsEpol = r.F64()
	p.EpsSolv = r.F64()
	mathByte := r.U8()
	p.Kernel = BornKernel(r.U8())
	p.Precision = Precision(r.U8())
	p.Builder = octree.Builder(r.U8())
	p.StrictBornMAC = r.Bool()
	p.LeafCap = int(r.U32())
	farOrder := r.U8()
	if r.Err() != nil {
		return Params{}, 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.Err())
	}
	if farOrder == 1 || farOrder == 2 {
		return Params{}, 0, fmt.Errorf("%w: far-field order %d", ErrSnapshotRetired, farOrder)
	}
	if p.Precision == retiredPrecision {
		return Params{}, 0, fmt.Errorf("%w: precision tier f32", ErrSnapshotRetired)
	}
	if mathByte == approxMath && p.Precision == PrecisionExact {
		return Params{}, 0, fmt.Errorf("%w: the scalar approximate-math tier", ErrSnapshotRetired)
	}
	if farOrder != 0 {
		return Params{}, 0, fmt.Errorf("%w: far-field order %d", ErrSnapshotCorrupt, farOrder)
	}
	if mathByte != 0 && mathByte != approxMath {
		return Params{}, 0, fmt.Errorf("%w: math mode %d", ErrSnapshotCorrupt, mathByte)
	}
	if p.Kernel != R6 && p.Kernel != R4 {
		return Params{}, 0, fmt.Errorf("%w: born kernel %d", ErrSnapshotCorrupt, p.Kernel)
	}
	if p.Precision < PrecisionExact || p.Precision > PrecisionLanes {
		return Params{}, 0, fmt.Errorf("%w: precision tier %d", ErrSnapshotCorrupt, p.Precision)
	}
	if p.Builder != octree.BuilderRecursive && p.Builder != octree.BuilderMorton {
		return Params{}, 0, fmt.Errorf("%w: octree builder %d", ErrSnapshotCorrupt, p.Builder)
	}
	if p.LeafCap <= 0 || p.LeafCap > 1<<20 {
		return Params{}, 0, fmt.Errorf("%w: leaf cap %d", ErrSnapshotCorrupt, p.LeafCap)
	}
	if err := p.Validate(); err != nil {
		return Params{}, 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return p, mathByte, nil
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
// each CSR offset array brackets its entry array, and entries index
// atoms-tree nodes; tiled lists have one tile run per ⌈rows/8⌉ tiles, the
// others none. A list that passes cannot make a kernel or a repair index out
// of bounds.
func validateIL(phase string, il *InteractionLists, rowTree, atomTree *octree.Tree, tiled bool) error {
	leaves := rowTree.Leaves()
	if len(il.Rows) != len(leaves) {
		return fmt.Errorf("%w: %s lists have %d rows for %d leaves",
			ErrSnapshotCorrupt, phase, len(il.Rows), len(leaves))
	}
	for i, row := range il.Rows {
		if row != leaves[i] {
			return fmt.Errorf("%w: %s list row %d is node %d, leaf order says %d",
				ErrSnapshotCorrupt, phase, i, row, leaves[i])
		}
	}
	nNodes := int32(atomTree.NumNodes())
	// checkCSR checks an offset array over units rows (or tiles) and its
	// entries.
	checkCSR := func(name string, units int, off, entries []int32) error {
		if len(off) != units+1 {
			return fmt.Errorf("%w: %s %s offsets sized %d for %d rows",
				ErrSnapshotCorrupt, phase, name, len(off), len(il.Rows))
		}
		if off[0] != 0 || int(off[len(off)-1]) != len(entries) {
			return fmt.Errorf("%w: %s %s offsets span [%d,%d] over %d entries",
				ErrSnapshotCorrupt, phase, name, off[0], off[len(off)-1], len(entries))
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fmt.Errorf("%w: %s %s offsets decrease at row %d",
					ErrSnapshotCorrupt, phase, name, i-1)
			}
		}
		for k, e := range entries {
			if e < 0 || e >= nNodes {
				return fmt.Errorf("%w: %s %s entry %d references node %d of %d",
					ErrSnapshotCorrupt, phase, name, k, e, nNodes)
			}
		}
		return nil
	}
	rows := len(il.Rows)
	if err := checkCSR("far", rows, il.FarOff, il.Far); err != nil {
		return err
	}
	if err := checkCSR("near", rows, il.NearOff, il.Near); err != nil {
		return err
	}
	if err := checkCSR("sym", rows, il.SymOff, il.Sym); err != nil {
		return err
	}
	if err := checkCSR("cede", rows, il.CedeOff, il.Cede); err != nil {
		return err
	}
	if !tiled && len(il.TileFarOff)+len(il.TileFar) != 0 {
		return fmt.Errorf("%w: %s lists carry tile runs", ErrSnapshotCorrupt, phase)
	}
	if tiled {
		return checkCSR("tile far", numTiles(rows), il.TileFarOff, il.TileFar)
	}
	return nil
}

// hoistTiles turns per-row Born lists — a version-2 image's — into the
// tiled form a compile gives (InteractionLists.TileFar): tile t's shared run
// is the nodes every one of its rows holds, in row 0's order, and each row
// keeps the rest, in its order. A compile stores exactly these: a row's run
// is in visit order, and a node all of a tile's lanes take is one the
// descent hands to the tile. nNodes bounds the entries, which validateIL has
// checked.
func hoistTiles(il *InteractionLists, nNodes int) *InteractionLists {
	n := len(il.Rows)
	out := &InteractionLists{Rows: il.Rows, NearOff: il.NearOff, Near: il.Near, SymOff: il.SymOff, Sym: il.Sym,
		CedeOff: il.CedeOff, Cede: il.Cede, FarOff: make([]int32, n+1), TileFarOff: make([]int32, numTiles(n)+1)}
	// seen[a] counts the tile's rows holding node a.
	seen := make([]int32, nNodes)
	for t := range numTiles(n) {
		lo, hi := il.tileRows(t)
		for i := lo; i < hi; i++ {
			for k := il.FarOff[i]; k < il.FarOff[i+1]; k++ {
				if a := il.Far[k]; i == lo {
					seen[a] = 1
				} else if seen[a] == int32(i-lo) {
					seen[a]++
				}
			}
		}
		shared := func(a int32) bool { return seen[a] == int32(hi-lo) }
		for k := il.FarOff[lo]; k < il.FarOff[lo+1]; k++ {
			if a := il.Far[k]; shared(a) {
				out.TileFar = append(out.TileFar, a)
			}
		}
		out.TileFarOff[t+1] = int32(len(out.TileFar))
		for i := lo; i < hi; i++ {
			for k := il.FarOff[i]; k < il.FarOff[i+1]; k++ {
				if a := il.Far[k]; !shared(a) {
					out.Far = append(out.Far, a)
				}
			}
			out.FarOff[i+1] = int32(len(out.Far))
		}
		for k := il.FarOff[lo]; k < il.FarOff[hi]; k++ {
			seen[il.Far[k]] = 0
		}
	}
	return out
}

// oldCertificate is one phase's share of the repair certificate a snapshot
// written by an older build may carry between its Cede and order arrays:
// the slack of the opening test behind every far entry and the least slack
// on its root path, then the same for the near entries, and the path slack
// of the sym and cede entries. Nothing reads it any more — the repair
// re-tests the nodes that moved (ilist_repair.go) — so it is decoded to be
// checked and dropped.
type oldCertificate [6][]float64

// validate holds the arrays to the rule they were written under: sized to
// their entries (near margins only where the phase tests its near leaves:
// nearTested, the Born lists) when certified says the image carries a
// certificate, empty otherwise; any mixture is corrupt.
func (c *oldCertificate) validate(phase string, il *InteractionLists, certified, nearTested bool) error {
	want := [6]int{len(il.Far), len(il.Far), 0, len(il.Near), len(il.Sym), len(il.Cede)}
	if nearTested { // E_pol's leaf-first near entries were never tested
		want[2] = len(il.Near)
	}
	for i, name := range [6]string{"far margins", "far paths", "near margins", "near paths", "sym paths", "cede paths"} {
		if !certified {
			want[i] = 0
		}
		if len(c[i]) != want[i] {
			return fmt.Errorf("%w: %s %s sized %d, want %d (certificate present: %v)",
				ErrSnapshotCorrupt, phase, name, len(c[i]), want[i], certified)
		}
	}
	return nil
}

// decodeIL reads one interaction-list structure, the certificate arrays an
// older build interleaved with it and the per-entry far-field orders an
// older build wrote behind it, returning how many of those it found.
func decodeIL(r *wire.Reader) (il *InteractionLists, cert oldCertificate, orders int) {
	il = &InteractionLists{
		Rows:    r.I32s(),
		FarOff:  r.I32s(),
		Far:     r.I32s(),
		NearOff: r.I32s(),
		Near:    r.I32s(),
		SymOff:  r.I32s(),
		Sym:     r.I32s(),
		CedeOff: r.I32s(),
		Cede:    r.I32s(),
	}
	for i := range cert {
		cert[i] = r.F64s()
	}
	return il, cert, len(r.U8s())
}

// appendIL writes one interaction-list structure, the six arrays of
// oldCertificate and the orders zero-length.
func appendIL(w *wire.Writer, il *InteractionLists) {
	w.I32s(il.Rows)
	w.I32s(il.FarOff)
	w.I32s(il.Far)
	w.I32s(il.NearOff)
	w.I32s(il.Near)
	w.I32s(il.SymOff)
	w.I32s(il.Sym)
	w.I32s(il.CedeOff)
	w.I32s(il.Cede)
	for range len(oldCertificate{}) {
		w.F64s(nil)
	}
	w.U8s(nil)
}

// checkGeometryConsistent verifies the trees index exactly the
// molecule/surface geometry (slot s holds input point Index[s]).
func checkGeometryConsistent(mol *molecule.Molecule, surf *surface.Surface, ta, tq *octree.Tree) error {
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
		if tq.Pts[slot] != surf.Points[orig].Pos {
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sys, err := DecodeSnapshot(data)
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
