package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
	"gbpolar/internal/wire"
)

// restamp recomputes the CRC trailer after a deliberate patch, so table
// tests can reach the checks BEHIND the checksum.
func restamp(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

func snapshotFixture(t testing.TB, withLists bool) (*System, []byte) {
	t.Helper()
	sys, _, _ := testSystem(t, 150, 7, DefaultParams())
	if withLists {
		sys.Lists(nil)
	}
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, data
}

// A snapshot round-trips to a System that computes the bit-identical
// energy — and when lists were compiled, they come back verbatim (pinned
// by RecheckLists, which recompiles from geometry and diffs).
func TestSnapshotRoundTrip(t *testing.T) {
	sys, data := snapshotFixture(t, true)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.lists == nil {
		t.Fatal("decoded snapshot lost the compiled lists")
	}
	if err := got.RecheckLists(nil); err != nil {
		t.Fatalf("decoded lists differ from a fresh compile: %v", err)
	}
	want, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShared(got, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epol != want.Epol {
		t.Fatalf("E_pol drifted through the snapshot: %.17g vs %.17g", res.Epol, want.Epol)
	}
	for i := range want.BornRadii {
		if res.BornRadii[i] != want.BornRadii[i] {
			t.Fatalf("Born radius %d drifted: %.17g vs %.17g", i, res.BornRadii[i], want.BornRadii[i])
		}
	}
}

// Without compiled lists the snapshot still restores the trees and
// payloads; the first Compute call recompiles lists as usual.
func TestSnapshotRoundTripNoLists(t *testing.T) {
	sys, data := snapshotFixture(t, false)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.lists != nil {
		t.Fatal("snapshot without lists decoded with lists")
	}
	if got.Atoms.NumPoints() != sys.Atoms.NumPoints() || got.QPts.NumPoints() != sys.QPts.NumPoints() {
		t.Fatalf("tree sizes drifted: %d/%d vs %d/%d",
			got.Atoms.NumPoints(), got.QPts.NumPoints(), sys.Atoms.NumPoints(), sys.QPts.NumPoints())
	}
}

// A snapshot of a re-posed system is refused: the trees no longer match
// the stored molecule, so a restore would silently revert the pose.
func TestSnapshotRefusesTransformedSystem(t *testing.T) {
	sys, _, _ := testSystem(t, 80, 3, DefaultParams())
	sys.ApplyRigidTransform(geom.Translate(geom.Vec3{X: 1, Y: 2, Z: 3}))
	if _, err := EncodeSnapshot(sys); err == nil {
		t.Fatal("EncodeSnapshot accepted a re-posed system")
	}
}

// Every malformed input fails with the right sentinel and never panics.
func TestSnapshotCorruptions(t *testing.T) {
	_, data := snapshotFixture(t, true)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrSnapshotCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrSnapshotCorrupt},
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrSnapshotCorrupt},
		{"truncated half", func(b []byte) []byte { return b[:len(b)/2] }, ErrSnapshotCorrupt},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-5] }, ErrSnapshotCorrupt},
		{"bit flip", func(b []byte) []byte { b[len(b)/3] ^= 0x10; return b }, ErrSnapshotCorrupt},
		{"crc flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrSnapshotCorrupt},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:10], 99)
			return restamp(b)
		}, ErrSnapshotVersion},
		// No restamp on purpose: the version gate must fire before the
		// CRC check, so a genuine version-1 file (whose layout this build
		// cannot parse) reports "unsupported", not "corrupt".
		{"old version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:10], 1)
			return b
		}, ErrSnapshotVersion},
		{"stamp mismatch", func(b []byte) []byte {
			b[10] ^= 0xff // first byte of the u64 parameter stamp
			return restamp(b)
		}, ErrSnapshotParams},
		{"param out of range", func(b []byte) []byte {
			// Born kernel byte (after magic+version+stamp+3 float64 params).
			b[8+2+8+24] = 7
			return restamp(b)
		}, ErrSnapshotCorrupt},
		{"trailing garbage", func(b []byte) []byte {
			b = append(b[:len(b)-4], 0xde, 0xad, 0xbe, 0xef)
			b = append(b, 0, 0, 0, 0)
			return restamp(b)
		}, ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), data...)
			_, err := DecodeSnapshot(tc.mut(buf))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// workerSkips returns where the sections the worker decode steps over lie
// in image, a snapshot with lists: the surface, the q-point tree and the
// Born lists, each [start, end), each opening with a length prefix but the
// surface, whose first one is 16 bytes in.
func workerSkips(t testing.TB, image []byte) (sections [3][2]int) {
	t.Helper()
	r := wire.NewReader(image[:len(image)-4])
	at := func() int { return len(image) - 4 - r.Remaining() }
	r.Next(len(snapshotMagic) + 2 + 8)
	if _, err := decodeParams(r); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMolecule(r); err != nil {
		t.Fatal(err)
	}
	start := at()
	r.Next(4 + 4 + 8)
	r.SkipArray(8)
	sections[0] = [2]int{start, at()}
	octree.SkipTree(r) // the atoms tree
	start = at()
	octree.SkipTree(r)
	sections[1] = [2]int{start, at()}
	r.Next(1 + 8 + 8) // the list flag and the opening criteria
	start = at()
	skipIL(r)
	sections[2] = [2]int{start, at()}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return sections
}

// The worker decode on the ledger's two fixtures: its molecule, atoms tree,
// E_pol lists and their tile costs are DecodeSnapshot's, and it holds no
// surface side. A flipped byte anywhere in the file, in the sections it
// steps over too, fails with ErrSnapshotCorrupt (the version's bytes with
// ErrSnapshotVersion, as DecodeSnapshot's), and so does a length prefix in
// a section it steps over that runs past the end, the file re-stamped so
// that its CRC holds. A snapshot without lists is refused.
func TestSnapshotWorkerDecode(t *testing.T) {
	fixtures := []int{4000, 20000}
	if testing.Short() || raceEnabled {
		fixtures = fixtures[:1]
	}
	for _, atoms := range fixtures {
		t.Run(fmt.Sprintf("%dk", atoms/1000), func(t *testing.T) {
			sys, _, _ := testSystem(t, atoms, 2, mortonParams())
			sys.Lists(nil)
			data, err := EncodeSnapshot(sys)
			if err != nil {
				t.Fatal(err)
			}
			full, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			w, err := decodeWorkerSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if w.Surf != nil || w.QPts != nil || w.WN != nil || w.QNodeWN != nil || w.lists.Born != nil {
				t.Fatal("the worker decode holds the surface side")
			}
			for name, equal := range map[string]bool{
				"molecule":         reflect.DeepEqual(w.Mol, full.Mol),
				"atoms tree":       reflect.DeepEqual(w.Atoms, full.Atoms),
				"E_pol lists":      reflect.DeepEqual(w.lists.Epol, full.lists.Epol),
				"E_pol tile costs": slices.Equal(w.lists.cost[phaseEpol], full.lists.cost[phaseEpol]),
				"atom payloads":    slices.Equal(w.Charge, full.Charge) && slices.Equal(w.Radius, full.Radius),
			} {
				if !equal {
					t.Errorf("the worker decode's %s differ from DecodeSnapshot's", name)
				}
			}

			sections := workerSkips(t, data)
			rng := rand.New(rand.NewSource(int64(atoms)))
			flips := []int{0, len(data) - 1}
			for _, s := range sections {
				flips = append(flips, s[0], (s[0]+s[1])/2, s[1]-1, s[0]+rng.Intn(s[1]-s[0]))
			}
			for range 16 {
				flips = append(flips, rng.Intn(len(data)))
			}
			buf := append([]byte(nil), data...)
			for _, i := range flips {
				want := ErrSnapshotCorrupt
				if i == 8 || i == 9 {
					want = ErrSnapshotVersion
				}
				buf[i] ^= 0x5a
				if _, err := decodeWorkerSnapshot(buf); !errors.Is(err, want) {
					t.Fatalf("byte %d of %d flipped: got %v, want %v", i, len(data), err, want)
				}
				buf[i] ^= 0x5a
			}

			for k, prefix := range []int{sections[0][0] + 16, sections[1][0], sections[2][0]} {
				for _, count := range []uint32{math.MaxUint32, uint32(len(data))} {
					copy(buf, data)
					binary.LittleEndian.PutUint32(buf[prefix:], count)
					restamp(buf)
					for name, decode := range map[string]func([]byte) (*System, error){
						"worker": decodeWorkerSnapshot, "full": DecodeSnapshot} {
						if _, err := decode(buf); !errors.Is(err, ErrSnapshotCorrupt) {
							t.Fatalf("%s decode, section %d's prefix at %d set to %d: got %v, want ErrSnapshotCorrupt",
								name, k, prefix, count, err)
						}
					}
				}
			}
		})
	}
	_, bare := snapshotFixture(t, false)
	if _, err := decodeWorkerSnapshot(bare); err == nil {
		t.Fatal("the worker decode accepted a snapshot without lists")
	}
}

// The places in a version-4 image where that version wrote bytes this one
// does not, empty or zero in every image it wrote: the retired math mode
// and far-field order in the parameter section, the moment-set count behind
// each octree, the far-field order the lists were compiled under, behind
// each phase's index its six repair-certificate arrays and its per-entry
// orders, the Born tile runs' orders, and a copy of the node geometry
// closing the list block. In image order.
const (
	slotMath = iota
	slotFarOrder
	slotAtomsMoments
	slotQPtsMoments
	slotListOrder
	slotBorn
	slotTileOrders
	slotEpol
	slotNodes
	numSlots
)

// The offsets of the parameter stamp and the precision byte in an image:
// behind the magic and the version the stamp, behind it EpsBorn, EpsEpol,
// EpsSolv and the Born kernel.
const stampAt, precisionAt = 8 + 2, 8 + 2 + 8 + 3*8 + 1

// retiredSlots returns the byte offset of every slot in image, a snapshot
// with lists of this version, of version 8 (v8Image) or of version 5
// (v5Image). In each, a phase's lists are its rows and its own runs —
// versions 8 and 9's three with their masks — or version 5's four per-row
// runs, then its tiles' shared arrays: version 5 wrote the Born tiles' far
// run alone. Versions up to 8 wrote each tree in version 8's layout
// (skipTreeV8).
func retiredSlots(t testing.TB, image []byte) [numSlots]int {
	t.Helper()
	body := image[:len(image)-4]
	r := wire.NewReader(body[len(snapshotMagic):])
	at := func() int { return len(body) - r.Remaining() }
	var s [numSlots]int
	version := r.U16()
	runs, bornTiles, epolTiles := runFar+1, 2*(runFar+1), 2*(runFar+1)
	if version == 5 {
		runs, bornTiles, epolTiles = len(retiredOrder), 2, 2*len(retiredOrder)
	}
	r.U64()
	s[slotMath] = at() + 3*8
	if _, err := decodeParams(r); err != nil {
		t.Fatal(err)
	}
	s[slotFarOrder] = at()
	mol, err := decodeMolecule(r)
	if err != nil {
		t.Fatal(err)
	}
	surf, err := decodeSurface(r)
	if err != nil {
		t.Fatal(err)
	}
	points := [][]geom.Vec3{make([]geom.Vec3, len(mol.Atoms)), make([]geom.Vec3, len(surf.Points))}
	for i, a := range mol.Atoms {
		points[0][i] = a.Pos
	}
	for i, q := range surf.Points {
		points[1][i] = q.Pos
	}
	for k, slot := range []int{slotAtomsMoments, slotQPtsMoments} {
		if version < 9 {
			skipTreeV8(t, r)
		} else if _, err := octree.DecodeTree(r, len(points[k]), func(i int) geom.Vec3 { return points[k][i] }); err != nil {
			t.Fatal(err)
		}
		s[slot] = at()
	}
	if !r.Bool() {
		t.Fatal("the image has no list block")
	}
	r.F64()
	r.F64()
	s[slotListOrder] = at()
	// Each phase: its rows and row arrays, a slot, its tile arrays, a slot.
	for _, ph := range []struct{ rowsAt, tiles, tilesAt int }{
		{slotBorn, bornTiles, slotTileOrders},
		{slotEpol, epolTiles, slotNodes},
	} {
		r.I32s()
		for range runs {
			r.I32s()
			r.I32s()
			if version >= 8 {
				r.U8s()
			}
		}
		s[ph.rowsAt] = at()
		for range ph.tiles {
			r.I32s()
		}
		s[ph.tilesAt] = at()
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("list block: %v, %d bytes left", r.Err(), r.Remaining())
	}
	return s
}

// withRetired returns image, a snapshot of this version with lists, with
// the bytes of ins put in at their slots, stamped version and its checksum
// made good.
func withRetired(t testing.TB, image []byte, version uint16, ins map[int][]byte) []byte {
	t.Helper()
	slots := retiredSlots(t, image)
	var out []byte
	prev := 0
	for slot := range numSlots {
		if b, ok := ins[slot]; ok {
			out = append(append(out, image[prev:slots[slot]]...), b...)
			prev = slots[slot]
		}
	}
	out = append(out, image[prev:]...)
	binary.LittleEndian.PutUint16(out[len(snapshotMagic):], version)
	return restamp(out)
}

// enc returns what put writes.
func enc(put func(w *wire.Writer)) []byte {
	var w wire.Writer
	put(&w)
	return w.Bytes()
}

// certificate is one phase's six repair-certificate arrays as version 4
// placed them, each of n entries, then its per-entry orders, empty.
func certificate(n int) []byte {
	return enc(func(w *wire.Writer) {
		for range 6 {
			w.F64s(make([]float64, n))
		}
		w.U8s(nil)
	})
}

// appendRowsV5 writes rl's rows and row arrays as versions up to 5 did,
// the far run's first.
func appendRowsV5(w *wire.Writer, il *rowLists) {
	for _, a := range [][]int32{il.Rows, il.FarOff, il.Far, il.NearOff, il.Near, il.SymOff, il.Sym, il.CedeOff, il.Cede} {
		w.I32s(a)
	}
}

// skipTreeV8 reads past a tree in the layout versions up to 8 wrote: the
// node count, each node's center, radius, children, range, depth (int32)
// and leaf flag one after the other, the permutation, the point count and
// the points, the leaf capacity, the root box, the builder and the keys.
func skipTreeV8(t testing.TB, r *wire.Reader) {
	t.Helper()
	r.Next(int(r.U32()) * nodeBytesV8)
	r.I32s()
	r.Next(int(r.U32()) * 24)
	r.U32()
	r.Next(6 * 8)
	r.U8()
	r.U64s()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// nodeBytesV8 is one node's share of a version-8 tree.
const nodeBytesV8 = 3*8 + 8 + 8*4 + 4 + 4 + 4 + 1

// appendTreeV8 writes tr as versions up to 8 did (skipTreeV8).
func appendTreeV8(w *wire.Writer, tr *octree.Tree) {
	w.U32(uint32(len(tr.Nodes)))
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		w.F64(n.Center.X)
		w.F64(n.Center.Y)
		w.F64(n.Center.Z)
		w.F64(n.Radius)
		for _, c := range n.Children {
			w.I32(c)
		}
		w.I32(n.Start)
		w.I32(n.End)
		w.I32(int32(n.Depth))
		w.Bool(n.IsLeaf)
	}
	w.I32s(tr.Index)
	w.U32(uint32(len(tr.Pts)))
	wire.PutF64Run(w, tr.Pts)
	// The leaf capacity, root box, builder and keys: in this version's
	// layout they sit between the permutation and the node block.
	v9 := enc(tr.AppendTo)
	r := wire.NewReader(v9)
	r.I32s()
	w.Raw(v9[len(v9)-r.Remaining() : len(v9)-4-len(tr.Nodes)*nodeBytesV9])
}

// nodeBytesV9 is one node's share of this version's node block
// (octree.Tree.AppendTo).
const nodeBytesV9 = 4*8 + 8*4 + 2*4 + 2 + 1

// v8Image is image, a snapshot of this version with lists, as version 8
// wrote it: the same bytes but for the trees, each written in version 8's
// layout (appendTreeV8), its points beside its nodes.
func v8Image(t testing.TB, image []byte) []byte {
	t.Helper()
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	slots := retiredSlots(t, image)
	treesAt := slots[slotAtomsMoments] - len(enc(sys.Atoms.AppendTo))
	var w wire.Writer
	w.Raw(image[:treesAt])
	appendTreeV8(&w, sys.Atoms)
	appendTreeV8(&w, sys.QPts)
	w.Raw(image[slots[slotQPtsMoments]:])
	out := w.Bytes()
	binary.LittleEndian.PutUint16(out[len(snapshotMagic):], 8)
	return restamp(out)
}

// v5Image is image, a snapshot of this version with lists, as version 5
// wrote it: the same bytes up to the list block, and in it each phase's rows
// and row arrays (appendRowsV5), the Born tiles' far run and the E_pol
// tiles' runs, Cede derived (cedes).
func v5Image(t testing.TB, image []byte) []byte {
	t.Helper()
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	born, epol := sys.lists.Born, sys.lists.Epol
	var w wire.Writer
	v8 := v8Image(t, image)
	w.Raw(v8[:retiredSlots(t, v8)[slotListOrder]])
	appendRowsV5(&w, ownRows(born, sys.Atoms))
	w.I32s(born.TileFarOff)
	w.I32s(born.TileFar)
	appendRowsV5(&w, ownRows(epol, sys.Atoms))
	shared := cedes(epol, visitOrder(sys.Atoms)).shared
	for _, r := range retiredOrder {
		w.I32s(*shared[r].off)
		w.I32s(*shared[r].ents)
	}
	w.U32(0)
	out := w.Bytes()
	binary.LittleEndian.PutUint16(out[len(snapshotMagic):], 5)
	return restamp(out)
}

// v6Image is image, a snapshot of this version with lists, as version 6
// wrote it: the same bytes up to the list block, and in it each phase's rows,
// its rows' own runs (ownRows; near, sym, cede and far, offsets before
// entries) and its tiles' shared runs the same way, Cede derived (cedes).
func v6Image(t testing.TB, image []byte) []byte {
	t.Helper()
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	v8 := v8Image(t, image)
	w.Raw(v8[:retiredSlots(t, v8)[slotListOrder]])
	for _, il := range []*InteractionLists{sys.lists.Born, sys.lists.Epol} {
		rows, shared := ownRows(il, sys.Atoms).rowCSR(), cedes(il, visitOrder(sys.Atoms)).shared
		w.I32s(il.Rows)
		for _, cs := range [][kindCede + 1]csr{rows, shared} {
			for _, r := range retiredOrder {
				w.I32s(*cs[r].off)
				w.I32s(*cs[r].ents)
			}
		}
	}
	w.U32(0)
	out := w.Bytes()
	binary.LittleEndian.PutUint16(out[len(snapshotMagic):], 6)
	return restamp(out)
}

// v7Image is image, a snapshot of this version with lists, as version 7
// wrote it: the same bytes up to the list block, and in it each phase's rows,
// its tiles' own runs (near, sym, cede and far: offsets, entries, masks) and
// their shared runs (offsets, entries), Cede derived (cedes).
func v7Image(t testing.TB, image []byte) []byte {
	t.Helper()
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	v8 := v8Image(t, image)
	w.Raw(v8[:retiredSlots(t, v8)[slotListOrder]])
	for _, il := range []*InteractionLists{sys.lists.Born, sys.lists.Epol} {
		cl := cedes(il, visitOrder(sys.Atoms))
		w.I32s(il.Rows)
		for _, cs := range [][kindCede + 1]csr{cl.own, cl.shared} {
			for _, r := range retiredOrder {
				w.I32s(*cs[r].off)
				w.I32s(*cs[r].ents)
				if cs[r].masks != nil {
					w.U8s(*cs[r].masks)
				}
			}
		}
	}
	w.U32(0)
	out := w.Bytes()
	binary.LittleEndian.PutUint16(out[len(snapshotMagic):], 7)
	return restamp(out)
}

// v4Image is image, a snapshot of this version with lists, as version 4
// wrote it: version 5's image with every retired slot filled with what
// version 4 wrote there (mathByte in the math mode's place), and the stamp
// taken over the version-4 parameter section.
func v4Image(t testing.TB, image []byte, mathByte uint8) []byte {
	t.Helper()
	u32 := enc(func(w *wire.Writer) { w.U32(0) })
	out := withRetired(t, v5Image(t, image), 4, map[int][]byte{
		slotMath:         {mathByte},
		slotFarOrder:     {0},
		slotAtomsMoments: u32,
		slotQPtsMoments:  u32,
		slotListOrder:    {0},
		slotBorn:         certificate(0),
		slotTileOrders:   u32,
		slotEpol:         certificate(0),
		slotNodes:        append(u32, u32...),
	})
	const v4Params = 3*8 + 5 + 4 + 1
	h := fnv.New64a()
	h.Write(out[stampAt+8 : stampAt+8+v4Params])
	binary.LittleEndian.PutUint64(out[stampAt:], h.Sum64())
	return restamp(out)
}

// A version-4 image, whose layout had places for retired configurations,
// a version-5 image, whose Born tiles stored their far run alone, a
// version-6 image, whose rows stored their own runs each, a version-7 image,
// whose tiles stored the Cede runs no sweep reads, and this layout stamped
// any of those versions are refused with ErrSnapshotVersion and no System,
// by DecodeSnapshot and by LoadSnapshotAnyParams. Checkpoints are written
// and read by one build, and no older layout is read.
func TestSnapshotRefusesRetired(t *testing.T) {
	_, image := snapshotFixture(t, true)
	older := map[string][]byte{
		"version 4": v4Image(t, image, 0),
		"version 5": v5Image(t, image),
		"version 6": v6Image(t, image),
		"version 7": v7Image(t, image),
	}
	for _, version := range []uint16{4, 5, 6, 7} {
		stamped := append([]byte(nil), image...)
		binary.LittleEndian.PutUint16(stamped[len(snapshotMagic):], version)
		older[fmt.Sprintf("this layout stamped version %d", version)] = restamp(stamped)
	}
	for name, b := range older {
		if sys, err := DecodeSnapshot(b); !errors.Is(err, ErrSnapshotVersion) || sys != nil {
			t.Errorf("%s: got %v (system %v), want ErrSnapshotVersion and no system", name, err, sys != nil)
		}
	}
	path := filepath.Join(t.TempDir(), "v4.gbpsnap")
	if err := os.WriteFile(path, older["version 4"], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotAnyParams(path); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("LoadSnapshotAnyParams: got %v, want ErrSnapshotVersion", err)
	}
}

// A tree's points are not in the image: the decoder gathers the molecule's
// and the surface's through the tree's permutation. A permutation that is
// not one — a slot holding a point twice, or one past the points — is
// refused as corrupt with no System, in either tree, so the derived points
// cannot hide a corrupted index. And a version-8 image, whose trees carried
// their points, is refused by its version.
func TestSnapshotRefusesBadTreeIndex(t *testing.T) {
	sys, image := snapshotFixture(t, true)
	slots := retiredSlots(t, image)
	for tree, at := range map[string]int{
		"atoms":    slots[slotAtomsMoments] - len(enc(sys.Atoms.AppendTo)),
		"q-points": slots[slotQPtsMoments] - len(enc(sys.QPts.AppendTo)),
	} {
		n := int(binary.LittleEndian.Uint32(image[at:]))
		for name, v := range map[string]uint32{
			"twice":        binary.LittleEndian.Uint32(image[at+4:]),
			"out of range": uint32(n),
			"negative":     math.MaxUint32,
		} {
			b := append([]byte(nil), image...)
			binary.LittleEndian.PutUint32(b[at+4+4*(n/2):], v)
			if got, err := DecodeSnapshot(restamp(b)); !errors.Is(err, ErrSnapshotCorrupt) || got != nil {
				t.Errorf("%s tree, slot %d %s: got %v (system %v), want ErrSnapshotCorrupt and no system", tree, n/2, name, err, got != nil)
			}
		}
	}
	if got, err := DecodeSnapshot(v8Image(t, image)); !errors.Is(err, ErrSnapshotVersion) || got != nil {
		t.Errorf("a version-8 image: got %v (system %v), want ErrSnapshotVersion and no system", err, got != nil)
	}
}

// Images of version 2, whose Born and E_pol lists were per row, and of
// version 3, whose E_pol lists were, are refused with ErrSnapshotVersion
// and no System: no image of a per-row layout is hoisted into tiles. The
// same bytes stamped this version decode.
func TestSnapshotHoistsRowImage(t *testing.T) {
	_, image := snapshotFixture(t, true)
	for _, version := range []uint16{2, 3} {
		b := append([]byte(nil), image...)
		binary.LittleEndian.PutUint16(b[len(snapshotMagic):], version)
		if sys, err := DecodeSnapshot(restamp(b)); !errors.Is(err, ErrSnapshotVersion) || sys != nil {
			t.Errorf("a version-%d image: got %v (system %v), want ErrSnapshotVersion and no system", version, err, sys != nil)
		}
	}
	if _, err := DecodeSnapshot(image); err != nil {
		t.Errorf("the image at version %d: %v", snapshotVersion, err)
	}
}

// Octree moment sets, which version 3 wrote behind each tree, are no part
// of this layout: an image with them is refused by its version when stamped
// 3, and is corrupt when stamped this version.
func TestSnapshotDecodesMomentsImage(t *testing.T) {
	_, image := snapshotFixture(t, true)
	sets := enc(func(w *wire.Writer) {
		w.U32(1)
		w.Str("charge")
		w.Bool(false)
		w.U32(1)
		for range 4 {
			w.F64s(nil)
		}
	})
	ins := map[int][]byte{slotAtomsMoments: sets, slotQPtsMoments: sets}
	for version, want := range map[uint16]error{3: ErrSnapshotVersion, snapshotVersion: ErrSnapshotCorrupt} {
		if sys, err := DecodeSnapshot(withRetired(t, image, version, ins)); !errors.Is(err, want) || sys != nil {
			t.Errorf("version %d: got %v (system %v), want %v and no system", version, err, sys != nil, want)
		}
	}
}

// An image of this version is refused as corrupt, never misread, when it
// carries bytes where version 4 kept its retired places — a far-field order,
// moment sets, a repair certificate whole or in part — and so is one stamped
// with a precision tier this build does not compute: the f32 tier's byte 2,
// or a byte no build wrote.
func TestSnapshotFarFieldCorruptions(t *testing.T) {
	sys, image := snapshotFixture(t, true)
	cl := sys.lists
	n := sys.Atoms.NumNodes()
	margins := func(sizes ...int) []byte {
		return enc(func(w *wire.Writer) {
			for _, s := range sizes {
				w.F64s(make([]float64, s))
			}
		})
	}
	far, near := len(cl.Born.OwnFar), len(cl.Epol.OwnNear)
	geometry := enc(func(w *wire.Writer) {
		wire.PutF64Records(w, make([]geom.Vec3, n))
		w.F64s(make([]float64, n))
	})
	for name, ins := range map[string]map[int][]byte{
		"far order out of range": {slotFarOrder: {3}},
		"truncated moments":      {slotAtomsMoments: enc(func(w *wire.Writer) { w.U32(1) })},
		"moment channels": {slotQPtsMoments: enc(func(w *wire.Writer) {
			w.U32(1)
			w.Str("wn")
			w.Bool(true)
			w.U32(2)
		})},
		"one margin array present":      {slotBorn: margins(far)},
		"one margin array missing":      {slotBorn: margins(far, far, 0, 0, 0)},
		"one phase uncertified":         {slotEpol: certificate(0)},
		"margins without node snapshot": {slotBorn: certificate(far), slotEpol: certificate(near)},
		"node snapshot without margins": {slotNodes: geometry},
		"node centers without radii":    {slotNodes: enc(func(w *wire.Writer) { wire.PutF64Records(w, make([]geom.Vec3, n)) })},
		"near margins on untested rows": {slotEpol: margins(0, 0, near)},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSnapshot(withRetired(t, image, snapshotVersion, ins)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
	for name, v := range map[string]byte{"precision f32": 2, "precision unknown": 200} {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), image...)
			if b[precisionAt] != 0 {
				t.Fatalf("byte %d is %d, want the exact tier's 0 (layout drifted?)", precisionAt, b[precisionAt])
			}
			b[precisionAt] = v
			if _, err := DecodeSnapshot(restamp(b)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// A lanes image decodes as the lanes tier and loads under this build's
// lanes parameters. The image an older build wrote for it — version 4, its
// stamp taken over the approximate math byte beside the lanes tier — is
// refused by its version.
func TestSnapshotDecodesLegacyLanesStamp(t *testing.T) {
	params := DefaultParams()
	params.Precision = PrecisionLanes
	sys, _, _ := testSystem(t, 150, 7, params)
	sys.Lists(nil)
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lanes.gbpsnap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path, params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != sys.Params {
		t.Errorf("decoded parameters %+v, want %+v", got.Params, sys.Params)
	}
	if _, err := DecodeSnapshot(v4Image(t, data, 1)); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("the version-4 lanes image: got %v, want ErrSnapshotVersion", err)
	}
}

// A repair certificate, which versions up to 2 computed and version 4 kept
// places for, is no part of this layout: an image that carries one whole is
// corrupt, and the same image stamped version 2 is refused by its version
// before anything else is read.
func TestSnapshotDecodesCertifiedImage(t *testing.T) {
	sys, image := snapshotFixture(t, true)
	n := sys.Atoms.NumNodes()
	ins := map[int][]byte{
		slotBorn: certificate(len(sys.lists.Born.OwnFar)),
		slotEpol: certificate(len(sys.lists.Epol.OwnFar)),
		slotNodes: enc(func(w *wire.Writer) {
			wire.PutF64Records(w, make([]geom.Vec3, n))
			w.F64s(make([]float64, n))
		}),
	}
	for version, want := range map[uint16]error{2: ErrSnapshotVersion, snapshotVersion: ErrSnapshotCorrupt} {
		if got, err := DecodeSnapshot(withRetired(t, image, version, ins)); !errors.Is(err, want) || got != nil {
			t.Errorf("a certified image stamped version %d: got %v (system %v), want %v and no system", version, err, got != nil, want)
		}
	}
}

// Save/Load round-trips through a file; loading under different
// parameters is refused with ErrSnapshotParams.
func TestSnapshotSaveLoadParams(t *testing.T) {
	sys, _, _ := testSystem(t, 100, 11, DefaultParams())
	path := filepath.Join(t.TempDir(), "ckpt.gbpsnap")
	if err := SaveSnapshot(path, sys); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path, sys.Params); err != nil {
		t.Fatalf("load with matching params: %v", err)
	}
	other := DefaultParams()
	other.EpsBorn = 0.5
	if _, err := LoadSnapshot(path, other); !errors.Is(err, ErrSnapshotParams) {
		t.Fatalf("load with different params: got %v, want ErrSnapshotParams", err)
	}
	// Parameters that default to the same values are the same run config.
	if _, err := LoadSnapshot(path, Params{}); err != nil {
		t.Fatalf("load with zero (defaulted) params: %v", err)
	}
	// A partial tmp file left by a killed writer is not the checkpoint.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	// The worker/reload path takes the snapshot's own parameters verbatim
	// (the stamp still guards integrity; only the caller-side match is
	// skipped).
	got, err := LoadSnapshotAnyParams(path)
	if err != nil {
		t.Fatalf("LoadSnapshotAnyParams: %v", err)
	}
	if ParamsFingerprint(got.Params) != ParamsFingerprint(sys.Params) {
		t.Fatal("LoadSnapshotAnyParams restored different parameters")
	}
}

// The format is pinned byte for byte: this is the SHA-256 of the snapshot
// of a seeded 500-atom Morton system with compiled lists, as EncodeSnapshot
// writes it. Pinned first by the commit BEFORE the bulk codec (per-element
// loops), so a snapshot either side writes loads on the other, then
// re-taken as the format changed: the repair certificate written
// zero-length, the Born tiles' shared runs stored once (version 3), the
// system at far-field order 0 with no moment sets behind its trees, the
// E_pol tiles' shared runs stored once (version 4, 799 719 bytes), version
// 5, which drops the places version 4 kept for retired configurations and
// wrote empty (79 bytes here, 799 640 bytes), version 6, which writes both
// phases' lists in one layout: every CSR pair of the rows and of the tiles,
// the Born tiles' empty shared near runs among them (801 560 bytes), version
// 7, which writes each tile's own runs once, an entry beside its lane mask,
// in place of its rows' own runs (648 579 bytes), version 8, which writes
// no Cede runs: the mutual pairs a row's lower partner sweeps (640 063
// bytes), and — the last re-recording — version 9, which writes each tree's
// nodes as one block of columns and not its points, which the molecule and
// the surface give. With its trees written in version 8's layout (v8Image)
// the same system gives version 8's bytes exactly; from those, in version
// 7's layout (v7Image), its Cede runs derived from the Sym runs, version 7's,
// in version 6's (v6Image) version 6's, in version 5's (v5Image) version
// 5's, and with the retired places filled back in version 4's. The digest
// covers computed floats (the surface), hence one architecture: elsewhere
// the compiler may fuse multiply-adds.
func TestSnapshotBytesStable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were taken on amd64")
	}
	sys, _, _ := testSystem(t, 500, 14, mortonParams())
	sys.Lists(nil)
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		version uint16
		image   []byte
		size    int
		sha     string
	}{
		{snapshotVersion, data, 532403, "e2c038f971a34a3623f8d0baa53233da9f155a6b15826b252d23c78f8eb466a9"},
		{8, v8Image(t, data), 640063, "fa33824f1da7897a4de6729c2338aa7dddae3f48303cc8c7034467c3b2ef5c85"},
		{7, v7Image(t, data), 648579, "db5e8654df805fd336f2505bd700ee4a00e33ec33281c028ea5b3d338e941c63"},
		{6, v6Image(t, data), 801560, "6289beb4b4aa83b3688d480298c63001f5c3b567dacf3f2967525825d573d5fc"},
		{5, v5Image(t, data), 799640, "7d20438fb3681a0a5a86189afa32e075ccd3fe5f04ee88eeacf45c5f1c23aceb"},
		{4, v4Image(t, data, 0), 799719, "359563886babcb17bc37de67187b2e5fd48c1e774f86e198bc8736b57b3ba50e"},
	} {
		sum := sha256.Sum256(c.image)
		if got := hex.EncodeToString(sum[:]); len(c.image) != c.size || got != c.sha {
			t.Errorf("version %d: %d bytes, sha256 %s; the format is pinned at %d bytes, %s", c.version, len(c.image), got, c.size, c.sha)
		}
	}
}

// SaveSnapshot streams what EncodeSnapshot buffers: the file is the same
// bytes, CRC trailer included, with and without a list block, and loads
// to a system that evaluates like the original.
func TestSaveSnapshotMatchesEncode(t *testing.T) {
	for _, withLists := range []bool{true, false} {
		sys, want := snapshotFixture(t, withLists)
		path := filepath.Join(t.TempDir(), "sys.ckpt")
		n, err := saveSnapshot(path, sys)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || n != int64(len(want)) {
			t.Fatalf("lists=%v: file has %d bytes (reported %d), EncodeSnapshot %d, equal=%v",
				withLists, len(got), n, len(want), bytes.Equal(got, want))
		}
		loaded, err := LoadSnapshot(path, sys.Params)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunShared(sys, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunShared(loaded, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if relErr(res.Epol, ref.Epol) > 1e-12 {
			t.Fatalf("lists=%v: loaded system gives E_pol %.17g, original %.17g", withLists, res.Epol, ref.Epol)
		}
	}
}

// A failed save leaves nothing behind: no tmp file, no partial file at
// the target, and the cause reachable through the returned error.
func TestSaveSnapshotFailureLeavesNoFile(t *testing.T) {
	sys, _, _ := testSystem(t, 60, 5, DefaultParams())
	dir := t.TempDir()

	// Rename fails: the target is an existing directory.
	target := filepath.Join(dir, "taken")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	err := SaveSnapshot(target, sys)
	var linkErr *os.LinkError
	if !errors.As(err, &linkErr) {
		t.Fatalf("save over a directory: got %v, want the rename's *os.LinkError", err)
	}
	if fi, serr := os.Stat(target); serr != nil || !fi.IsDir() {
		t.Fatalf("the directory at the target was disturbed: %v", serr)
	}

	// Create fails: the parent directory does not exist.
	orphan := filepath.Join(dir, "missing", "sys.ckpt")
	if err := SaveSnapshot(orphan, sys); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("save under a missing directory: got %v, want fs.ErrNotExist", err)
	}
	if _, serr := os.Stat(orphan); !errors.Is(serr, fs.ErrNotExist) {
		t.Fatalf("partial file at the target: %v", serr)
	}

	// A system that cannot be encoded fails before any file is made.
	sys.ApplyRigidTransform(geom.Translate(geom.Vec3{X: 1}))
	if err := SaveSnapshot(filepath.Join(dir, "posed.ckpt"), sys); err == nil {
		t.Fatal("SaveSnapshot accepted a re-posed system")
	}

	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != "taken" {
		t.Fatalf("files left behind: %v", left)
	}
}

// The parameter fingerprint covers every result-determining knob and
// ignores the debug recheck toggle.
func TestParamsFingerprint(t *testing.T) {
	base := DefaultParams()
	if ParamsFingerprint(base) != ParamsFingerprint(Params{}) {
		t.Fatal("defaulted params fingerprint differently from explicit defaults")
	}
	dbg := base
	dbg.DebugCheckLists = true
	if ParamsFingerprint(dbg) != ParamsFingerprint(base) {
		t.Fatal("DebugCheckLists must not change the fingerprint")
	}
	muts := []func(*Params){
		func(p *Params) { p.EpsBorn = 0.5 },
		func(p *Params) { p.EpsEpol = 0.3 },
		func(p *Params) { p.EpsSolv = 40 },
		func(p *Params) { p.Kernel = R4 },
		func(p *Params) { p.StrictBornMAC = true },
		func(p *Params) { p.LeafCap = 16 },
		func(p *Params) { p.Precision = PrecisionLanes },
	}
	for i, mut := range muts {
		p := base
		mut(&p)
		if ParamsFingerprint(p) == ParamsFingerprint(base) {
			t.Fatalf("mutation %d not covered by the fingerprint", i)
		}
	}
}

// FuzzDecodeSnapshot pins the no-panic, no-overallocation property on
// arbitrary input. Run with `go test -fuzz=FuzzDecodeSnapshot` to
// explore (`make fuzz` does, for a few seconds); the seeds alone cover the
// interesting prefixes in CI: images of this version (9: the trees' nodes
// in columns and no points, own runs beside their lane masks) with and
// without lists, whole and cut short, the same image with bytes where
// version 4 kept its retired places, and images of versions 8, 7, 6 and 4.
func FuzzDecodeSnapshot(f *testing.F) {
	_, data := snapshotFixture(f, true)
	_, bare := snapshotFixture(f, false)
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	for _, image := range [][]byte{data, bare} {
		f.Add(image)
		for _, cut := range []int{4, 5, len(image) / 4, len(image) / 2} {
			f.Add(image[:len(image)-cut])
		}
	}
	trunc := append([]byte(nil), data[:40]...)
	f.Add(restamp(append(trunc, make([]byte, 4)...)))
	zero := enc(func(w *wire.Writer) { w.U32(0) })
	for slot := range numSlots {
		f.Add(withRetired(f, data, snapshotVersion, map[int][]byte{slot: zero}))
	}
	f.Add(v8Image(f, data))
	f.Add(v7Image(f, data))
	f.Add(v6Image(f, data))
	f.Add(v4Image(f, data, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		w, werr := decodeWorkerSnapshot(b)
		if werr != nil && w != nil {
			t.Fatal("non-nil worker system alongside error")
		}
		sys, err := DecodeSnapshot(b)
		if err != nil {
			if sys != nil {
				t.Fatal("non-nil system alongside error")
			}
			return
		}
		if sys.Mol.NumAtoms() == 0 || sys.Surf.NumPoints() == 0 {
			t.Fatal("decoded system with empty inputs")
		}
		// What the full decode accepts with lists, the worker decode accepts
		// too, and the two agree on the E_pol side.
		if sys.lists == nil {
			return
		}
		if werr != nil {
			t.Fatalf("the worker decode refused a snapshot DecodeSnapshot accepts: %v", werr)
		}
		if !reflect.DeepEqual(w.Mol, sys.Mol) || !reflect.DeepEqual(w.Atoms, sys.Atoms) ||
			!reflect.DeepEqual(w.lists.Epol, sys.lists.Epol) ||
			!slices.Equal(w.lists.cost[phaseEpol], sys.lists.cost[phaseEpol]) {
			t.Fatal("the worker decode and DecodeSnapshot disagree on the E_pol side")
		}
	})
}
