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
	"os"
	"path/filepath"
	"runtime"
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
// with lists of this version or of version 5 (v5Image). In either, a phase's
// lists are its rows and eight row arrays, then its tiles' arrays: version
// 5 wrote the Born tiles' far run alone.
func retiredSlots(t testing.TB, image []byte) [numSlots]int {
	t.Helper()
	body := image[:len(image)-4]
	r := wire.NewReader(body[len(snapshotMagic):])
	at := func() int { return len(body) - r.Remaining() }
	var s [numSlots]int
	bornTiles := 2 * (runFar + 1)
	if r.U16() == 5 {
		bornTiles = 2
	}
	r.U64()
	s[slotMath] = at() + 3*8
	if _, err := decodeParams(r); err != nil {
		t.Fatal(err)
	}
	s[slotFarOrder] = at()
	if _, err := decodeMolecule(r); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSurface(r); err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{slotAtomsMoments, slotQPtsMoments} {
		if _, err := octree.DecodeTree(r); err != nil {
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
		{slotEpol, 2 * (runFar + 1), slotNodes},
	} {
		for range 1 + 2*(runFar+1) {
			r.I32s()
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

// appendRowsV5 writes il's rows and row arrays as versions up to 5 did,
// the far run's first.
func appendRowsV5(w *wire.Writer, il *InteractionLists) {
	for _, a := range [][]int32{il.Rows, il.FarOff, il.Far, il.NearOff, il.Near, il.SymOff, il.Sym, il.CedeOff, il.Cede} {
		w.I32s(a)
	}
}

// v5Image is image, a snapshot of this version with lists, as version 5
// wrote it: the same bytes up to the list block, and in it each phase's rows
// and row arrays (appendRowsV5), the Born tiles' far run and the E_pol
// tiles' runs.
func v5Image(t testing.TB, image []byte) []byte {
	t.Helper()
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	born, epol := sys.lists.Born, sys.lists.Epol
	var w wire.Writer
	w.Raw(image[:retiredSlots(t, image)[slotListOrder]])
	appendRowsV5(&w, born)
	w.I32s(born.TileFarOff)
	w.I32s(born.TileFar)
	appendRowsV5(&w, epol)
	for _, c := range epol.tileCSR() {
		w.I32s(*c.off)
		w.I32s(*c.ents)
	}
	w.U32(0)
	out := w.Bytes()
	binary.LittleEndian.PutUint16(out[len(snapshotMagic):], 5)
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
// a version-5 image, whose Born tiles stored their far run alone, and this
// layout stamped either version are refused with ErrSnapshotVersion and no
// System, by DecodeSnapshot and by LoadSnapshotAnyParams. Checkpoints are
// written and read by one build, and no older layout is read.
func TestSnapshotRefusesRetired(t *testing.T) {
	_, image := snapshotFixture(t, true)
	older := map[string][]byte{
		"version 4": v4Image(t, image, 0),
		"version 5": v5Image(t, image),
	}
	for _, version := range []uint16{4, 5} {
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
	far, near := len(cl.Born.Far), len(cl.Epol.Near)
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
		slotBorn: certificate(len(sys.lists.Born.Far)),
		slotEpol: certificate(len(sys.lists.Epol.Far)),
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
// wrote empty (79 bytes here, 799 640 bytes), and — the last re-recording —
// version 6, which writes both phases' lists in one layout: every CSR pair
// of the rows and of the tiles, the Born tiles' empty shared near runs
// among them. Written in version 5's layout (v5Image) the same lists give
// version 5's bytes exactly, and with the retired places filled back in
// version 4's. The digest covers computed floats (the surface), hence one
// architecture: elsewhere the compiler may fuse multiply-adds.
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
		{snapshotVersion, data, 801560, "6289beb4b4aa83b3688d480298c63001f5c3b567dacf3f2967525825d573d5fc"},
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
// explore; the seeds alone cover the interesting prefixes in CI: images of
// this version with and without lists, whole and cut short, the same image
// with bytes where version 4 kept its retired places, and a version-4 image.
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
	f.Add(v4Image(f, data, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
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
	})
}
