package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
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
			// Math mode byte (after magic+version+stamp+3 float64 params).
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

// legacyMomentsImage is the snapshot of a 120-atom Morton system with
// compiled lists at far-field order 0, written by the last build that kept
// multipole moment sets on its octrees (a charge set on the atoms tree, a
// weighted-normal set of three channels on the q-points tree) and wrote
// them behind each tree, where this build writes a count of zero.
func legacyMomentsImage(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "moments_pr28.gbpsnap"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// An image written by the last build that kept moment sets on its octrees
// is a version-3 image, and this build reads version 4 alone: it is refused
// with ErrSnapshotVersion and no System. (The moment sets behind its trees
// are still read past, under their length checks, once the image without
// its lists is stamped version 4: TestSnapshotFarFieldCorruptions.)
func TestSnapshotDecodesMomentsImage(t *testing.T) {
	sys, err := DecodeSnapshot(legacyMomentsImage(t))
	if !errors.Is(err, ErrSnapshotVersion) || sys != nil {
		t.Fatalf("got %v (system %v), want ErrSnapshotVersion and no system", err, sys != nil)
	}
}

// The offsets of the parameter stamp and of three parameter bytes in an
// image: behind the magic and the version the stamp, behind it EpsBorn,
// EpsEpol and EpsSolv, then the retired math mode, the Born kernel and the
// precision tier; the far-field order closes the section.
const (
	stampAt                         = 8 + 2
	mathAt, precisionAt, farOrderAt = stampAt + 8 + 3*8, mathAt + 2, precisionAt + 2 + 1 + 4
)

// An image stamped with a configuration this build no longer computes — a
// far-field order above 0, the f32 precision tier, or the scalar
// approximate-math tier (the approximate math mode beside the exact tier) —
// is refused as retired, before its stamp is checked and with no System: a
// current image with its precision, math or far-order byte rewritten and
// its checksum made good. The committed image written at FarOrder 2 is a
// version-2 image, refused by its version before that.
func TestSnapshotRefusesRetired(t *testing.T) {
	retired, err := os.ReadFile(filepath.Join("testdata", "certified_pr19.gbpsnap"))
	if err != nil {
		t.Fatal(err)
	}
	_, data := snapshotFixture(t, true)
	patched := func(at int, v byte) []byte {
		b := append([]byte(nil), data...)
		if b[at] != 0 {
			t.Fatalf("byte %d is %d, want 0 (layout drifted?)", at, b[at])
		}
		b[at] = v
		return restamp(b)
	}
	if sys, err := DecodeSnapshot(retired); !errors.Is(err, ErrSnapshotVersion) || sys != nil {
		t.Errorf("FarOrder 2 image: got %v (system %v), want ErrSnapshotVersion and no system", err, sys != nil)
	}
	for name, image := range map[string][]byte{
		"f32 precision":     patched(precisionAt, 2),
		"approximate math":  patched(mathAt, 1),
		"far-field order 1": patched(farOrderAt, 1),
	} {
		sys, err := DecodeSnapshot(image)
		if !errors.Is(err, ErrSnapshotRetired) || sys != nil {
			t.Errorf("%s: got %v (system %v), want ErrSnapshotRetired and no system", name, err, sys != nil)
		}
	}
	path := filepath.Join(t.TempDir(), "retired.gbpsnap")
	if err := os.WriteFile(path, retired, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotAnyParams(path); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("LoadSnapshotAnyParams: got %v, want ErrSnapshotVersion", err)
	}
}

// An older build stamped a lanes image with the approximate math mode its
// lanes tier implied: such an image decodes as the lanes tier — its stamp
// verified over the byte it was written with — and loads under this
// build's lanes parameters. With that byte and a stamp that does not cover
// it, the image fails its stamp.
func TestSnapshotDecodesLegacyLanesStamp(t *testing.T) {
	params := DefaultParams()
	params.Precision = PrecisionLanes
	sys, _, _ := testSystem(t, 150, 7, params)
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	data[mathAt] = approxMath
	if _, err := DecodeSnapshot(restamp(append([]byte(nil), data...))); !errors.Is(err, ErrSnapshotParams) {
		t.Fatalf("math byte rewritten under the current stamp: got %v, want ErrSnapshotParams", err)
	}
	binary.LittleEndian.PutUint64(data[stampAt:], paramsFingerprint(sys.Params, approxMath))
	path := filepath.Join(t.TempDir(), "lanes.gbpsnap")
	if err := os.WriteFile(path, restamp(data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path, params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != sys.Params {
		t.Errorf("decoded parameters %+v, want %+v", got.Params, sys.Params)
	}
}

// Corruptions of what older images carry and this build only reads past or
// refuses: a truncated or malformed moment set behind an octree, a
// far-field order byte no build wrote, and a repair certificate, whole or in
// part. All fail with ErrSnapshotCorrupt, never a panic or a misread tree.
func TestSnapshotFarFieldCorruptions(t *testing.T) {
	// The moments image cut after its trees: the q-points tree's moment
	// sets end the stream, Bool(false) and the CRC after them. Without its
	// lists a version-3 image is laid out as version 4 is.
	image := legacyMomentsImage(t)
	r := wire.NewReader(image[len(snapshotMagic) : len(image)-4])
	r.U16()
	r.U64()
	if _, _, err := decodeParams(r); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMolecule(r); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSurface(r); err != nil {
		t.Fatal(err)
	}
	var qpts *octree.Tree
	for range 2 {
		tree, err := octree.DecodeTree(r)
		if err != nil {
			t.Fatal(err)
		}
		qpts = tree
	}
	noLists := append(append([]byte(nil), image[:len(image)-4-r.Remaining()]...), 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(noLists[len(snapshotMagic):], snapshotVersion)
	restamp(noLists)
	if _, err := DecodeSnapshot(noLists); err != nil {
		t.Fatalf("the moments image without its lists: %v", err)
	}
	t.Run("truncated moments", func(t *testing.T) {
		// The very last array is the second moments of channel 2 of the "wn"
		// set (6*nNodes float64s behind a u32 count). Shrink the count: the
		// skip's length validation must reject the set.
		data := append([]byte(nil), noLists...)
		nq := qpts.NumNodes()
		cnt := len(data) - 4 - 1 - 6*nq*8 - 4
		if got := binary.LittleEndian.Uint32(data[cnt:]); got != uint32(6*nq) {
			t.Fatalf("expected qFlat count %d at offset %d, found %d (layout drifted?)", 6*nq, cnt, got)
		}
		binary.LittleEndian.PutUint32(data[cnt:], uint32(6*nq-6))
		if _, err := DecodeSnapshot(restamp(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("moment channels", func(t *testing.T) {
		// The "wn" set is a vector of three channels: its header — name,
		// vector flag, channel count — sits behind the atoms tree's sets and
		// the q-points tree's set count. Claim two channels.
		data := append([]byte(nil), noLists...)
		at := bytes.Index(data, []byte("\x02\x00\x00\x00wn\x01\x03\x00\x00\x00"))
		if at < 0 {
			t.Fatal("no vector set \"wn\" of three channels in the image (layout drifted?)")
		}
		data[at+4+2+1] = 2
		if _, err := DecodeSnapshot(restamp(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("far order out of range", func(t *testing.T) {
		// No build wrote a far-field order above 2.
		_, data := snapshotFixture(t, true)
		data[farOrderAt] = 3
		if _, err := DecodeSnapshot(restamp(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	// This build keeps no repair certificate: an image with any part of one
	// is refused.
	for name, data := range mixedCertificates(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSnapshot(data); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// certifiedImage is a snapshot in this build's layout with a repair
// certificate put in where the certificate-writing builds kept it: between
// each phase's lists and its orders six margin arrays, sized by the rule
// they were written under, and behind the list block a copy of the node
// geometry — filled with values nothing reads. The system comes back beside
// it.
func certifiedImage(t testing.TB) (*System, []byte) {
	t.Helper()
	sys, _, _ := testSystem(t, 150, 7, mortonParams())
	sys.Lists(nil)
	image, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	b := parseCertifiedBlock(t, image)
	filled := func(n int) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = 0.5 + float64(i%7)
		}
		return a
	}
	for _, p := range []struct {
		l          *certifiedLists
		nearTested bool // the Born lists' near entries were opening-tested
	}{{&b.born, true}, {&b.epol, false}} {
		far, near := len(p.l.far()), len(p.l.near())
		p.l.FarMargin, p.l.FarPath, p.l.NearPath = filled(far), filled(far), filled(near)
		p.l.SymPath, p.l.CedePath = filled(len(p.l.index[6])), filled(len(p.l.index[8]))
		if p.nearTested {
			p.l.NearMargin = filled(near)
		}
	}
	n := sys.Atoms.NumNodes()
	b.nodeC, b.nodeR = make([]geom.Vec3, n), filled(n)
	for i := range b.nodeC {
		b.nodeC[i] = geom.V(float64(i), 1, 2)
	}
	return sys, b.encode()
}

// certifiedLists is one phase's lists in wire order: nine index arrays, the
// six certificate arrays (far margins, far paths, near margins, near paths,
// sym paths, cede paths), the orders, and the phase's tiles — the Born tile
// runs and their orders, or the E_pol shared runs.
type certifiedLists struct {
	index                                                       [9][]int32
	FarMargin, FarPath, NearMargin, NearPath, SymPath, CedePath []float64
	ord                                                         []uint8
	tiles                                                       [][]int32
	tileOrd                                                     []uint8
}

// certifiedBlock is a snapshot cut at its list block: the bytes before the
// block's arrays, then the arrays, which this file reads and writes for
// itself — no encoder of a certificate is left in the build.
type certifiedBlock struct {
	head       []byte
	born, epol certifiedLists
	nodeC      []geom.Vec3
	nodeR      []float64
}

func parseCertifiedBlock(t testing.TB, data []byte) *certifiedBlock {
	t.Helper()
	body := data[len(snapshotMagic) : len(data)-4]
	r := wire.NewReader(body)
	r.U16()
	r.U64()
	if _, _, err := decodeParams(r); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMolecule(r); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSurface(r); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := octree.DecodeTree(r); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Bool() {
		t.Fatal("the image has no list block")
	}
	r.F64()
	r.F64()
	r.U8()
	b := &certifiedBlock{head: data[:len(snapshotMagic)+len(body)-r.Remaining()]}
	for p, l := range []*certifiedLists{&b.born, &b.epol} {
		for i := range l.index {
			l.index[i] = r.I32s()
		}
		for _, a := range l.certificate() {
			*a = r.F64s()
		}
		l.ord = r.U8s()
		l.tiles = make([][]int32, [2]int{2, 8}[p])
		for i := range l.tiles {
			l.tiles[i] = r.I32s()
		}
		if p == 0 {
			l.tileOrd = r.U8s()
		}
	}
	b.nodeC, b.nodeR = wire.F64Records[geom.Vec3](r), r.F64s()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("list block: %v, %d bytes left", r.Err(), r.Remaining())
	}
	return b
}

func (l *certifiedLists) certificate() [6]*[]float64 {
	return [6]*[]float64{&l.FarMargin, &l.FarPath, &l.NearMargin, &l.NearPath, &l.SymPath, &l.CedePath}
}

// far and near are the phase's Far and Near entry arrays.
func (l *certifiedLists) far() []int32  { return l.index[2] }
func (l *certifiedLists) near() []int32 { return l.index[4] }

// uncertify empties the phase's share of the certificate.
func (l *certifiedLists) uncertify() {
	for _, a := range l.certificate() {
		*a = nil
	}
}

func (b *certifiedBlock) encode() []byte {
	var w wire.Writer
	w.Raw(b.head)
	for p, l := range []*certifiedLists{&b.born, &b.epol} {
		for _, a := range l.index {
			w.I32s(a)
		}
		for _, a := range l.certificate() {
			w.F64s(*a)
		}
		w.U8s(l.ord)
		for _, a := range l.tiles {
			w.I32s(a)
		}
		if p == 0 {
			w.U8s(l.tileOrd)
		}
	}
	wire.PutF64Records(&w, b.nodeC)
	w.F64s(b.nodeR)
	w.U32(0)
	return restamp(w.Bytes())
}

// mixedCertificates returns snapshots whose list block holds part of a
// repair certificate — well-formed, checksummed streams of this build's
// layout — keyed by what was done to the lists of the certified image, as
// written (certified) or with its certificate taken out first.
func mixedCertificates(t testing.TB) map[string][]byte {
	t.Helper()
	_, image := certifiedImage(t)
	if b := parseCertifiedBlock(t, image); len(b.born.far()) == 0 || len(b.born.FarPath) == 0 || len(b.epol.near()) == 0 ||
		len(b.nodeR) == 0 || !bytes.Equal(b.encode(), image) {
		t.Fatal("the certified image holds an empty list (a missing array would be a sized one), or this file misreads it")
	}
	out := map[string][]byte{}
	for name, c := range map[string]struct {
		certified bool
		mut       func(b, whole *certifiedBlock)
	}{
		"one margin array present": {false, func(b, _ *certifiedBlock) {
			b.born.FarMargin = make([]float64, len(b.born.far()))
		}},
		"node snapshot without margins": {false, func(b, whole *certifiedBlock) {
			b.nodeC, b.nodeR = whole.nodeC, whole.nodeR
		}},
		"margins without node snapshot": {true, func(b, _ *certifiedBlock) { b.nodeC, b.nodeR = nil, nil }},
		"node centers without radii":    {true, func(b, _ *certifiedBlock) { b.nodeR = nil }},
		"one margin array missing":      {true, func(b, _ *certifiedBlock) { b.born.FarPath = nil }},
		"one phase uncertified":         {true, func(b, _ *certifiedBlock) { b.born.uncertify() }},
		"near margins on untested rows": {true, func(b, _ *certifiedBlock) {
			b.epol.NearMargin = make([]float64, len(b.epol.near()))
		}},
	} {
		b, whole := parseCertifiedBlock(t, image), parseCertifiedBlock(t, image)
		if !c.certified {
			b.born.uncertify()
			b.epol.uncertify()
			b.nodeC, b.nodeR = nil, nil
			if _, err := DecodeSnapshot(b.encode()); err != nil {
				t.Fatalf("the image without its certificate: %v", err)
			}
		}
		c.mut(b, whole)
		out[name] = b.encode()
	}
	return out
}

// The repair certificate an older build wrote beside its lists is no part of
// this build's format: an image of this version that carries one whole is
// corrupt, and the same image stamped version 2 — the last version a
// certificate was written at — is refused by its version before anything
// else is read.
func TestSnapshotDecodesCertifiedImage(t *testing.T) {
	_, image := certifiedImage(t)
	if sys, err := DecodeSnapshot(image); !errors.Is(err, ErrSnapshotCorrupt) || sys != nil {
		t.Errorf("a certified image: got %v (system %v), want ErrSnapshotCorrupt and no system", err, sys != nil)
	}
	old := append([]byte(nil), image...)
	binary.LittleEndian.PutUint16(old[len(snapshotMagic):], snapshotVersionRows)
	if sys, err := DecodeSnapshot(restamp(old)); !errors.Is(err, ErrSnapshotVersion) || sys != nil {
		t.Errorf("a certified version-2 image: got %v (system %v), want ErrSnapshotVersion and no system", err, sys != nil)
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
// system at far-field order 0 with no moment sets behind its trees, and —
// the last re-recording — the E_pol tiles' shared runs stored once
// (version 4, without the tiles' cut, which the rows make), which takes
// the bytes from 842 523 to 799 719. The digest covers computed floats
// (the surface), hence one architecture: elsewhere the compiler may fuse
// multiply-adds.
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
	const size, sha = 799719, "359563886babcb17bc37de67187b2e5fd48c1e774f86e198bc8736b57b3ba50e"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != size || got != sha {
		t.Errorf("version %d: %d bytes, sha256 %s; the format is pinned at %d bytes, %s", snapshotVersion, len(data), got, size, sha)
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
// explore; the seeds alone cover the interesting prefixes in CI.
func FuzzDecodeSnapshot(f *testing.F) {
	_, data := snapshotFixture(f, true)
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-4])
	trunc := append([]byte(nil), data[:40]...)
	f.Add(restamp(append(trunc, make([]byte, 4)...)))
	// An image of this version with a repair certificate whole, and with
	// every mixture of one; the version-3 image with moment sets behind its
	// trees; the version-2 image of a retired configuration.
	sys, certified := certifiedImage(f)
	f.Add(certified)
	for _, mixed := range mixedCertificates(f) {
		f.Add(mixed)
	}
	f.Add(legacyMomentsImage(f))
	retired, err := os.ReadFile(filepath.Join("testdata", "certified_pr19.gbpsnap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(retired)
	// The same system as this version writes it, and as version 2 wrote it,
	// per row.
	for _, encode := range []func(*System) ([]byte, error){EncodeSnapshot, encodeRowImage} {
		image, err := encode(sys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(image)
	}
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
