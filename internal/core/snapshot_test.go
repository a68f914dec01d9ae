package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/mathx"
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

// legacyMomentBytes is what the moment sets of that build take behind a
// tree of nNodes nodes over nPts points: per set its name, vector flag and
// channel count, and per channel four counted arrays — a weight per point,
// and per node the weight, the dipole (3 floats) and the second moment (6).
func legacyMomentBytes(nNodes, nPts int, sets map[string]int) int {
	n := 0
	for name, channels := range sets {
		n += 4 + len(name) + 1 + 4 + channels*(4*4+8*nPts+(1+3+6)*8*nNodes)
	}
	return n
}

// An image written with moment sets decodes in this build to the lists and
// the energy it held: the index digest and the E_pol bits below were
// printed by the commit that wrote the image. Re-encoding it drops exactly
// the moment sets' bytes.
func TestSnapshotDecodesMomentsImage(t *testing.T) {
	image := legacyMomentsImage(t)
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	if sys.lists == nil {
		t.Fatal("the image decoded without its lists")
	}
	if got, want := indexDigest(sys.Atoms, sys.lists), "36aa085499526b326d51325f2883fba026a119ac822c290c6cd29d2f97b984a5"; got != want {
		t.Errorf("index digest %s, the image was written over %s", got, want)
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatal(err)
	}
	res, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(res.Epol), uint64(0xc065521a65edf41a); got != want {
		t.Errorf("E_pol %#x (%.17g), the build that wrote the image computed %#x (%.17g)",
			got, res.Epol, want, math.Float64frombits(want))
	}
	again, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	moments := legacyMomentBytes(sys.Atoms.NumNodes(), sys.Atoms.NumPoints(), map[string]int{"charge": 1}) +
		legacyMomentBytes(sys.QPts.NumNodes(), sys.QPts.NumPoints(), map[string]int{"wn": 3})
	if dropped := len(image) - len(again); dropped != moments || moments != 117450 {
		t.Errorf("re-encoding dropped %d bytes; the moment sets take %d (117 450 by the writer's count)", dropped, moments)
	}
}

// An image stamped with a configuration this build no longer computes — a
// far-field order above 0, or the f32 precision tier — is refused as
// retired, before its stamp is checked and with no System: the committed
// image written at FarOrder 2, and a current image with its precision or
// far-order byte rewritten and its checksum made good.
func TestSnapshotRefusesRetired(t *testing.T) {
	retired, err := os.ReadFile(filepath.Join("testdata", "certified_pr19.gbpsnap"))
	if err != nil {
		t.Fatal(err)
	}
	_, data := snapshotFixture(t, true)
	const precisionByte, farOrderByte = 8 + 2 + 8 + 3*8 + 2, 8 + 2 + 8 + 3*8 + 4 + 1 + 4
	patched := func(at int, v byte) []byte {
		b := append([]byte(nil), data...)
		if b[at] != 0 {
			t.Fatalf("byte %d is %d, want 0 (layout drifted?)", at, b[at])
		}
		b[at] = v
		return restamp(b)
	}
	for name, image := range map[string][]byte{
		"FarOrder 2 image":  retired,
		"f32 precision":     patched(precisionByte, 2),
		"far-field order 1": patched(farOrderByte, 1),
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
	if _, err := LoadSnapshotAnyParams(path); !errors.Is(err, ErrSnapshotRetired) {
		t.Errorf("LoadSnapshotAnyParams: got %v, want ErrSnapshotRetired", err)
	}
}

// Corruptions of what older images carry and this build only reads past: a
// truncated or malformed moment set behind an octree, and a far-field order
// byte no build wrote. All fail with ErrSnapshotCorrupt, never a panic or a
// misread tree.
func TestSnapshotFarFieldCorruptions(t *testing.T) {
	// The moments image cut after its trees: the q-points tree's moment
	// sets end the stream, Bool(false) and the CRC after them.
	image := legacyMomentsImage(t)
	r := wire.NewReader(image[len(snapshotMagic) : len(image)-4])
	r.U16()
	r.U64()
	if _, err := decodeParams(r); err != nil {
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
		const farOrderByte = 8 + 2 + 8 + 3*8 + 4 + 1 + 4
		data[farOrderByte] = 3
		if _, err := DecodeSnapshot(restamp(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	// An older build's repair certificate is whole or absent; every mixture
	// is refused.
	for name, data := range mixedCertificates(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSnapshot(data); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// certifiedImage is a snapshot as the certificate-writing builds wrote it, of a
// 150-atom Morton system at far-field order 0: version 2, per-row Born
// lists, and the repair certificate between each phase's lists and its
// orders — six margin arrays per phase, sized by the rule they were written
// under, and a copy of the node geometry — filled with values nothing reads.
// It is the system's own encodeRowImage image with the certificate put in;
// the system comes back beside it.
func certifiedImage(t testing.TB) (*System, []byte) {
	t.Helper()
	sys, _, _ := testSystem(t, 150, 7, mortonParams())
	sys.Lists(nil)
	rows, err := encodeRowImage(sys)
	if err != nil {
		t.Fatal(err)
	}
	b := parseCertifiedBlock(t, rows)
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

// certifiedLists is one phase's lists as PR 19 and earlier wrote them, in
// wire order: nine index arrays, the six certificate arrays (far margins,
// far paths, near margins, near paths, sym paths, cede paths), the orders.
type certifiedLists struct {
	index                                                       [9][]int32
	FarMargin, FarPath, NearMargin, NearPath, SymPath, CedePath []float64
	ord                                                         []uint8
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
	if _, err := decodeParams(r); err != nil {
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
	for _, l := range []*certifiedLists{&b.born, &b.epol} {
		for i := range l.index {
			l.index[i] = r.I32s()
		}
		for _, a := range l.certificate() {
			*a = r.F64s()
		}
		l.ord = r.U8s()
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
	for _, l := range []*certifiedLists{&b.born, &b.epol} {
		for _, a := range l.index {
			w.I32s(a)
		}
		for _, a := range l.certificate() {
			w.F64s(*a)
		}
		w.U8s(l.ord)
	}
	wire.PutF64Records(&w, b.nodeC)
	w.F64s(b.nodeR)
	w.U32(0)
	return restamp(w.Bytes())
}

// mixedCertificates returns snapshots whose list block holds part of a
// repair certificate — well-formed, checksummed streams that only the
// all-or-nothing rule refuses — keyed by what was done to the lists of the
// certified image, as written (certified) or with its certificate taken
// out first.
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

// A certified image still decodes: its certificate passes the size rule
// and is dropped, the lists come back with the index they had (the Born
// rows hoisted into tiles: indexDigest merges them back), the next update
// repairs them as the system that wrote the image repairs its own, and the
// next checkpoint is smaller by the certificate and by what the Born tiles
// store once.
func TestSnapshotDecodesCertifiedImage(t *testing.T) {
	src, image := certifiedImage(t)
	sys, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	if sys.lists == nil {
		t.Fatal("the certified image decoded without its lists")
	}
	if got, want := indexDigest(sys.Atoms, sys.lists), indexDigest(src.Atoms, src.lists); got != want {
		t.Errorf("index digest %s, the image was written over %s", got, want)
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	// The certificate: twelve margin arrays and the node centers and radii,
	// every count written either way. The tiled Born lists against the same
	// lists per row: three arrays more, each behind a 4-byte count, and
	// every shared entry once a tile.
	b := parseCertifiedBlock(t, image)
	certificate := int64(24*len(b.nodeC) + 8*len(b.nodeR))
	for _, l := range []*certifiedLists{&b.born, &b.epol} {
		for _, a := range l.certificate() {
			certificate += int64(8 * len(*a))
		}
	}
	born := sys.lists.Born
	tiled := perRowLists(born, sys.Atoms).MemoryBytes() - born.MemoryBytes() - 3*4
	if dropped := len(image) - len(again); tiled <= 0 || int64(dropped)-tiled != certificate {
		t.Errorf("re-encoding dropped %d bytes, %d of them the Born tiles', the image's certificate was %d", dropped, tiled, certificate)
	}
	pos := localJiggle(rand.New(rand.NewSource(21)), sys.Mol.Positions(), 0.05)
	stats, err := sys.UpdateAtomsRepair(pos, nil, nil)
	if err != nil || !stats.Repaired || stats.Moved == 0 {
		t.Fatalf("first update of the decoded image: %+v %v", stats, err)
	}
	want, err := src.UpdateAtomsRepair(pos, nil, nil)
	if err != nil || stats != want {
		t.Errorf("the decoded image's repair %+v, the writer's own %+v (%v)", stats, want, err)
	}
	if got, want := indexDigest(sys.Atoms, sys.lists), indexDigest(src.Atoms, src.lists); got != want {
		t.Errorf("repaired index digest %s, the writer's repair gave %s", got, want)
	}
	if err := sys.RecheckLists(nil); err != nil {
		t.Fatal(err)
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

// The format is pinned byte for byte: these are the SHA-256 of the
// snapshot of a seeded 500-atom Morton system with compiled lists, as
// version 2 (encodeRowImage) and version 3 (EncodeSnapshot) write it.
// Pinned first by the commit BEFORE the bulk codec (per-element loops),
// so a snapshot either side writes loads on the other, then
// re-taken as the format changed: the repair certificate written
// zero-length, the Born tiles' shared runs stored once (version 3), and —
// the last re-recording — the system at far-field order 0 with no moment
// sets behind its trees, since no build after that writes either a higher
// order or a moment set (the commit before it wrote these same bytes for
// the system with its moment sets detached). The digests cover computed
// floats (the surface),
// hence one architecture: elsewhere the compiler may fuse multiply-adds.
func TestSnapshotBytesStable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were taken on amd64")
	}
	sys, _, _ := testSystem(t, 500, 14, mortonParams())
	sys.Lists(nil)
	v3, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := encodeRowImage(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		version int
		data    []byte
		size    int
		sha     string
	}{
		{2, v2, 1130359, "fe09d7783e3b12e4b76f51f80d33e41052e880a620e31929aa1225605b4c8f30"},
		{3, v3, 842523, "f9a4b1042246863124b0ca1781096466876f3d4c3811fe034e110bce2c6684f5"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); len(c.data) != c.size || got != c.sha {
			t.Errorf("version %d: %d bytes, sha256 %s; the format is pinned at %d bytes, %s", c.version, len(c.data), got, c.size, c.sha)
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
		func(p *Params) { p.Math = mathx.Approximate },
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
	// Both certificate states an older build wrote, and every mixture of
	// them; an image with moment sets behind its trees; an image of a
	// retired configuration.
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
	// The same system as version 2 wrote it, whose rows are hoisted into
	// tiles, and as version 3 writes it.
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
