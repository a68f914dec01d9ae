package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"gbpolar/internal/geom"
)

// Local types with the shapes of molecule.Atom, surface.Point and the
// six-component second moments of an older snapshot's octree block: the
// F64Record constraint goes by underlying type, so these exercise the same
// instantiations without importing those packages.
type (
	sym6 struct{ XX, YY, ZZ, XY, XZ, YZ float64 }
	atom struct {
		Pos            geom.Vec3
		Charge, Radius float64
	}
	qpoint struct {
		Pos, Normal geom.Vec3
		Weight      float64
	}
)

// oracle is the per-element encoding the bulk paths replaced, kept here
// as the definition of the format.
type oracle struct{ buf []byte }

func (o *oracle) u32(v uint32)  { o.buf = binary.LittleEndian.AppendUint32(o.buf, v) }
func (o *oracle) u64(v uint64)  { o.buf = binary.LittleEndian.AppendUint64(o.buf, v) }
func (o *oracle) f64(v float64) { o.u64(math.Float64bits(v)) }
func (o *oracle) f64s(vs ...float64) {
	for _, v := range vs {
		o.f64(v)
	}
}

var (
	nanPayload = math.Float64frombits(0x7ff8_dead_beef_0001)
	negZero    = math.Copysign(0, -1)
	oddFloats  = []float64{0, negZero, 1.5, -2.25e300, math.SmallestNonzeroFloat64, math.Inf(-1), nanPayload}
	someVecs   = []geom.Vec3{{X: 1, Y: negZero, Z: nanPayload}, {X: -4, Y: 5, Z: 6e-300}}
	someSyms   = []sym6{{XX: 1, YY: 2, ZZ: 3, XY: 4, XZ: 5, YZ: nanPayload}, {XX: negZero}}
	someAtoms  = []atom{{Pos: geom.Vec3{X: 1, Y: 2, Z: 3}, Charge: -0.5, Radius: 1.7}, {Charge: nanPayload}}
	somePoints = []qpoint{{Pos: geom.Vec3{X: 1}, Normal: geom.Vec3{Z: negZero}, Weight: 0.25}}
)

// bitsEqual compares two values of a pointer-free type bit for bit
// (reflect.DeepEqual would call two NaNs different and ±0 equal).
func bitsEqual[T any](a, b []T) bool {
	ma, _ := image(a)
	mb, _ := image(b)
	return len(a) == len(b) && bytes.Equal(ma, mb)
}

// writeAll encodes one of everything; readAll decodes it, handing each
// value's verdict to check. Together they are the round trip of every
// method.
func writeAll(w *Writer) {
	w.Raw([]byte("MAGIC"))
	w.U8(0xfe)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I32(-7)
	w.I64(math.MinInt64)
	w.F64(negZero)
	w.F64(nanPayload)
	w.Str("")
	w.Str("héllo")
	w.F64s(nil)
	w.F64s([]float64{})
	w.F64s(oddFloats)
	w.I32s(nil)
	w.I32s([]int32{math.MinInt32, -1, 0, math.MaxInt32})
	w.U64s(nil)
	w.U64s([]uint64{0, 1, math.MaxUint64})
	w.U8s(nil)
	w.U8s([]uint8{0, 255, 7})
	PutF64Records[geom.Vec3](w, nil)
	PutF64Records(w, someVecs)
	PutF64Records(w, someSyms)
	PutF64Records(w, someAtoms)
	PutF64Records(w, somePoints)
	w.U32(uint32(len(someVecs)))
	PutF64Run(w, someVecs)
}

func readAll(r *Reader, check func(name string, ok bool)) {
	raw := make([]byte, 5)
	for i := range raw {
		raw[i] = r.U8()
	}
	check("Raw", string(raw) == "MAGIC")
	check("U8", r.U8() == 0xfe)
	check("Bool", r.Bool() && !r.Bool())
	check("U16", r.U16() == 0xbeef)
	check("U32", r.U32() == 0xdeadbeef)
	check("U64", r.U64() == 0x0123456789abcdef)
	check("I32", r.I32() == -7)
	check("I64", r.I64() == math.MinInt64)
	check("F64 -0", math.Float64bits(r.F64()) == math.Float64bits(negZero))
	check("F64 NaN payload", math.Float64bits(r.F64()) == math.Float64bits(nanPayload))
	check("Str empty", r.Str() == "")
	check("Str", r.Str() == "héllo")
	check("F64s nil", r.F64s() == nil)
	check("F64s empty", r.F64s() == nil)
	check("F64s", bitsEqual(r.F64s(), oddFloats))
	check("I32s nil", r.I32s() == nil)
	check("I32s", reflect.DeepEqual(r.I32s(), []int32{math.MinInt32, -1, 0, math.MaxInt32}))
	check("U64s nil", r.U64s() == nil)
	check("U64s", reflect.DeepEqual(r.U64s(), []uint64{0, 1, math.MaxUint64}))
	check("U8s nil", r.U8s() == nil)
	check("U8s", reflect.DeepEqual(r.U8s(), []uint8{0, 255, 7}))
	check("F64Records nil", F64Records[geom.Vec3](r) == nil)
	check("F64Records Vec3", bitsEqual(F64Records[geom.Vec3](r), someVecs))
	check("F64Records sym6", bitsEqual(F64Records[sym6](r), someSyms))
	check("F64Records atom", bitsEqual(F64Records[atom](r), someAtoms))
	check("F64Records qpoint", bitsEqual(F64Records[qpoint](r), somePoints))
	check("F64Run", bitsEqual(F64Run[geom.Vec3](r, int(r.U32())), someVecs))
}

func encodedAll() []byte {
	var w Writer
	writeAll(&w)
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	r := NewReader(encodedAll())
	readAll(r, func(name string, ok bool) {
		if !ok {
			t.Errorf("%s did not round-trip", name)
		}
	})
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("after a full read: err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// The bulk encoders produce exactly the bytes of the per-element loops
// they replaced, and a record slice exactly those of its flattened form.
func TestBulkMatchesPerElementOracle(t *testing.T) {
	var w Writer
	var o oracle
	w.F64s(oddFloats)
	o.u32(uint32(len(oddFloats)))
	o.f64s(oddFloats...)

	i32 := []int32{math.MinInt32, -1, 0, 1 << 20}
	w.I32s(i32)
	o.u32(uint32(len(i32)))
	for _, v := range i32 {
		o.u32(uint32(v))
	}

	u64 := []uint64{0, 1 << 63, 0x0102030405060708}
	w.U64s(u64)
	o.u32(uint32(len(u64)))
	for _, v := range u64 {
		o.u64(v)
	}

	PutF64Records(&w, someVecs)
	o.u32(uint32(3 * len(someVecs)))
	for _, v := range someVecs {
		o.f64s(v.X, v.Y, v.Z)
	}
	PutF64Records(&w, someSyms)
	o.u32(uint32(6 * len(someSyms)))
	for _, q := range someSyms {
		o.f64s(q.XX, q.YY, q.ZZ, q.XY, q.XZ, q.YZ)
	}
	PutF64Records(&w, someAtoms)
	o.u32(uint32(5 * len(someAtoms)))
	for _, a := range someAtoms {
		o.f64s(a.Pos.X, a.Pos.Y, a.Pos.Z, a.Charge, a.Radius)
	}
	PutF64Records(&w, somePoints)
	o.u32(uint32(7 * len(somePoints)))
	for _, p := range somePoints {
		o.f64s(p.Pos.X, p.Pos.Y, p.Pos.Z, p.Normal.X, p.Normal.Y, p.Normal.Z, p.Weight)
	}
	PutF64Run(&w, someVecs)
	for _, v := range someVecs {
		o.f64s(v.X, v.Y, v.Z)
	}
	if !bytes.Equal(w.Bytes(), o.buf) {
		t.Fatalf("bulk encoding differs from the per-element oracle:\n got %x\nwant %x", w.Bytes(), o.buf)
	}

	// And a flattened array written by F64s reads back as records: the
	// two spellings are one format.
	var flat Writer
	flat.F64s([]float64{1, 2, 3, 4, 5, 6})
	got := F64Records[geom.Vec3](NewReader(flat.Bytes()))
	if !reflect.DeepEqual(got, []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}}) {
		t.Fatalf("F64s → F64Records gave %v", got)
	}
}

// The big-endian fallback, run here on whatever host this is: swapping
// the words of an array's memory gives the opposite byte order's
// per-element encoding, for both word widths, and is its own inverse.
func TestSwapWordsIsTheOtherByteOrder(t *testing.T) {
	native, other := binary.AppendByteOrder(binary.LittleEndian), binary.AppendByteOrder(binary.BigEndian)
	if !littleEndian {
		native, other = other, native
	}
	u64 := []uint64{0x0102030405060708, 0, math.MaxUint64 - 5}
	mem, _ := image(u64)
	if want := native.AppendUint64(nil, u64[0]); !bytes.Equal(mem[:8], want) {
		t.Fatalf("image is not native byte order: %x vs %x", mem[:8], want)
	}
	got := append([]byte(nil), mem...)
	swapWords(got, 8)
	var want []byte
	for _, v := range u64 {
		want = other.AppendUint64(want, v)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("8-byte swap: got %x want %x", got, want)
	}
	swapWords(got, 8)
	if !bytes.Equal(got, mem) {
		t.Fatal("8-byte swap is not an involution")
	}

	i32 := []int32{0x01020304, -2, 7}
	mem, _ = image(i32)
	got = append([]byte(nil), mem...)
	swapWords(got, 4)
	want = want[:0]
	for _, v := range i32 {
		want = other.AppendUint32(want, uint32(v))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("4-byte swap: got %x want %x", got, want)
	}

	one := []byte{1, 2, 3}
	swapWords(one, 1)
	if !bytes.Equal(one, []byte{1, 2, 3}) {
		t.Fatal("1-byte words must not move")
	}
}

// Every proper prefix of a valid encoding fails with the sticky
// ErrTruncated, and from the failure on every method returns zero.
func TestTruncationAtEveryPrefix(t *testing.T) {
	full := encodedAll()
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		readAll(r, func(string, bool) {})
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("prefix %d/%d: err %v, want ErrTruncated", n, len(full), r.Err())
		}
		assertZeroAfterError(t, r)
	}
}

func assertZeroAfterError(t *testing.T, r *Reader) {
	t.Helper()
	left := r.Remaining()
	zero := r.U8() == 0 && !r.Bool() && r.U16() == 0 && r.U32() == 0 && r.U64() == 0 &&
		r.I32() == 0 && r.I64() == 0 && r.F64() == 0 && r.Str() == "" &&
		r.F64s() == nil && r.I32s() == nil && r.U64s() == nil && r.U8s() == nil &&
		F64Records[geom.Vec3](r) == nil && F64Records[sym6](r) == nil &&
		F64Records[atom](r) == nil && F64Records[qpoint](r) == nil &&
		F64Run[geom.Vec3](r, 1) == nil && F64Run[atom](r, 0) == nil
	if !zero {
		t.Fatal("a method returned a non-zero value after the error")
	}
	if r.Remaining() != left || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatal("a failed Reader consumed input or lost its error")
	}
}

// A count that is not a whole number of records, or a caller's count
// larger than the input, is ErrTruncated too.
func TestRecordCountGuards(t *testing.T) {
	var w Writer
	w.F64s([]float64{1, 2, 3, 4}) // 4 floats: one Vec3 and a third
	r := NewReader(w.Bytes())
	if got := F64Records[geom.Vec3](r); got != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("ragged count: got %v, err %v", got, r.Err())
	}
	for _, n := range []int{-1, 2, math.MaxInt} {
		r = NewReader(make([]byte, 47)) // one Vec3 short of two
		if got := F64Run[geom.Vec3](r, n); got != nil || !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("F64Run(%d) on 47 bytes: got %v, err %v", n, got, r.Err())
		}
	}
	r = NewReader(make([]byte, 47))
	if got := F64Run[geom.Vec3](r, 1); len(got) != 1 || r.Err() != nil || r.Remaining() != 23 {
		t.Fatalf("F64Run(1) on 47 bytes: got %v, err %v, %d left", got, r.Err(), r.Remaining())
	}
}

// The allocation guard: a maximal count in front of a short input is
// refused before anything is allocated, by every array method.
func TestHostileCountAllocatesNothing(t *testing.T) {
	input := append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 64)...)
	r := new(Reader)
	methods := map[string]func(){
		"Str":          func() { r.Str() },
		"F64s":         func() { r.F64s() },
		"I32s":         func() { r.I32s() },
		"U64s":         func() { r.U64s() },
		"U8s":          func() { r.U8s() },
		"F64Records/3": func() { F64Records[geom.Vec3](r) },
		"F64Records/6": func() { F64Records[sym6](r) },
		"F64Records/5": func() { F64Records[atom](r) },
		"F64Records/7": func() { F64Records[qpoint](r) },
		"F64Run":       func() { F64Run[sym6](r, int(r.U32())) },
	}
	for name, m := range methods {
		allocs := testing.AllocsPerRun(100, func() {
			*r = Reader{buf: input}
			m()
		})
		if allocs != 0 || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("%s: %v allocations, err %v", name, allocs, r.Err())
		}
	}
}

// SkipArray steps over exactly what the array read of its width would
// consume, allocating nothing, and refuses a count that runs past the end
// as that read does, consuming no more than the count.
func TestSkipArray(t *testing.T) {
	for _, width := range []int{1, 4, 8, 119} {
		for _, count := range []uint32{0, 3} {
			for short := range min(count, 1) + 1 { // a byte short of a non-empty array too
				var w Writer
				w.U32(count)
				w.Raw(make([]byte, int(count)*width-int(short)))
				if short == 0 {
					w.U8(7) // what follows the array
				}
				r := NewReader(w.Bytes())
				allocs := testing.AllocsPerRun(10, func() {
					*r = Reader{buf: w.Bytes()}
					r.SkipArray(width)
				})
				switch {
				case allocs != 0:
					t.Errorf("width %d, count %d: %v allocations", width, count, allocs)
				case short == 0 && (r.Err() != nil || r.U8() != 7):
					t.Errorf("width %d, count %d: err %v, did not land on what follows", width, count, r.Err())
				case short == 1 && (!errors.Is(r.Err(), ErrTruncated) || r.Remaining() != len(w.Bytes())-4):
					t.Errorf("width %d, count %d, one byte short: err %v, %d left", width, count, r.Err(), r.Remaining())
				}
			}
		}
		r := NewReader(append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 64)...))
		if r.SkipArray(width); !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("width %d: a maximal count skipped: err %v", width, r.Err())
		}
	}
}

// chunks records the sizes of the writes a stream Writer makes.
type chunks struct {
	bytes.Buffer
	sizes []int
}

func (c *chunks) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// A stream Writer produces the buffer Writer's bytes, passes a large
// array through in one write of its own, and counts every byte in Len.
func TestStreamWriterMatchesBuffer(t *testing.T) {
	big := make([]float64, 3*streamBuf/8)
	for i := range big {
		big[i] = float64(i) * 0.5
	}
	small := []int32{1, 2, 3}
	encode := func(w *Writer) {
		writeAll(w)
		w.F64s(big)
		w.I32s(small)
		w.Raw(make([]byte, streamBuf-1))
		w.U8(9)
	}
	var buf Writer
	encode(&buf)

	var out chunks
	w := NewStreamWriter(&out)
	encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), buf.Bytes()) {
		t.Fatal("stream bytes differ from buffer bytes")
	}
	if w.Len() != buf.Len() || w.Len() != out.Len() {
		t.Fatalf("Len %d, buffer %d, stream got %d", w.Len(), buf.Len(), out.Len())
	}
	if littleEndian {
		direct := false
		for _, n := range out.sizes {
			direct = direct || n == 8*len(big)
		}
		if !direct {
			t.Fatalf("the %d-byte array did not go out as one write: %v", 8*len(big), out.sizes)
		}
	}
}

type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errSink
	}
	return len(p), nil
}

// The stream's first error sticks, later writes are dropped, and Flush
// reports it.
func TestStreamWriterKeepsFirstError(t *testing.T) {
	w := NewStreamWriter(&failAfter{n: 4 + streamBuf})
	w.F64s(make([]float64, streamBuf/8)) // fits
	w.F64s(make([]float64, streamBuf/8)) // does not
	w.F64s(make([]float64, streamBuf/8))
	if err := w.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("Flush returned %v, want the sink's error", err)
	}
	if want := 3 * (4 + streamBuf); w.Len() != want {
		t.Fatalf("Len %d, want %d", w.Len(), want)
	}
	var zero Writer
	zero.U32(1)
	if err := zero.Flush(); err != nil || zero.Len() != 4 {
		t.Fatalf("buffer-mode Flush: %v, Len %d", err, zero.Len())
	}
}

// Grow sizes the buffer once: an encoding of the size asked for fills it
// exactly and never reallocates; a discarding stream is the sizer.
func TestGrowSizesTheBufferOnce(t *testing.T) {
	sizer := NewStreamWriter(io.Discard)
	writeAll(sizer)
	var w Writer
	w.U8(1) // Grow keeps what is there
	w.Grow(sizer.Len())
	buf := w.buf[:cap(w.buf)]
	writeAll(&w)
	if w.Len() != 1+sizer.Len() || cap(w.buf) != len(buf) || &w.buf[0] != &buf[0] || w.buf[0] != 1 {
		t.Fatalf("pre-sized for 1+%d bytes (cap %d): wrote %d into cap %d, moved=%v",
			sizer.Len(), len(buf), w.Len(), cap(w.buf), &w.buf[0] != &buf[0])
	}
	if !bytes.Equal(w.buf[1:], encodedAll()) {
		t.Fatal("pre-sized encoding differs")
	}
}

// readerOps is every Reader method as (bytes of fixed prefix, bytes of
// the value returned), the payload being what the method allocated.
var readerOps = []func(r *Reader) (prefix, payload int){
	func(r *Reader) (int, int) { r.U8(); return 1, 0 },
	func(r *Reader) (int, int) { r.Bool(); return 1, 0 },
	func(r *Reader) (int, int) { r.U16(); return 2, 0 },
	func(r *Reader) (int, int) { r.U32(); return 4, 0 },
	func(r *Reader) (int, int) { r.U64(); return 8, 0 },
	func(r *Reader) (int, int) { r.I32(); return 4, 0 },
	func(r *Reader) (int, int) { r.I64(); return 8, 0 },
	func(r *Reader) (int, int) { r.F64(); return 8, 0 },
	func(r *Reader) (int, int) { return 4, len(r.Str()) },
	func(r *Reader) (int, int) { return 4, 8 * len(r.F64s()) },
	func(r *Reader) (int, int) { return 4, 4 * len(r.I32s()) },
	func(r *Reader) (int, int) { return 4, 8 * len(r.U64s()) },
	func(r *Reader) (int, int) { return 4, len(r.U8s()) },
	func(r *Reader) (int, int) { return 4, 24 * len(F64Records[geom.Vec3](r)) },
	func(r *Reader) (int, int) { return 4, 48 * len(F64Records[sym6](r)) },
	func(r *Reader) (int, int) { return 4, 40 * len(F64Records[atom](r)) },
	func(r *Reader) (int, int) { return 4, 56 * len(F64Records[qpoint](r)) },
	func(r *Reader) (int, int) { return 4, 24 * len(F64Run[geom.Vec3](r, int(r.U32()))) },
	func(r *Reader) (int, int) { return 4, 40 * len(F64Run[atom](r, int(int32(r.U32())))) },
	func(r *Reader) (int, int) { return 1, 56 * len(F64Run[qpoint](r, int(r.U8()))) },
}

// FuzzReader decodes arbitrary bytes through every method, round-robin
// from a fuzzed starting point: nothing panics; a call that succeeds
// consumed exactly the bytes of what it returned, so what a Reader
// allocates is bounded by its input; a call that fails returned nothing
// and leaves a Reader that stays failed and returns zeros.
func FuzzReader(f *testing.F) {
	full := encodedAll()
	f.Add(full, uint8(0))
	f.Add(full[:len(full)/2], uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint8(9))
	f.Add(append([]byte{3, 0, 0, 0}, make([]byte, 24)...), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, start uint8) {
		r := NewReader(data)
		for op := int(start); r.Remaining() > 0; op++ {
			before := r.Remaining()
			prefix, payload := readerOps[op%len(readerOps)](r)
			used := before - r.Remaining()
			if r.Err() != nil {
				if payload != 0 || used > prefix {
					t.Fatalf("op %d failed but returned %d bytes and consumed %d", op%len(readerOps), payload, used)
				}
				assertZeroAfterError(t, r)
				return
			}
			if used != prefix+payload {
				t.Fatalf("op %d consumed %d bytes for a %d+%d-byte value", op%len(readerOps), used, prefix, payload)
			}
		}
	})
}
