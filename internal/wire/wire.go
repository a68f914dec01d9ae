// Package wire provides the bounds-checked binary encoding shared by the
// snapshot codec (internal/core), the octree serializer and the TCP
// cluster transport's frame bodies (internal/cluster/net).
//
// All integers are little-endian; float64s travel as their IEEE-754 bit
// patterns; variable-length arrays carry a uint32 count that the Reader
// validates against the bytes actually remaining BEFORE allocating, so a
// truncated, corrupted or adversarial input fails with ErrTruncated
// instead of over-allocating or panicking — the property the snapshot
// fuzz tests pin.
//
// Arrays move whole (bulk.go): on a little-endian host the encoding of a
// []float64, []int32, []uint64 or float64 record slice IS its memory, so
// one copy encodes or decodes it. A Writer made by NewStreamWriter hands
// large arrays to its io.Writer straight from the caller's slice.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
)

// ErrTruncated reports that a Reader ran out of input (or a length
// prefix claimed more bytes than remain). Callers wrap it into their own
// typed error.
var ErrTruncated = errors.New("wire: truncated input")

// Writer appends binary values to a growing buffer. The zero value is
// ready to use and keeps everything in memory (Bytes). A Writer from
// NewStreamWriter instead drains to an io.Writer: see Flush.
type Writer struct {
	buf []byte

	// Stream mode only.
	out     io.Writer
	flushed int   // bytes already handed to out
	err     error // first error out returned; later writes are dropped
}

// streamBuf is how many bytes a stream Writer lets arrays add to its
// buffer before it writes, and the size from which an array bypasses the
// buffer altogether.
const streamBuf = 64 << 10

// NewStreamWriter returns a Writer that drains to out. Scalars and small
// arrays collect in a buffer that every array call drains once it holds
// 64 KiB (a run of scalars between two arrays is buffered whole); an
// array of at least that size is written from the caller's slice with no
// intermediate copy, so a stream of large arrays is never held in memory
// a second time. Call Flush at the end; Bytes is meaningless in this
// mode.
func NewStreamWriter(out io.Writer) *Writer {
	return &Writer{out: out, buf: make([]byte, 0, streamBuf)}
}

// Grow makes room for n more bytes, so an encoder that knows its size
// allocates once.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far, flushed or not.
func (w *Writer) Len() int { return w.flushed + len(w.buf) }

// Flush hands the buffered bytes to the stream and returns the first
// error the stream has reported. On a buffer-mode Writer it does nothing.
func (w *Writer) Flush() error {
	if w.out != nil && len(w.buf) > 0 {
		w.write(w.buf)
		w.buf = w.buf[:0]
	}
	return w.err
}

// write passes b to the stream unless an earlier write failed.
func (w *Writer) write(b []byte) {
	w.flushed += len(b)
	if w.err == nil {
		_, w.err = w.out.Write(b)
	}
}

// ReserveMax is the largest block a stream Writer's Reserve hands out of
// the buffer it has: an encoder that reserves a wider block in pieces of at
// most ReserveMax bytes makes the Writer allocate nothing.
const ReserveMax = streamBuf

// Reserve appends n bytes for the caller to fill and returns them: a block
// it encodes in place, each value written once, every byte of it. A stream
// Writer first hands the stream what it holds, and grows its buffer only
// for a block wider than ReserveMax.
func (w *Writer) Reserve(n int) []byte {
	if w.out != nil && len(w.buf)+n > streamBuf {
		w.Flush()
	}
	m := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:m+n]
	return w.buf[m:]
}

// Raw appends b verbatim (no length prefix).
func (w *Writer) Raw(b []byte) { w.bulk(b, 1) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I32 appends an int32 (two's complement over U32).
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends an int64 (two's complement over U64).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a uint32 length followed by the string bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s appends a uint32 count followed by the values.
func (w *Writer) F64s(vs []float64) {
	w.U32(uint32(len(vs)))
	put(w, vs, 8)
}

// I32s appends a uint32 count followed by the values.
func (w *Writer) I32s(vs []int32) {
	w.U32(uint32(len(vs)))
	put(w, vs, 4)
}

// U64s appends a uint32 count followed by the values.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	put(w, vs, 8)
}

// U8s appends a uint32 count followed by the bytes.
func (w *Writer) U8s(vs []uint8) {
	w.U32(uint32(len(vs)))
	w.bulk(vs, 1)
}

// Reader consumes binary values from a buffer. After the first failure
// every method returns zero values and Err reports ErrTruncated, so
// decoders can read a whole structure and check the error once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for reading. The buffer is not copied.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky error (nil, or ErrTruncated).
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Next returns the next n bytes of the input, a view into it that the
// caller decodes in place (Writer.Reserve's block); nil, and ErrTruncated,
// when fewer remain.
func (r *Reader) Next(n int) []byte { return r.take(n) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// count reads a uint32 length prefix and validates count*elemSize against
// the remaining bytes, the guard that keeps hostile inputs from forcing
// huge allocations.
func (r *Reader) count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining()/elemSize {
		r.err = ErrTruncated
		return 0
	}
	return n
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool (nonzero = true).
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a length-prefixed []float64. Returns nil for count 0.
func (r *Reader) F64s() []float64 { return array[float64](r, r.count(8), 8) }

// I32s reads a length-prefixed []int32. Returns nil for count 0.
func (r *Reader) I32s() []int32 { return array[int32](r, r.count(4), 4) }

// U64s reads a length-prefixed []uint64. Returns nil for count 0.
func (r *Reader) U64s() []uint64 { return array[uint64](r, r.count(8), 8) }

// U8s reads a length-prefixed []uint8. Returns nil for count 0. The
// returned slice is a copy, never a view into the input buffer.
func (r *Reader) U8s() []uint8 { return array[uint8](r, r.count(1), 1) }

// SkipArray steps over a length-prefixed array of width-byte elements —
// what U8s, I32s, F64s or U64s would read (width 1, 4, 8, 8), or any block
// of records behind a count — unread and unallocated. Its count is checked against the bytes remaining as theirs
// is: one that runs past the end fails with ErrTruncated.
func (r *Reader) SkipArray(width int) { r.take(r.count(width) * width) }
