package wire

import (
	"encoding/binary"
	"unsafe"

	"gbpolar/internal/geom"
)

// This file moves arrays whole. The encoding of an array — little-endian
// words, back to back, no padding — is byte for byte the memory of the
// Go slice on a little-endian host, so encoding is one append of that
// memory and decoding one copy into it. On a big-endian host the same
// copy is followed by a byte swap of each word (swapWords), which is the
// only per-element loop left in the codec. image below is the one place
// that looks at a slice's memory.

// image returns the memory vs occupies, as bytes, and the size of one
// element (also for a nil vs). T must be free of pointers and padding:
// the callers in this package pass float64, int32, uint64, uint8 and the
// F64Record structs, nothing else.
func image[T any](vs []T) (mem []byte, size int) {
	var zero T
	size = int(unsafe.Sizeof(zero))
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*size), size
}

// littleEndian reports whether this host stores words the way the
// encoding does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// swapWords reverses the bytes of each width-byte word of b in place,
// turning native big-endian words into the encoding's and back.
func swapWords(b []byte, width int) {
	switch width {
	case 4:
		for ; len(b) >= 4; b = b[4:] {
			binary.LittleEndian.PutUint32(b, binary.BigEndian.Uint32(b))
		}
	case 8:
		for ; len(b) >= 8; b = b[8:] {
			binary.LittleEndian.PutUint64(b, binary.BigEndian.Uint64(b))
		}
	}
}

// bulk appends mem, the memory of an array of width-byte words. A stream
// Writer whose buffer would overflow flushes first and then writes a
// large array directly from mem.
func (w *Writer) bulk(mem []byte, width int) {
	swap := !littleEndian && width > 1
	if w.out != nil && len(w.buf)+len(mem) > streamBuf {
		w.Flush()
		if !swap && len(mem) >= streamBuf {
			w.write(mem)
			return
		}
		// Swapping needs a private copy: go through the buffer a
		// buffer-full (a whole number of words) at a time.
		for swap && len(mem) > streamBuf {
			w.buf = append(w.buf, mem[:streamBuf]...)
			swapWords(w.buf, width)
			w.Flush()
			mem = mem[streamBuf:]
		}
	}
	n := len(w.buf)
	w.buf = append(w.buf, mem...)
	if swap {
		swapWords(w.buf[n:], width)
	}
}

// put appends the elements of vs, each made of width-byte words.
func put[T any](w *Writer, vs []T, width int) {
	mem, _ := image(vs)
	w.bulk(mem, width)
}

// array reads n elements of T, each made of width-byte words; nil for
// n == 0. The caller has checked n against the bytes remaining (count, or
// F64Run's own guard); the input is consumed before the result is
// allocated all the same. The result is allocated once and written once:
// append allocates the bytes it copies into without clearing them first,
// as make would. It rounds the allocation up to a size class, each a
// multiple of 8 bytes and 8-byte aligned, which is all the alignment any T
// this package reads needs; T holds no pointers, so the bytes may be read
// as T.
func array[T any](r *Reader, n, width int) []T {
	if n == 0 || r.err != nil {
		return nil
	}
	_, size := image[T](nil)
	src := r.take(n * size)
	if src == nil {
		return nil
	}
	dst := append([]byte(nil), src...)
	if !littleEndian {
		swapWords(dst, width)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(dst))), n)
}

// F64Record is the set of structs the codec moves as a run of float64s:
// geom.Vec3, the six-component second moments an older snapshot's octree
// block carries, molecule.Atom and surface.Point. Every field is
// a float64, so a value is its fields back to back, and the encoding of
// a slice is the encoding of the flattened []float64 in field order.
// Spelling the shapes out makes a field added to one of them a compile
// error at the call that would otherwise silently change a file format.
type F64Record interface {
	~struct{ X, Y, Z float64 } |
		~struct{ XX, YY, ZZ, XY, XZ, YZ float64 } |
		~struct {
			Pos            geom.Vec3
			Charge, Radius float64
		} |
		~struct {
			Pos, Normal geom.Vec3
			Weight      float64
		}
}

// PutF64Run appends the fields of vs with no count; the caller has
// written one of its own.
func PutF64Run[T F64Record](w *Writer, vs []T) { put(w, vs, 8) }

// F64Run reads n records written by PutF64Run, n being the caller's
// count: it is checked against the bytes remaining before anything is
// allocated, like every count the Reader decodes itself.
func F64Run[T F64Record](r *Reader, n int) []T {
	_, size := image[T](nil)
	if r.err == nil && (n < 0 || n > r.Remaining()/size) {
		r.err = ErrTruncated
	}
	return array[T](r, n, 8)
}

// PutF64Records appends vs as F64s would append its flattened form: a
// uint32 count of float64s — len(vs) times the fields of a record —
// followed by the values.
func PutF64Records[T F64Record](w *Writer, vs []T) {
	_, size := image[T](nil)
	w.U32(uint32(len(vs) * (size / 8)))
	put(w, vs, 8)
}

// F64Records reads what PutF64Records (or F64s, of a flattened array)
// wrote. A count that is not a whole number of records cuts the last one
// short and is reported as ErrTruncated.
func F64Records[T F64Record](r *Reader) []T {
	_, size := image[T](nil)
	n := r.count(8)
	if n%(size/8) != 0 {
		r.err = ErrTruncated
		return nil
	}
	return array[T](r, n/(size/8), 8)
}
