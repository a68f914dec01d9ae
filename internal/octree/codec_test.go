package octree

import (
	"errors"
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/wire"
)

// FuzzDecodeTree pins that DecodeTree never panics on arbitrary input and
// that every tree it returns passes Validate. The seeds are encodings of a
// recursive tree, a Morton tree, a Morton tree after tracked updates
// (which leave materialized leaves at the end of Nodes and pruned ones in
// it) and a Morton tree whose points were dropped (no keys), each whole and
// cut short; every input is decoded over the points of the first two and
// over the moved ones. Run with `go test -fuzz=FuzzDecodeTree` to explore.
func FuzzDecodeTree(f *testing.F) {
	rng := rand.New(rand.NewSource(285))
	pts := randPts(rng, 300, 12)
	built := pts
	rec, err := Build(pts, Options{LeafCap: 8})
	if err != nil {
		f.Fatal(err)
	}
	mor, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		f.Fatal(err)
	}
	moved, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		f.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		pts = jiggle(rng, pts, 0.4)
		if _, err := moved.UpdateTracked(pts); err != nil {
			f.Fatal(err)
		}
	}
	keyless, err := Build(built, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		f.Fatal(err)
	}
	keyless.DropPoints()
	f.Add([]byte{})
	for _, tr := range []*Tree{rec, mor, moved, keyless} {
		var w wire.Writer
		tr.AppendTo(&w)
		b := w.Bytes()
		f.Add(b)
		for _, cut := range []int{1, 8, len(b) / 2} {
			f.Add(b[:len(b)-cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, ps := range [][]geom.Vec3{built, pts} {
			tr, err := DecodeTree(wire.NewReader(b), len(ps), func(i int) geom.Vec3 { return ps[i] })
			if err != nil {
				if tr != nil {
					t.Fatal("non-nil tree alongside error")
				}
				continue
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("decoded tree fails Validate: %v", err)
			}
		}
	})
}

// SkipTree steps over exactly what DecodeTree reads, and an encoding cut
// anywhere short leaves the reader failed with wire.ErrTruncated.
func TestSkipTree(t *testing.T) {
	rng := rand.New(rand.NewSource(287))
	pts := randPts(rng, 300, 12)
	for _, b := range []Builder{BuilderRecursive, BuilderMorton} {
		tr, err := Build(pts, Options{LeafCap: 8, Builder: b})
		if err != nil {
			t.Fatal(err)
		}
		var w wire.Writer
		tr.AppendTo(&w)
		w.U8(7) // what follows the tree
		r := wire.NewReader(w.Bytes())
		if SkipTree(r); r.Err() != nil || r.U8() != 7 || r.Remaining() != 0 {
			t.Fatalf("builder %d: err %v, did not land on what follows", b, r.Err())
		}
		enc := w.Bytes()[:w.Len()-1]
		for cut := 1; cut < len(enc); cut += 1 + cut/4 {
			r := wire.NewReader(enc[:len(enc)-cut])
			if SkipTree(r); !errors.Is(r.Err(), wire.ErrTruncated) {
				t.Fatalf("builder %d, %d bytes short: err %v", b, cut, r.Err())
			}
		}
	}
}

// A permutation that is not one — a slot holding a point twice, or one
// past the points — is refused: the points are gathered through it, so it
// is checked before anything is read through it.
func TestDecodeTreeRefusesBadIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(288))
	pts := randPts(rng, 300, 12)
	for name, tamper := range map[string]func(idx []int32){
		"twice":        func(idx []int32) { idx[7] = idx[8] },
		"out of range": func(idx []int32) { idx[7] = int32(len(idx)) },
		"negative":     func(idx []int32) { idx[7] = -1 },
	} {
		tr, err := Build(pts, Options{LeafCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		tamper(tr.Index)
		var w wire.Writer
		tr.AppendTo(&w)
		if got, err := DecodeTree(wire.NewReader(w.Bytes()), len(pts), func(i int) geom.Vec3 { return pts[i] }); err == nil || got != nil {
			t.Errorf("%s: an index that is not a permutation decoded (err %v)", name, err)
		}
	}
}

// A node reachable from two parents is refused: a walk of the node graph
// would visit it once per path, and a chain of nodes whose eight children
// are all the next one takes 8^depth visits.
func TestDecodeTreeRefusesSharedChild(t *testing.T) {
	rng := rand.New(rand.NewSource(286))
	tr, err := Build(randPts(rng, 300, 12), Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tr.Nodes[i].IsLeaf = false
		for j := range tr.Nodes[i].Children {
			tr.Nodes[i].Children[j] = int32(i + 1)
		}
	}
	var w wire.Writer
	tr.AppendTo(&w)
	if _, err := DecodeTree(wire.NewReader(w.Bytes()), len(tr.Pts), func(i int) geom.Vec3 { return tr.Pts[i] }); err == nil {
		t.Fatal("a node graph with shared children decoded")
	}
}
