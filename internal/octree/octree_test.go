package octree

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/wire"
)

func randPts(rng *rand.Rand, n int, scale float64) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(
			(rng.Float64()-0.5)*scale,
			(rng.Float64()-0.5)*scale,
			(rng.Float64()-0.5)*scale,
		)
	}
	return pts
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty point set should error")
	}
}

func TestBuildNonFinite(t *testing.T) {
	pts := []geom.Vec3{{X: 1}, {X: math.NaN()}}
	if _, err := Build(pts, Options{}); err == nil {
		t.Error("NaN point should error")
	}
}

func TestBuildSinglePoint(t *testing.T) {
	tr, err := Build([]geom.Vec3{geom.V(1, 2, 3)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || !tr.Nodes[0].IsLeaf {
		t.Errorf("single point should give one leaf, got %d nodes", tr.NumNodes())
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if tr.Nodes[0].Radius != 0 {
		t.Errorf("radius = %v", tr.Nodes[0].Radius)
	}
}

func TestBuildValidateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(3000)
		cap := 1 + rng.Intn(32)
		tr, err := Build(randPts(rng, n, 50), Options{LeafCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d (n=%d cap=%d): %v", trial, n, cap, err)
		}
		if tr.NumPoints() != n {
			t.Fatalf("NumPoints = %d want %d", tr.NumPoints(), n)
		}
	}
}

func TestLeafCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tr, err := Build(randPts(rng, 2000, 100), Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range tr.Leaves() {
		n := &tr.Nodes[li]
		if n.Count() > 8 && int(n.Depth) < 32 {
			t.Fatalf("leaf %d has %d points at depth %d", li, n.Count(), n.Depth)
		}
	}
}

func TestLeavesCoverAllPointsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tr, err := Build(randPts(rng, 1234, 80), Options{LeafCap: 5})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, tr.NumPoints())
	prevEnd := int32(0)
	for _, li := range tr.Leaves() {
		n := &tr.Nodes[li]
		if n.Start != prevEnd {
			t.Fatalf("leaf ranges not contiguous in tree order: start %d after end %d", n.Start, prevEnd)
		}
		prevEnd = n.End
		for j := n.Start; j < n.End; j++ {
			if covered[j] {
				t.Fatalf("slot %d covered twice", j)
			}
			covered[j] = true
		}
	}
	if prevEnd != int32(tr.NumPoints()) {
		t.Fatalf("leaves end at %d, want %d", prevEnd, tr.NumPoints())
	}
}

func TestCoincidentPointsTerminate(t *testing.T) {
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.V(1, 1, 1)
	}
	tr, err := Build(pts, Options{LeafCap: 4, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if tr.Depth() > 10 {
		t.Errorf("depth %d exceeds cap", tr.Depth())
	}
}

func TestDeterministicBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pts := randPts(rng, 500, 60)
	a, err := Build(pts, Options{LeafCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(pts, Options{LeafCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("node counts differ")
	}
	for i := range a.Index {
		if a.Index[i] != b.Index[i] {
			t.Fatal("index permutations differ")
		}
	}
}

func TestIndexMapsToOriginalPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pts := randPts(rng, 777, 30)
	tr, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range tr.Index {
		if tr.Pts[i] != pts[orig] {
			t.Fatalf("slot %d: Pts=%v, original[%d]=%v", i, tr.Pts[i], orig, pts[orig])
		}
	}
}

func TestCenterIsCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pts := randPts(rng, 300, 40)
	tr, err := Build(pts, Options{LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Nodes[tr.Root()]
	want := geom.Centroid(pts)
	if root.Center.Dist(want) > 1e-9 {
		t.Errorf("root center %v, centroid %v", root.Center, want)
	}
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tr, err := Build(randPts(rng, 10000, 100), Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform points: depth ≈ log8(n/cap) + O(1); allow generous slack.
	if d := tr.Depth(); d > 12 {
		t.Errorf("depth %d too large for uniform points", d)
	}
}

func TestApplyTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	pts := randPts(rng, 400, 50)
	tr, err := Build(pts, Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	radiiBefore := make([]float64, tr.NumNodes())
	for i := range tr.Nodes {
		radiiBefore[i] = tr.Nodes[i].Radius
	}
	m := geom.Translate(geom.V(5, -3, 2)).Compose(geom.RotateAxis(geom.V(1, 1, 0), 0.7))
	tr.ApplyTransform(m)
	for i := range tr.Nodes {
		if tr.Nodes[i].Radius != radiiBefore[i] {
			t.Fatal("transform changed a radius")
		}
	}
	// Containment still holds (Validate checks center/radius/points).
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Points match the transformed originals.
	for i, orig := range tr.Index {
		want := m.Apply(pts[orig])
		if tr.Pts[i].Dist(want) > 1e-9 {
			t.Fatalf("slot %d not transformed correctly", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	tr, err := Build(randPts(rng, 100, 20), Options{LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr.Index[0] = tr.Index[1] // break permutation
	if tr.Validate() == nil {
		t.Error("corrupted index not caught")
	}
	tr2, _ := Build(randPts(rng, 100, 20), Options{LeafCap: 4})
	tr2.Nodes[0].Radius = 0.001
	if tr2.Validate() == nil {
		t.Error("corrupted radius not caught")
	}
}

func TestQuickPermutationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		pts := make([]geom.Vec3, 0, len(raw)/3)
		for i := 0; i+2 < len(raw); i += 3 {
			v := geom.V(math.Mod(raw[i], 1e6), math.Mod(raw[i+1], 1e6), math.Mod(raw[i+2], 1e6))
			if !v.IsFinite() {
				return true
			}
			pts = append(pts, v)
		}
		tr, err := Build(pts, Options{LeafCap: 3})
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMoleculeTree(t *testing.T) {
	m := molecule.GenProtein("oct", 3000, 40)
	tr, err := Build(m.Positions(), Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Linear space: node count bounded by ~4× points/leafCap for packed
	// molecules (the paper's "space linear in the number of atoms").
	maxNodes := 4 * (m.NumAtoms()/tr.LeafCap() + 1) * 2
	if tr.NumNodes() > maxNodes {
		t.Errorf("tree has %d nodes for %d atoms — not linear-ish", tr.NumNodes(), m.NumAtoms())
	}
}

func TestMemoryBytesPositiveAndLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	small, _ := Build(randPts(rng, 100, 10), Options{})
	big, _ := Build(randPts(rng, 10000, 10), Options{})
	if small.MemoryBytes() <= 0 {
		t.Error("non-positive memory estimate")
	}
	ratio := float64(big.MemoryBytes()) / float64(small.MemoryBytes())
	if ratio < 20 || ratio > 500 {
		t.Errorf("memory scaling ratio %v for 100x points", ratio)
	}
}

// MemoryBytes is the heap a built tree retains — its nodes, permutation,
// leaf list, points and Morton keys — to 2 %.
func TestMemoryBytesMatchesHeap(t *testing.T) {
	pts := randPts(rand.New(rand.NewSource(43)), 20000, 30)
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	tr, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&b)
	live := int64(b.HeapAlloc) - int64(a.HeapAlloc)
	if d := float64(tr.MemoryBytes())/float64(live) - 1; d > 0.02 || d < -0.02 {
		t.Errorf("MemoryBytes %d, the tree retains %d bytes (%+.1f %%)", tr.MemoryBytes(), live, 100*d)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(pts)
}

// A tree whose points are dropped is an index: its nodes, permutation and
// leaf list, no points and no Morton keys, 32 bytes a point less. A rigid
// transform moves its nodes as it moves a whole tree's; its encoding
// carries an empty key array and decodes over the caller's points; an
// update rebuilds it over the points it is given.
func TestDropPoints(t *testing.T) {
	pts := randPts(rand.New(rand.NewSource(289)), 3000, 12)
	whole, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	index, _ := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	index.DropPoints()
	if index.Pts != nil || index.Keys() != nil || index.NumPoints() != len(pts) || index.Tracks(pts) {
		t.Fatalf("dropped tree: %d points stored, %d keys, NumPoints %d, tracks %v",
			len(index.Pts), len(index.Keys()), index.NumPoints(), index.Tracks(pts))
	}
	if got, want := whole.MemoryBytes()-index.MemoryBytes(), int64(32*len(pts)); got != want {
		t.Errorf("dropping the points freed %d bytes, want %d", got, want)
	}
	tr := geom.Translate(geom.V(3, -1, 7)).Compose(geom.RotateAxis(geom.V(1, 2, -1), 0.7))
	whole.ApplyTransform(tr)
	index.ApplyTransform(tr)
	if !reflect.DeepEqual(whole.Nodes, index.Nodes) || !reflect.DeepEqual(whole.Index, index.Index) {
		t.Fatal("a transform moved the index's nodes otherwise than the whole tree's")
	}
	var w, full wire.Writer
	index.AppendTo(&w)
	whole.AppendTo(&full)
	if got := full.Len() - w.Len(); got != 8*len(pts) {
		t.Errorf("the index's encoding is %d bytes shorter than the whole tree's, want %d (its keys)", got, 8*len(pts))
	}
	dec, err := DecodeTree(wire.NewReader(w.Bytes()), len(pts), func(i int) geom.Vec3 { return whole.Pts[0] })
	if err == nil {
		t.Fatal("an index decoded over points outside its balls")
	}
	moved := make([]geom.Vec3, len(pts))
	for slot, orig := range whole.Index {
		moved[orig] = whole.Pts[slot]
	}
	if dec, err = DecodeTree(wire.NewReader(w.Bytes()), len(pts), func(i int) geom.Vec3 { return moved[i] }); err != nil {
		t.Fatal(err)
	}
	if dec.Keys() != nil || !reflect.DeepEqual(dec.Nodes, index.Nodes) || !reflect.DeepEqual(dec.Leaves(), index.Leaves()) {
		t.Fatal("the decoded index differs from the encoded one")
	}
	if up, err := index.UpdateTracked(pts); err != nil || !up.Rebuilt || index.Validate() != nil {
		t.Fatalf("an update of the index: rebuilt %v, err %v, Validate %v", up.Rebuilt, err, index.Validate())
	}
}

func BenchmarkBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := randPts(rng, 10000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, Options{LeafCap: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
