package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSpreadCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.Uint32() & (1<<MortonBits - 1)
		if got := Compact3(Spread3(v)); got != v {
			t.Fatalf("Compact3(Spread3(%#x)) = %#x", v, got)
		}
	}
	// Spread3 must land bit i at bit 3i with nothing in between.
	for i := 0; i < MortonBits; i++ {
		if got, want := Spread3(1<<i), uint64(1)<<(3*i); got != want {
			t.Fatalf("Spread3(1<<%d) = %#x, want %#x", i, got, want)
		}
	}
}

func TestMortonEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		x := rng.Uint32() & (1<<MortonBits - 1)
		y := rng.Uint32() & (1<<MortonBits - 1)
		z := rng.Uint32() & (1<<MortonBits - 1)
		gx, gy, gz := MortonDecode(MortonEncode(x, y, z))
		if gx != x || gy != y || gz != z {
			t.Fatalf("decode(encode(%d,%d,%d)) = (%d,%d,%d)", x, y, z, gx, gy, gz)
		}
	}
	// The top bit of a key is always clear: 63 bits used.
	if k := MortonEncode(1<<MortonBits-1, 1<<MortonBits-1, 1<<MortonBits-1); k>>63 != 0 {
		t.Fatalf("max key %#x uses bit 63", k)
	}
}

// TestMortonKeyMatchesRecursiveDescent is the load-bearing property: the
// octant a key selects at every depth must equal OctantIndex's verdict
// in the recursively subdivided box, bit for bit. The Morton builder's
// claim of reproducing the recursive decomposition rests on this.
func TestMortonKeyMatchesRecursiveDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		box := AABB{
			Min: V(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10),
		}
		box.Max = box.Min.Add(V(1, 1, 1).Scale(0.1 + rng.Float64()*100))
		for pt := 0; pt < 50; pt++ {
			p := V(
				box.Min.X+rng.Float64()*(box.Max.X-box.Min.X),
				box.Min.Y+rng.Float64()*(box.Max.Y-box.Min.Y),
				box.Min.Z+rng.Float64()*(box.Max.Z-box.Min.Z),
			)
			key := box.MortonKey(p)
			b := box
			for d := 0; d < MortonBits; d++ {
				want := b.OctantIndex(p)
				if got := MortonOctant(key, d); got != want {
					t.Fatalf("trial %d depth %d: key octant %d, OctantIndex %d (p=%v box=%v)",
						trial, d, got, want, p, b)
				}
				b = b.Octant(want)
			}
		}
	}
}

// Boundary points (exactly on a split plane) must agree too — that is
// where naive floor-quantization schemes drift from the >=-center rule.
func TestMortonKeyBoundaryPoints(t *testing.T) {
	box := AABB{Min: V(-1, -1, -1), Max: V(1, 1, 1)}
	pts := []Vec3{
		V(0, 0, 0),                // root center: upper octant by the >= rule
		V(-1, -1, -1), V(1, 1, 1), // corners
		V(0.5, -0.5, 0), V(-0.25, 0.75, -0.125), // deeper split planes
	}
	for _, p := range pts {
		key := box.MortonKey(p)
		b := box
		for d := 0; d < MortonBits; d++ {
			want := b.OctantIndex(p)
			if got := MortonOctant(key, d); got != want {
				t.Fatalf("p=%v depth %d: key octant %d, OctantIndex %d", p, d, got, want)
			}
			b = b.Octant(want)
		}
	}
}

// The optimized interleaved MortonKey must agree with the per-axis
// reference chain bit for bit.
func TestMortonKeyMatchesAxisBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := AABB{Min: V(-3, 1, -7), Max: V(5, 9, 1)}
	for i := 0; i < 5000; i++ {
		p := V(rng.NormFloat64()*4, 5+rng.NormFloat64()*4, rng.NormFloat64()*4-3)
		want := MortonEncode(
			axisBits(p.X, box.Min.X, box.Max.X),
			axisBits(p.Y, box.Min.Y, box.Max.Y),
			axisBits(p.Z, box.Min.Z, box.Max.Z),
		)
		if got := box.MortonKey(p); got != want {
			t.Fatalf("p=%v: MortonKey %#x, axisBits reference %#x", p, got, want)
		}
	}
}

// TestMortonKeysFastPath: the guarded quantizer must match the
// comparison chain bit for bit — including points exactly ON (and
// within ulps of) the chain's own subdivision midpoints, the case plain
// floor-quantization without the guard-band fallback gets wrong.
func TestMortonKeysFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	boxes := []AABB{
		{Min: V(-3.7, 11.2, -0.9), Max: V(9.4, 24.3, 12.2)},
		{Min: V(-1, -1, -1), Max: V(1, 1, 1)},
		{Min: V(1e5, 1e5, 1e5), Max: V(1e5+60, 1e5+60, 1e5+60)}, // far offset: wide guard band
	}
	for bi, box := range boxes {
		var pts []Vec3
		for i := 0; i < 4000; i++ {
			pts = append(pts, V(
				box.Min.X+rng.Float64()*(box.Max.X-box.Min.X),
				box.Min.Y+rng.Float64()*(box.Max.Y-box.Min.Y),
				box.Min.Z+rng.Float64()*(box.Max.Z-box.Min.Z),
			))
		}
		// Points exactly on the chain's computed midpoints at every
		// depth (walking a random descent), and one ulp to either side —
		// the seams the guard band exists for.
		lo, hi := box.Min.X, box.Max.X
		for d := 0; d < MortonBits; d++ {
			c := (lo + hi) * 0.5
			for _, x := range []float64{c, math.Nextafter(c, lo), math.Nextafter(c, hi)} {
				pts = append(pts, V(x, x-lo+box.Min.Y, x-lo+box.Min.Z))
			}
			if rng.Intn(2) == 0 {
				lo = c
			} else {
				hi = c
			}
		}
		pts = append(pts,
			box.Min.Sub(V(1, 1, 1)), box.Max.Add(V(1, 1, 1)),
			box.Min, box.Max, box.Center(),
		)
		out := make([]uint64, len(pts))
		MortonKeys(box, pts, out)
		for i, p := range pts {
			if want := box.MortonKey(p); out[i] != want {
				t.Fatalf("box %d point %d (%v): fast path %#x, chain %#x", bi, i, p, out[i], want)
			}
		}
	}
}

// Degenerate and pathological boxes must fall back to the chain rather
// than mis-certify: zero-width axes, infinite extent, and a box so far
// from the origin that every cell sits inside the guard band.
func TestMortonKeysDegenerateBoxes(t *testing.T) {
	boxes := []AABB{
		{Min: V(1, 2, 3), Max: V(1, 2, 3)},
		{Min: V(0, 0, 0), Max: V(math.Inf(1), 1, 1)},
		{Min: V(1e18, 0, 0), Max: V(1e18+1, 1, 1)},
	}
	rng := rand.New(rand.NewSource(41))
	for bi, box := range boxes {
		pts := make([]Vec3, 64)
		for i := range pts {
			pts[i] = V(rng.NormFloat64()*3, rng.NormFloat64()*3, rng.NormFloat64()*3).Add(box.Min)
		}
		out := make([]uint64, len(pts))
		MortonKeys(box, pts, out)
		for i, p := range pts {
			if want := box.MortonKey(p); out[i] != want {
				t.Fatalf("box %d point %d: batch %#x, chain %#x", bi, i, out[i], want)
			}
		}
	}
}

func TestMortonKeysBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	box := AABB{Min: V(-2, -9, 4), Max: V(6, -1, 12)}
	for _, n := range []int{0, 1, 2, 3, 257} {
		pts := make([]Vec3, n)
		for i := range pts {
			pts[i] = V(rng.Float64()*8-2, rng.Float64()*8-9, rng.Float64()*8+4)
		}
		out := make([]uint64, n)
		MortonKeys(box, pts, out)
		for i, p := range pts {
			if want := box.MortonKey(p); out[i] != want {
				t.Fatalf("n=%d i=%d: batch %#x, scalar %#x", n, i, out[i], want)
			}
		}
	}
}

func BenchmarkMortonKeysBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	box := AABB{Min: V(-10.3, -10.1, -9.7), Max: V(10.1, 10.3, 10.7)}
	pts := make([]Vec3, 1024)
	for i := range pts {
		pts[i] = V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
	}
	out := make([]uint64, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MortonKeys(box, pts, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/key")
}

func BenchmarkMortonKey(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	box := AABB{Min: V(-10, -10, -10), Max: V(10, 10, 10)}
	pts := make([]Vec3, 1024)
	for i := range pts {
		pts[i] = V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= box.MortonKey(pts[i&1023])
	}
	_ = sink
}

// Keys are total: points outside the box saturate instead of wrapping,
// so an out-of-box point keys like the nearest face.
func TestMortonKeyOutside(t *testing.T) {
	box := AABB{Min: V(0, 0, 0), Max: V(1, 1, 1)}
	lo := box.MortonKey(V(-5, -5, -5))
	hi := box.MortonKey(V(5, 5, 5))
	if lo != 0 {
		t.Errorf("far-below point keyed %#x, want 0", lo)
	}
	if want := MortonEncode(1<<MortonBits-1, 1<<MortonBits-1, 1<<MortonBits-1); hi != want {
		t.Errorf("far-above point keyed %#x, want %#x", hi, want)
	}
}
