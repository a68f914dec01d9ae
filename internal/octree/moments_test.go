package octree

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/wire"
)

// The moments a node carries are those of the zeroth-order pseudo-particle
// the far field evaluates: the number of points under it, their centroid
// (Center) and the radius of the ball about the centroid that holds them
// (Radius).

// checkMomentsBruteForce recomputes every reachable node's centroid and
// enclosing radius directly over its point range, and checks that its
// children's point counts add up to its own.
func checkMomentsBruteForce(t *testing.T, tr *Tree, label string) {
	t.Helper()
	tr.walkReachable(func(id int32) {
		nd := &tr.Nodes[id]
		var sum geom.Vec3
		scale := 0.0
		for s := nd.Start; s < nd.End; s++ {
			p := tr.Pts[s]
			sum = sum.Add(p)
			scale = max(scale, math.Abs(p.X), math.Abs(p.Y), math.Abs(p.Z))
		}
		c := sum.Scale(1 / float64(nd.Count()))
		var r float64
		for s := nd.Start; s < nd.End; s++ {
			r = max(r, c.Dist(tr.Pts[s]))
		}
		// Scale-aware agreement: the moments are a sum in slot order, or
		// one moved with the points by a rigid transform.
		tol := 1e-12 * (1 + scale)
		if nd.Center.Dist(c) > tol || math.Abs(nd.Radius-r) > tol {
			t.Fatalf("%s: node %d center %v radius %.17g, brute force %v %.17g",
				label, id, nd.Center, nd.Radius, c, r)
		}
		if nd.IsLeaf {
			return
		}
		n := 0
		for _, ch := range nd.Children {
			if ch != NoChild {
				n += tr.Nodes[ch].Count()
			}
		}
		if n != nd.Count() {
			t.Fatalf("%s: node %d holds %d points, its children %d", label, id, nd.Count(), n)
		}
	})
}

func TestMomentsMatchBruteForce(t *testing.T) {
	for _, b := range []struct {
		name    string
		builder Builder
	}{{"recursive", BuilderRecursive}, {"morton", BuilderMorton}} {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(271))
			pts := randPts(rng, 3000, 70)
			tr, err := Build(pts, Options{LeafCap: 8, Builder: b.builder})
			if err != nil {
				t.Fatal(err)
			}
			checkMomentsBruteForce(t, tr, "fresh build")
		})
	}
}

func TestMomentsSurviveTrackedUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(277))
	pts := randPts(rng, 2500, 60)
	tr, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		pts = jiggle(rng, pts, 2.5) // large enough to relocate points
		upd, err := tr.UpdateTracked(pts)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && upd.Moved == 0 {
			t.Fatal("jiggle relocated no points; the test exercises nothing")
		}
		checkMomentsBruteForce(t, tr, "after UpdateTracked")
	}
	// The untracked Update refits the same nodes.
	pts = jiggle(rng, pts, 4.0)
	if _, err := tr.Update(pts); err != nil {
		t.Fatal(err)
	}
	checkMomentsBruteForce(t, tr, "after Update")
}

// A rigid transform moves every centroid with the points and keeps every
// radius: the moments of the moved tree are those of its moved points.
func TestMomentsRotateWithTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	pts := randPts(rng, 1200, 50)
	tr, err := Build(pts, Options{LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	centers := make([]geom.Vec3, tr.NumNodes())
	for i := range tr.Nodes {
		centers[i] = tr.Nodes[i].Center
	}
	rot := geom.RotateAxis(geom.V(1, 2, -1), 0.7).Compose(geom.Translate(geom.V(4, -3, 9)))
	tr.ApplyTransform(rot)
	for i := range tr.Nodes {
		if want := rot.Apply(centers[i]); tr.Nodes[i].Center != want {
			t.Fatalf("node %d center %v, the transformed centroid %v", i, tr.Nodes[i].Center, want)
		}
	}
	checkMomentsBruteForce(t, tr, "after rigid transform")
}

// The codec round-trips a tree bit for bit: the decoded tree re-encodes to
// the same bytes and holds the same nodes, and CompactNodes on it keeps
// every node's moments.
func TestMomentsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	pts := randPts(rng, 800, 40)
	tr, err := Build(pts, Options{LeafCap: 8, Builder: BuilderMorton})
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	tr.AppendTo(&w)
	dec, err := DecodeTree(wire.NewReader(w.Bytes()), len(pts), func(i int) geom.Vec3 { return pts[i] })
	if err != nil {
		t.Fatal(err)
	}
	var again wire.Writer
	dec.AppendTo(&again)
	if !bytes.Equal(again.Bytes(), w.Bytes()) {
		t.Fatal("the decoded tree re-encodes to other bytes")
	}
	if !slices.Equal(dec.Nodes, tr.Nodes) || !slices.Equal(dec.Leaves(), tr.Leaves()) || !slices.Equal(dec.Pts, tr.Pts) {
		t.Fatal("the decoded tree has other nodes, leaves or points")
	}
	dec.CompactNodes()
	checkMomentsBruteForce(t, dec, "after CompactNodes")
}
