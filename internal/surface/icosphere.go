// Package surface builds triangulated molecular surfaces and samples
// Gaussian quadrature points (q-points) from them — the inputs to the
// paper's surface-based r⁶ Born-radius approximation (Eq. 4): positions
// r_k, weights w_k and unit outward normals n_k.
//
// The construction is a star-shaped radial surface: an icosphere mesh
// whose vertices are pushed outward to the ray-cast boundary of the
// union of (vdW + probe) spheres, smoothed, and then sampled with a
// symmetric Dunavant quadrature rule on every triangle. The surface is a
// closed, consistently outward-oriented manifold, which is exactly what
// the divergence-theorem form of Eq. 4 requires (see DESIGN.md §2 for why
// this substitution preserves the paper's behaviour).
package surface

import (
	"math"
	"slices"
	"sync"

	"gbpolar/internal/geom"
)

// Mesh is a triangle mesh: vertex positions plus index triples.
type Mesh struct {
	Verts []geom.Vec3
	// Faces holds vertex indices, three per face, counter-clockwise when
	// seen from outside.
	Faces [][3]int
}

// NumFaces returns the face count.
func (m *Mesh) NumFaces() int { return len(m.Faces) }

// maxMemoLevel is the highest subdivision level whose unit icosphere is
// memoised: the levels ForMolecule picks by itself (level 7 holds 12 MB).
const maxMemoLevel = 7

// unitSpheres memoises the unit icosphere of each level up to
// maxMemoLevel once it is asked for: the mesh is a pure function of the
// level, and subdividing it costs more than everything else ForMolecule
// does outside the ray cast.
var unitSpheres [maxMemoLevel + 1]struct {
	once sync.Once
	mesh *Mesh
}

// Icosphere returns a unit icosphere with the given subdivision level.
// Level 0 is the icosahedron (20 faces); each level quadruples the face
// count. The mesh is the caller's own: it is cloned from the memoised
// one, so displacing or re-orienting it leaves later calls untouched.
func Icosphere(level int) *Mesh {
	if level < 0 || level > maxMemoLevel {
		return buildIcosphere(level)
	}
	u := &unitSpheres[level]
	u.once.Do(func() { u.mesh = buildIcosphere(level) })
	return &Mesh{Verts: slices.Clone(u.mesh.Verts), Faces: slices.Clone(u.mesh.Faces)}
}

func buildIcosphere(level int) *Mesh {
	t := (1 + math.Sqrt(5)) / 2
	verts := []geom.Vec3{
		{X: -1, Y: t}, {X: 1, Y: t}, {X: -1, Y: -t}, {X: 1, Y: -t},
		{Y: -1, Z: t}, {Y: 1, Z: t}, {Y: -1, Z: -t}, {Y: 1, Z: -t},
		{X: t, Z: -1}, {X: t, Z: 1}, {X: -t, Z: -1}, {X: -t, Z: 1},
	}
	for i := range verts {
		verts[i] = verts[i].Unit()
	}
	faces := [][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	m := &Mesh{Verts: verts, Faces: faces}
	for l := 0; l < level; l++ {
		m = m.subdivide()
	}
	m.orientOutward()
	return m
}

// subdivide splits every face into four, projecting midpoints onto the
// unit sphere.
func (m *Mesh) subdivide() *Mesh {
	type edge struct{ a, b int }
	mid := make(map[edge]int)
	out := &Mesh{Verts: append([]geom.Vec3(nil), m.Verts...)}
	midpoint := func(a, b int) int {
		if a > b {
			a, b = b, a
		}
		if v, ok := mid[edge{a, b}]; ok {
			return v
		}
		p := out.Verts[a].Add(out.Verts[b]).Scale(0.5).Unit()
		out.Verts = append(out.Verts, p)
		idx := len(out.Verts) - 1
		mid[edge{a, b}] = idx
		return idx
	}
	for _, f := range m.Faces {
		ab := midpoint(f[0], f[1])
		bc := midpoint(f[1], f[2])
		ca := midpoint(f[2], f[0])
		out.Faces = append(out.Faces,
			[3]int{f[0], ab, ca},
			[3]int{f[1], bc, ab},
			[3]int{f[2], ca, bc},
			[3]int{ab, bc, ca},
		)
	}
	return out
}

// orientOutward flips any face whose geometric normal points inward
// (relative to the mesh centroid). For star-shaped meshes this yields a
// consistent outward orientation.
func (m *Mesh) orientOutward() {
	c := geom.Centroid(m.Verts)
	for i, f := range m.Faces {
		a, b, d := m.Verts[f[0]], m.Verts[f[1]], m.Verts[f[2]]
		n := b.Sub(a).Cross(d.Sub(a))
		ctr := a.Add(b).Add(d).Scale(1.0 / 3)
		if n.Dot(ctr.Sub(c)) < 0 {
			m.Faces[i] = [3]int{f[0], f[2], f[1]}
		}
	}
}

// FaceNormalArea returns the outward unit normal and area of face i.
func (m *Mesh) FaceNormalArea(i int) (geom.Vec3, float64) {
	f := m.Faces[i]
	a, b, c := m.Verts[f[0]], m.Verts[f[1]], m.Verts[f[2]]
	cr := b.Sub(a).Cross(c.Sub(a))
	area2 := cr.Norm()
	if area2 == 0 {
		return geom.Vec3{}, 0
	}
	return cr.Scale(1 / area2), area2 / 2
}

// Area returns the total surface area.
func (m *Mesh) Area() float64 {
	var a float64
	for i := range m.Faces {
		_, fa := m.FaceNormalArea(i)
		a += fa
	}
	return a
}

// Volume returns the enclosed volume via the divergence theorem
// (1/3 ∮ p·n dA). It is positive for outward-oriented closed meshes —
// the orientation sanity check used by the tests.
func (m *Mesh) Volume() float64 {
	var v float64
	for _, f := range m.Faces {
		a, b, c := m.Verts[f[0]], m.Verts[f[1]], m.Verts[f[2]]
		v += a.Dot(b.Cross(c))
	}
	return v / 6
}
