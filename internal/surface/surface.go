package surface

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
)

// Point is one surface quadrature point (q-point): the triple
// (r_k, n_k, w_k) of Eq. 4.
type Point struct {
	Pos    geom.Vec3
	Normal geom.Vec3 // unit outward surface normal at Pos
	Weight float64   // quadrature weight (has units of area, Å²)
}

// Surface is a sampled molecular surface.
type Surface struct {
	Points []Point
	// Area is the total area of the triangulated surface.
	Area float64
	// Level and Degree record how the surface was sampled.
	Level, Degree int
}

// NumPoints returns the number of q-points.
func (s *Surface) NumPoints() int { return len(s.Points) }

// MemoryBytes estimates the resident size of the q-point array, for the
// cluster runtime's replication accounting.
func (s *Surface) MemoryBytes() int64 {
	const pointBytes = 7 * 8 // two vectors + weight
	return int64(len(s.Points)) * pointBytes
}

// ApplyTransform rigidly re-poses the surface in place (positions moved,
// normals rotated), matching molecule.Molecule.ApplyTransform.
func (s *Surface) ApplyTransform(t geom.Transform) {
	for i := range s.Points {
		s.Points[i].Pos = t.Apply(s.Points[i].Pos)
		s.Points[i].Normal = t.ApplyVector(s.Points[i].Normal)
	}
}

// Options configures surface generation.
type Options struct {
	// SubdivisionLevel sets the icosphere level; 0 selects automatically
	// from the atom count (targeting ≈2–4 q-points per atom as in the
	// paper's inputs).
	SubdivisionLevel int
	// QuadratureDegree selects the Dunavant rule (1–5). Default 2
	// (3 points per triangle).
	QuadratureDegree int
	// ProbeRadius is added to every atom radius before ray casting
	// (solvent-accessible surface). Default 1.4 Å (water).
	ProbeRadius float64
	// SmoothingRounds applies Laplacian smoothing to the radial field to
	// remove single-atom spikes. Default 2.
	SmoothingRounds int
}

func (o Options) withDefaults(natoms int) Options {
	if o.QuadratureDegree == 0 {
		o.QuadratureDegree = 2
	}
	if o.ProbeRadius == 0 {
		o.ProbeRadius = 1.4
	}
	if o.SmoothingRounds == 0 {
		o.SmoothingRounds = 2
	}
	if o.SubdivisionLevel == 0 {
		ppt := PointsPerTriangle(o.QuadratureDegree)
		if ppt == 0 {
			ppt = 3
		}
		target := 3 * natoms
		level := 2
		for level < 7 && 20*pow4(level)*ppt < target {
			level++
		}
		o.SubdivisionLevel = level
	}
	return o
}

func pow4(l int) int {
	n := 1
	for i := 0; i < l; i++ {
		n *= 4
	}
	return n
}

// ForMolecule builds the sampled molecular surface of m.
//
// The surface is the star-shaped radial boundary of the union of
// (vdW+probe) spheres as seen from the molecule's centroid, triangulated
// on an icosphere and smoothed; every triangle carries a Dunavant
// quadrature rule. See the package comment for why this is a faithful
// substitute for the paper's externally-prepared surfaces.
func ForMolecule(m *molecule.Molecule, opts Options) (*Surface, error) {
	if m.NumAtoms() == 0 {
		return nil, fmt.Errorf("surface: molecule %q has no atoms", m.Name)
	}
	if err := m.CheckAtoms(); err != nil {
		return nil, fmt.Errorf("surface: molecule %q: %w", m.Name, err)
	}
	opts = opts.withDefaults(m.NumAtoms())
	rule, ok := quadRules[opts.QuadratureDegree]
	if !ok {
		return nil, fmt.Errorf("surface: no quadrature rule of degree %d", opts.QuadratureDegree)
	}

	mesh := Icosphere(opts.SubdivisionLevel)
	c := geom.Centroid(positionsOf(m))

	exit, entry := castRadii(m, c, mesh.Verts, opts.ProbeRadius)
	radii := exit
	for r := 0; r < opts.SmoothingRounds; r++ {
		radii = smoothRadial(mesh, radii)
	}
	// Displace the unit icosphere vertices to the radial surface.
	dirs := append([]geom.Vec3(nil), mesh.Verts...)
	for i := range mesh.Verts {
		mesh.Verts[i] = c.Add(mesh.Verts[i].Scale(radii[i]))
	}
	mesh.orientOutward()

	s := &Surface{
		Level:  opts.SubdivisionLevel,
		Degree: opts.QuadratureDegree,
		Points: make([]Point, 0, len(mesh.Faces)*len(rule)),
	}
	s.appendMesh(mesh, rule, false)

	// Hollow molecules (virus capsids): if every inward ray crosses a
	// solvent-sized gap before reaching the material, the interior cavity
	// is solvent-filled and needs its own boundary, oriented toward the
	// cavity (i.e. outward from the molecular material). Without it the
	// surface integral of Eq. 4 treats the cavity as buried interior and
	// the Born radii of shell atoms are badly overestimated.
	minEntry := math.Inf(1)
	for _, e := range entry {
		if e < minEntry {
			minEntry = e
		}
	}
	if minEntry > 2*opts.ProbeRadius+1 {
		inner := Icosphere(opts.SubdivisionLevel)
		entrySm := entry
		for r := 0; r < opts.SmoothingRounds; r++ {
			entrySm = smoothRadial(inner, entrySm)
		}
		for i := range inner.Verts {
			inner.Verts[i] = c.Add(dirs[i].Scale(entrySm[i]))
		}
		inner.orientOutward()
		s.appendMesh(inner, rule, true) // flipped: normals toward the cavity
	}
	return s, nil
}

// appendMesh samples one mesh into the surface; flip reverses the
// normals (inner cavity boundaries point away from the material). Faces
// are measured and sampled across the cores; a degenerate face is skipped,
// so where each face's points go, and the area, are summed in face order
// in between.
func (s *Surface) appendMesh(mesh *Mesh, rule []baryPoint, flip bool) {
	const grain = 512
	nf := len(mesh.Faces)
	normals, areas := make([]geom.Vec3, nf), make([]float64, nf)
	sched.Fan(nf, grain, func(lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			normals[fi], areas[fi] = mesh.FaceNormalArea(fi)
		}
	})
	at := make([]int, nf+1)
	at[0] = len(s.Points)
	for fi, area := range areas {
		at[fi+1] = at[fi]
		if area != 0 {
			at[fi+1] += len(rule)
			s.Area += area
		}
	}
	s.Points = slices.Grow(s.Points, at[nf]-at[0])[:at[nf]]
	sched.Fan(nf, grain, func(lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			n, area := normals[fi], areas[fi]
			if area == 0 {
				continue
			}
			if flip {
				n = n.Scale(-1)
			}
			f := mesh.Faces[fi]
			a, b, d := mesh.Verts[f[0]], mesh.Verts[f[1]], mesh.Verts[f[2]]
			for k, bp := range rule {
				p := a.Scale(bp.l1).Add(b.Scale(bp.l2)).Add(d.Scale(bp.l3))
				s.Points[at[fi]+k] = Point{Pos: p, Normal: n, Weight: bp.w * area}
			}
		}
	})
}

func positionsOf(m *molecule.Molecule) []geom.Vec3 {
	pts := make([]geom.Vec3, len(m.Atoms))
	for i, a := range m.Atoms {
		pts[i] = a.Pos
	}
	return pts
}

// The ray caster's latitude/longitude grid: 5° bins.
const (
	binAngle = math.Pi / 36
	nLat     = int(math.Pi/binAngle) + 1
	nLon     = int(2*math.Pi/binAngle) + 1
)

func latOf(v geom.Vec3) float64 { return math.Acos(clamp(v.Z, -1, 1)) }

func lonOf(v geom.Vec3) float64 {
	l := math.Atan2(v.Y, v.X)
	if l < 0 {
		l += 2 * math.Pi
	}
	return l
}

func binIndex(la, lo int) int {
	lo = ((lo % nLon) + nLon) % nLon
	return min(max(la, 0), nLat-1)*nLon + lo
}

// castAtom is one inflated atom sphere as the rays from c see it.
type castAtom struct {
	rel geom.Vec3 // atom center relative to c
	r   float64   // inflated radius
	// bound is |rel| + r. No ray leaves the sphere farther out than bound
	// or enters it nearer than bound − 2r, which is what lets a ray stop
	// scanning a list sorted by it.
	bound float64
}

// hit intersects the ray from c along the unit vector u with the sphere.
func (a *castAtom) hit(u geom.Vec3) (tIn, tOut float64, ok bool) {
	b := a.rel.Dot(u)
	disc := a.r*a.r - (a.rel.Norm2() - b*b)
	if disc < 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	return b - sq, b + sq, b+sq > 0
}

// rayCaster holds the atom spheres sorted by descending bound and, in
// CSR form, which of them each direction bin can see: atoms are bucketed
// on the latitude/longitude grid by their direction from c so a ray only
// tests nearby atoms; atoms subtending a wide angle (near the centroid)
// go to the broad list, tested against every ray. Every list holds
// ascending indices into atoms, so it is sorted by descending bound too.
type rayCaster struct {
	atoms  []castAtom
	binOff []int32 // nLat·nLon + 1 offsets into binIdx
	binIdx []int32
	broad  []int32
	rMax   float64 // largest inflated radius
	probe  float64
}

// binBlock is the block of bins an atom's angular extent overlaps: rows
// la0..la1 (none when la1 < la0, a broad atom) by columns lo0..lo1, the
// columns taken modulo nLon.
type binBlock struct{ la0, la1, lo0, lo1 int16 }

// newRayCaster stages every atom (sphere, bound, bin block) across the
// cores, sorts by bound, and fills the bins by count-then-fill: no bin is
// ever grown. The bins are filled a band of latitude rows per goroutine,
// each walking the sorted atoms, so every list comes out in sorted order
// whatever the core count.
func newRayCaster(m *molecule.Molecule, c geom.Vec3, probe float64) *rayCaster {
	n := len(m.Atoms)
	atoms, blocks, keys := make([]castAtom, n), make([]binBlock, n), make([]boundKey, n)
	sched.Fan(n, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rel, r := m.Atoms[i].Pos.Sub(c), m.Atoms[i].Radius+probe
			d := rel.Norm()
			atoms[i] = castAtom{rel: rel, r: r, bound: d + r}
			keys[i] = boundKey{d + r, int32(i)}
			blocks[i] = blockOf(rel, r, d)
		}
	})
	sortByBound(keys)
	rc := &rayCaster{atoms: make([]castAtom, n), binOff: make([]int32, nLat*nLon+1), probe: probe}
	sorted := make([]binBlock, n)
	for k, key := range keys {
		rc.atoms[k], sorted[k] = atoms[key.atom], blocks[key.atom]
		rc.rMax = max(rc.rMax, rc.atoms[k].r)
		if sorted[k].la1 < sorted[k].la0 {
			rc.broad = append(rc.broad, int32(k))
		}
	}
	const bandRows = 4
	sched.Fan(nLat, bandRows, func(r0, r1 int) { binRows(sorted, r0, r1, rc.binOff[1:], nil) })
	for i := 1; i < len(rc.binOff); i++ {
		rc.binOff[i] += rc.binOff[i-1]
	}
	rc.binIdx = make([]int32, rc.binOff[len(rc.binOff)-1])
	next := slices.Clone(rc.binOff[:len(rc.binOff)-1])
	sched.Fan(nLat, bandRows, func(r0, r1 int) { binRows(sorted, r0, r1, next, rc.binIdx) })
	return rc
}

// blockOf places the sphere (center rel at distance d from c, radius r) on
// the grid; a sphere that contains c or subtends more than four bins is
// broad.
func blockOf(rel geom.Vec3, r, d float64) binBlock {
	alpha := math.Asin(clamp(r/d, 0, 1)) // half the angle the sphere subtends
	if d <= r || alpha > 4*binAngle {
		return binBlock{la0: 0, la1: -1}
	}
	u := rel.Scale(1 / d)
	lat := latOf(u)
	la := int(lat / binAngle)
	lo := int(lonOf(u) / binAngle)
	span := int(alpha/binAngle) + 1
	// Longitude bins shrink near the poles; widen the span there.
	lonSpan := span
	if sinLat := math.Sin(lat); sinLat > 1e-3 {
		lonSpan = int(alpha/(binAngle*sinLat)) + 1
	}
	lonSpan = min(lonSpan, nLon/2) // at most the whole circle, once
	return binBlock{int16(max(la-span, 0)), int16(min(la+span, nLat-1)), int16(lo - lonSpan), int16(lo + lonSpan)}
}

// binRows walks the blocks in order and, for every bin they cover in
// latitude rows [r0, r1), advances cursor[bin]; with idx set it first
// writes the block's index at idx[cursor[bin]]. Rows are disjoint ranges
// of cursor and idx, so bands run side by side.
func binRows(blocks []binBlock, r0, r1 int, cursor, idx []int32) {
	for k := range blocks {
		blk := &blocks[k]
		for la := max(int(blk.la0), r0); la <= min(int(blk.la1), r1-1); la++ {
			row := cursor[la*nLon : (la+1)*nLon]
			for lo := int(blk.lo0); lo <= int(blk.lo1); lo++ {
				col := lo
				if col < 0 {
					col += nLon
				} else if col >= nLon {
					col -= nLon
				}
				if idx != nil {
					idx[row[col]] = int32(k)
				}
				row[col]++
			}
		}
	}
}

// boundKey sorts the atoms: by descending bound, then by atom index, a
// total order, so the sorted array does not depend on how the sort was
// split.
type boundKey struct {
	bound float64
	atom  int32
}

func sortByBound(keys []boundKey) {
	const run = 4096
	order := func(a, b boundKey) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return cmp.Compare(a.atom, b.atom)
	}
	sched.Fan(len(keys), run, func(lo, hi int) { slices.SortFunc(keys[lo:hi], order) })
	if len(keys) <= run {
		return
	}
	// Merge the sorted runs pairwise until one is left.
	src, dst := keys, make([]boundKey, len(keys))
	for w := run; w < len(keys); w *= 2 {
		sched.Fan(len(keys), 2*w, func(lo, hi int) {
			a, b := src[lo:min(lo+w, hi)], src[min(lo+w, hi):hi]
			for i := lo; i < hi; i++ {
				if len(b) == 0 || len(a) > 0 && order(a[0], b[0]) <= 0 {
					dst[i], a = a[0], a[1:]
				} else {
					dst[i], b = b[0], b[1:]
				}
			}
		})
		src, dst = dst, src
	}
	copy(keys, src) // a no-op after an even number of rounds
}

// Guards of the two pruning tests against the rounding of hit and of
// bound: relative on the exit distance, absolute on the entry distance
// (both are orders of magnitude above the error at molecular scales, and
// cost a handful of extra tests per ray).
const (
	exitGuard  = 1e-12
	entryGuard = 1e-9
)

// cast returns, for the ray from c along the unit vector u, the largest
// exit distance and the smallest entry distance (clamped at 0) over the
// spheres of u's bin and of the broad list — a max and a min, so any
// subset that contains the deciding spheres gives the same bits. Each list
// is scanned from the front, where the far-reaching spheres are, until a
// sphere's bound falls below the best exit so far: no later sphere can
// reach beyond it. It is then scanned from the back for the entry
// distance, until a sphere's nearest possible entry, bound − 2·rMax, lies
// beyond the best entry so far (or that entry is 0, which nothing beats).
func (rc *rayCaster) cast(u geom.Vec3) (exit, entry float64) {
	bin := binIndex(int(latOf(u)/binAngle), int(lonOf(u)/binAngle))
	best, first := 0.0, math.Inf(1)
	for _, list := range [2][]int32{rc.binIdx[rc.binOff[bin]:rc.binOff[bin+1]], rc.broad} {
		k := 0
		for ; k < len(list); k++ {
			a := &rc.atoms[list[k]]
			if a.bound*(1+exitGuard) < best {
				break
			}
			if tIn, tOut, ok := a.hit(u); ok {
				best = max(best, tOut)
				first = min(first, max(tIn, 0))
			}
		}
		for j := len(list) - 1; j >= k && first > 0; j-- {
			a := &rc.atoms[list[j]]
			if a.bound-2*rc.rMax-entryGuard > first {
				break
			}
			if tIn, _, ok := a.hit(u); ok {
				first = min(first, max(tIn, 0))
			}
		}
	}
	if best == 0 {
		// No hit (ray through a gap): fall back to the smallest
		// inflated radius so the surface stays closed.
		return rc.probe + 1, 0
	}
	return best, first
}

// castRadii computes, for every direction dirs[i] (unit vectors from c),
// the largest ray–sphere exit distance over all inflated atom spheres
// (the outer radial surface for star-shaped molecules) and the smallest
// entry distance (the inner cavity boundary of hollow molecules; 0 when
// the ray starts inside the material).
func castRadii(m *molecule.Molecule, c geom.Vec3, dirs []geom.Vec3, probe float64) (exits, entries []float64) {
	rc := newRayCaster(m, c, probe)
	exits = make([]float64, len(dirs))
	entries = make([]float64, len(dirs))
	sched.Fan(len(dirs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			exits[i], entries[i] = rc.cast(dirs[i])
		}
	})
	return exits, entries
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// smoothRadial runs one Laplacian smoothing round over the radial field.
func smoothRadial(mesh *Mesh, radii []float64) []float64 {
	sum := make([]float64, len(radii))
	cnt := make([]int, len(radii))
	for _, f := range mesh.Faces {
		for i := 0; i < 3; i++ {
			a, b := f[i], f[(i+1)%3]
			sum[a] += radii[b]
			cnt[a]++
			sum[b] += radii[a]
			cnt[b]++
		}
	}
	out := make([]float64, len(radii))
	for i := range radii {
		if cnt[i] == 0 {
			out[i] = radii[i]
			continue
		}
		avg := sum[i] / float64(cnt[i])
		out[i] = 0.5*radii[i] + 0.5*avg
	}
	return out
}

// SphereSurface samples a sphere of the given center and radius: the
// analytic reference surface used by the tests (a point charge at the
// center of a spherical solute has Born radius exactly equal to the
// sphere radius).
func SphereSurface(center geom.Vec3, radius float64, level, degree int) (*Surface, error) {
	rule, ok := quadRules[degree]
	if !ok {
		return nil, fmt.Errorf("surface: no quadrature rule of degree %d", degree)
	}
	mesh := Icosphere(level)
	for i := range mesh.Verts {
		mesh.Verts[i] = center.Add(mesh.Verts[i].Scale(radius))
	}
	mesh.orientOutward()
	s := &Surface{Level: level, Degree: degree}
	s.appendMesh(mesh, rule, false)
	return s, nil
}
