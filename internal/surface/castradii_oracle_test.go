package surface

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
)

// castRadiiOracle is castRadii as it stood before it was pruned and
// split across goroutines, verbatim: every atom of the ray's bin and of
// the broad list is tested. TestCastRadiiMatchesOracle holds the
// production code to its bits.
func castRadiiOracle(m *molecule.Molecule, c geom.Vec3, dirs []geom.Vec3, probe float64) (exits, entries []float64) {
	const binAngle = math.Pi / 36 // 5° bins
	nLat := int(math.Pi/binAngle) + 1
	nLon := int(2*math.Pi/binAngle) + 1
	type atomRec struct {
		rel geom.Vec3 // atom center relative to c
		r   float64   // inflated radius
	}
	bins := make([][]atomRec, nLat*nLon)
	var broad []atomRec

	latOf := func(v geom.Vec3) float64 { return math.Acos(clamp(v.Z, -1, 1)) }
	lonOf := func(v geom.Vec3) float64 {
		l := math.Atan2(v.Y, v.X)
		if l < 0 {
			l += 2 * math.Pi
		}
		return l
	}
	binIndex := func(la, lo int) int {
		lo = ((lo % nLon) + nLon) % nLon
		if la < 0 {
			la = 0
		}
		if la >= nLat {
			la = nLat - 1
		}
		return la*nLon + lo
	}

	for _, a := range m.Atoms {
		rec := atomRec{rel: a.Pos.Sub(c), r: a.Radius + probe}
		d := rec.rel.Norm()
		if d <= rec.r || math.Asin(clamp(rec.r/d, 0, 1)) > 4*binAngle {
			broad = append(broad, rec)
			continue
		}
		u := rec.rel.Scale(1 / d)
		alpha := math.Asin(clamp(rec.r/d, 0, 1))
		la := int(latOf(u) / binAngle)
		lo := int(lonOf(u) / binAngle)
		span := int(alpha/binAngle) + 1
		// Longitude bins shrink near the poles; widen the span there.
		sinLat := math.Sin(latOf(u))
		lonSpan := span
		if sinLat > 1e-3 {
			lonSpan = int(alpha/(binAngle*sinLat)) + 1
		}
		if lonSpan > nLon/2 {
			lonSpan = nLon / 2
		}
		for dla := -span; dla <= span; dla++ {
			for dlo := -lonSpan; dlo <= lonSpan; dlo++ {
				idx := binIndex(la+dla, lo+dlo)
				bins[idx] = append(bins[idx], rec)
			}
		}
	}

	hit := func(rec atomRec, u geom.Vec3) (tIn, tOut float64, ok bool) {
		b := rec.rel.Dot(u)
		disc := rec.r*rec.r - (rec.rel.Norm2() - b*b)
		if disc < 0 {
			return 0, 0, false
		}
		sq := math.Sqrt(disc)
		return b - sq, b + sq, b+sq > 0
	}

	exits = make([]float64, len(dirs))
	entries = make([]float64, len(dirs))
	for i, u := range dirs {
		la := int(latOf(u) / binAngle)
		lo := int(lonOf(u) / binAngle)
		best := 0.0
		first := math.Inf(1)
		scan := func(rec atomRec) {
			tIn, tOut, ok := hit(rec, u)
			if !ok {
				return
			}
			if tOut > best {
				best = tOut
			}
			if tIn < 0 {
				tIn = 0
			}
			if tIn < first {
				first = tIn
			}
		}
		for _, rec := range bins[binIndex(la, lo)] {
			scan(rec)
		}
		for _, rec := range broad {
			scan(rec)
		}
		if best == 0 {
			// No hit (ray through a gap): fall back to the smallest
			// inflated radius so the surface stays closed.
			best = probe + 1
			first = 0
		}
		exits[i] = best
		entries[i] = first
	}
	return exits, entries
}
