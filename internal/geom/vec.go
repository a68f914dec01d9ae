// Package geom provides the small 3-D geometry toolkit used throughout
// gbpolar: vectors, axis-aligned boxes, enclosing spheres and rigid
// transforms. Everything is allocation-free and safe for concurrent use
// (all values, no shared state).
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in 3-D space, in Ångströms.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for Vec3{X: x, Y: y, Z: z} that keeps call sites in other
// packages concise without unkeyed composite literals.
func V(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns |v - w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Dist2 returns |v - w|².
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Norm2() }

// Unit returns v/|v|. The zero vector is returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	// x − x is 0 for a finite x and NaN for a NaN or an infinity, so the
	// sum is 0 exactly when all three are finite: one compare, no branch
	// per component.
	return (v.X-v.X)+(v.Y-v.Y)+(v.Z-v.Z) == 0
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }

// Lerp returns v + t·(w−v).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 { return v.Add(w.Sub(v).Scale(t)) }

// Centroid returns the arithmetic mean of the given points.
// It returns the zero vector for an empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}
