package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// bitHash folds arrays into a SHA-256 by their exact bit patterns, each
// preceded by its length, so two cold paths hash equal only when every
// float is the same float.
type bitHash struct {
	h   hash.Hash
	buf [8]byte
}

func newBitHash() *bitHash { return &bitHash{h: sha256.New()} }

func (b *bitHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.h.Write(b.buf[:])
}

func (b *bitHash) f64s(a ...float64) {
	for _, v := range a {
		b.u64(math.Float64bits(v))
	}
}

func (b *bitHash) vec(v geom.Vec3) { b.f64s(v.X, v.Y, v.Z) }

func (b *bitHash) floats(a []float64) {
	b.u64(uint64(len(a)))
	b.f64s(a...)
}

func (b *bitHash) vecs(a []geom.Vec3) {
	b.u64(uint64(len(a)))
	for _, v := range a {
		b.vec(v)
	}
}

func (b *bitHash) i32s(a []int32) {
	b.u64(uint64(len(a)))
	for _, v := range a {
		b.u64(uint64(uint32(v)))
	}
}

func (b *bitHash) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

func hashSurface(s *surface.Surface) string {
	b := newBitHash()
	b.u64(uint64(len(s.Points)))
	for _, p := range s.Points {
		b.vec(p.Pos)
		b.vec(p.Normal)
		b.f64s(p.Weight)
	}
	b.f64s(s.Area)
	return b.sum()
}

// tree hashes t over pts, its points in slot order: the atoms tree's own,
// the q-point tree's the System's columns (qPoints).
func (b *bitHash) tree(t *octree.Tree, pts []geom.Vec3) {
	b.u64(uint64(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		b.vec(n.Center)
		b.f64s(n.Radius)
		b.i32s(n.Children[:])
		b.i32s([]int32{n.Start, n.End, int32(n.Depth)})
		if n.IsLeaf {
			b.u64(1)
		}
	}
	b.i32s(t.Index)
	b.vecs(pts)
	b.i32s(t.Leaves())
}

// joinVecs is the vectors of three component columns.
func joinVecs(x, y, z []float64) []geom.Vec3 {
	out := make([]geom.Vec3, len(x))
	for i := range out {
		out[i] = geom.Vec3{X: x[i], Y: y[i], Z: z[i]}
	}
	return out
}

// hashSystem covers everything NewSystem derives: both trees, the
// slot-ordered payloads, the node aggregates and the SoA mirrors over their
// whole padded capacity. The q-point positions and weighted normals are
// hashed twice, as the tree's points and the vectors the System once kept
// beside its columns, then as the columns: the digests below were taken
// when each was a separate array.
func hashSystem(s *System) string {
	b := newBitHash()
	b.tree(s.Atoms, s.Atoms.Pts)
	b.tree(s.QPts, joinVecs(s.QX, s.QY, s.QZ))
	b.vecs(joinVecs(s.WNX, s.WNY, s.WNZ))
	b.vecs(s.QNodeWN)
	for _, a := range [][]float64{s.Charge, s.Radius,
		s.AtomX, s.AtomY, s.AtomZ, s.QX, s.QY, s.QZ,
		s.WNX, s.WNY, s.WNZ, s.ANodeX, s.ANodeY, s.ANodeZ} {
		b.floats(a[:padLanes(len(a))])
	}
	return b.sum()
}

// hashLists hashes cl's index arrays, the Born lists in the per-row layout
// they had before tiles (perRowLists, on the visit order of atoms).
func hashLists(atoms *octree.Tree, cl *CompiledLists) string {
	b := newBitHash()
	for _, il := range []*rowLists{perRowLists(cl.Born, atoms), perRowLists(cl.Epol, atoms)} {
		for _, a := range [][]int32{il.Rows, il.FarOff, il.Far, il.NearOff, il.Near,
			il.SymOff, il.Sym, il.CedeOff, il.Cede} {
			b.i32s(a)
		}
	}
	return b.sum()
}

// coldPath runs molecule → surface → system → compiled lists.
func coldPath(t *testing.T, mol *molecule.Molecule, workers int) (*surface.Surface, *System, *CompiledLists) {
	t.Helper()
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, mortonParams())
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(workers)
	defer pool.Close()
	return surf, sys, sys.compile(pool)
}

// The cold path gives the same bits on any number of cores, and the bits
// of the commit before it went parallel: the surface digests below were
// computed there, by this file, before any other line of the change was
// written. The lists digests were re-taken the same way on the last commit
// whose lists carried a repair certificate, over the index arrays alone —
// until then they also hashed it. The system digests
// were re-taken the same way on the commit before the octree moment sets
// were deleted, over everything else NewSystem derived there: until then
// they also hashed both trees' moment sets.
func TestColdPathBitIdentical(t *testing.T) {
	for _, fx := range []struct {
		name                string
		mol                 func() *molecule.Molecule
		surface, sys, lists string
	}{
		{name: "protein4000", mol: func() *molecule.Molecule { return molecule.GenProtein("cold", 4000, 2) },
			surface: "3ab64d1a82e212c7927194b2c8b07dc82f8c1ec3c63b9750267563111bd117db", sys: "92569e6f321917dea4544a745d004f3479400d656e0f21a1d18d056859a38c21", lists: "8374335f9f434987aec1135b79866186f6bc5869cecaaa8cb0eef507348227ac"},
		{name: "capsid3000", mol: func() *molecule.Molecule { return molecule.GenCapsid("cold", 3000, 30, 38, 28) },
			surface: "6f8f2c18f9b64ca1fa3f484ee07a19328d6d33b6494a67d61ac2015e7b5937d6", sys: "36cf469f823a8bc2b38b46d5fb296995e0f274bf023f5b6dcd38f0aa0d0777ca", lists: "3d5f073028aa8fb0f19bb6f1b4af7c14a0e2fa41e9489af01e49cbc2a24ce8d9"},
	} {
		t.Run(fx.name, func(t *testing.T) {
			var surf0 *surface.Surface
			var sys0 *System
			var cl0 *CompiledLists
			for _, procs := range []int{1, 2, 4, 8} {
				prev := runtime.GOMAXPROCS(procs)
				surf, sys, cl := coldPath(t, fx.mol(), procs)
				runtime.GOMAXPROCS(prev)
				if err := sys.checkSoAPadding(); err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				if surf0 == nil {
					surf0, sys0, cl0 = surf, sys, cl
					for _, d := range []struct{ what, got, want string }{
						{"surface", hashSurface(surf), fx.surface},
						{"system", hashSystem(sys), fx.sys},
						{"lists", hashLists(sys.Atoms, cl), fx.lists},
					} {
						if d.got != d.want {
							t.Errorf("%s digest %s, the parent commit's is %s", d.what, d.got, d.want)
						}
					}
					continue
				}
				if !reflect.DeepEqual(surf.Points, surf0.Points) || surf.Area != surf0.Area {
					t.Errorf("GOMAXPROCS %d: surface differs from GOMAXPROCS 1", procs)
				}
				if hashSystem(sys) != hashSystem(sys0) {
					t.Errorf("GOMAXPROCS %d: trees or SoA mirrors differ from GOMAXPROCS 1", procs)
				}
				if !reflect.DeepEqual(cl, cl0) {
					t.Errorf("GOMAXPROCS %d: compiled lists differ from GOMAXPROCS 1", procs)
				}
			}
		})
	}
}

// A re-pose split across goroutines leaves the bits of the serial loops in
// every array it touches and keeps the compiled lists valid.
func TestReposeSplitMatchesSerial(t *testing.T) {
	mol := molecule.GenProtein("repose", 6000, 5) // above fanGrain, so the loops do split
	build := func(procs int) (*System, *sched.Pool) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, sys, _ := coldPath(t, mol.Clone(), procs)
		pool := sched.NewPool(2)
		sys.Lists(pool)
		return sys, pool
	}
	serial, pool := build(1)
	defer pool.Close()
	split, pool2 := build(8)
	defer pool2.Close()
	atoms0 := append([]geom.Vec3(nil), split.Atoms.Pts...)
	q0, wn0 := joinVecs(split.QX, split.QY, split.QZ), joinVecs(split.WNX, split.WNY, split.WNZ)

	poses := []geom.Transform{
		geom.Translate(geom.V(17, -4, 9)).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.8)),
		geom.RotateAxis(geom.V(-2, 0.5, 1), 2.1),
	}
	for step, tr := range poses {
		prev := runtime.GOMAXPROCS(1)
		serial.ApplyRigidTransform(tr)
		runtime.GOMAXPROCS(8)
		split.ApplyRigidTransform(tr)
		runtime.GOMAXPROCS(prev)

		if got, want := hashSystem(split), hashSystem(serial); got != want {
			t.Fatalf("pose %d: trees or columns differ from the serial re-pose", step)
		}
		if err := split.checkSoAPadding(); err != nil {
			t.Fatalf("pose %d: %v", step, err)
		}
		if err := split.RecheckLists(pool2); err != nil {
			t.Fatalf("pose %d: %v", step, err)
		}
		// The first pose against the definition, element by element.
		if step == 0 {
			for i, p := range atoms0 {
				if split.Atoms.Pts[i] != tr.Apply(p) {
					t.Fatalf("atom slot %d is %v, want %v", i, split.Atoms.Pts[i], tr.Apply(p))
				}
			}
			q, wn := joinVecs(split.QX, split.QY, split.QZ), joinVecs(split.WNX, split.WNY, split.WNZ)
			for i, p := range q0 {
				if q[i] != tr.Apply(p) || wn[i] != tr.ApplyVector(wn0[i]) {
					t.Fatalf("q-point slot %d is at %v, weighted normal %v, want %v, %v",
						i, q[i], wn[i], tr.Apply(p), tr.ApplyVector(wn0[i]))
				}
			}
		}
	}
}
