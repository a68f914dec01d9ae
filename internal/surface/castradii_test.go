package surface

import (
	"math"
	"runtime"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
)

// The pruned, parallel ray cast returns the bits of the exhaustive serial
// one for every ray, on every core count.
func TestCastRadiiMatchesOracle(t *testing.T) {
	atom := func(x, y, z, r float64) molecule.Atom {
		return molecule.Atom{Pos: geom.V(x, y, z), Charge: 0.1, Radius: r}
	}
	fixtures := []struct {
		name  string
		mol   *molecule.Molecule
		level int
	}{
		{"globular 20000", molecule.GenProtein("g", 20000, 1), 5},
		{"globular 300", molecule.GenProtein("g", 300, 7), 3},
		{"hollow capsid", molecule.GenCapsid("c", 6000, 30, 38, 28), 4},
		{"ligand", molecule.GenLigand("l", 40, 3), 3},
		{"one atom", &molecule.Molecule{Atoms: []molecule.Atom{atom(1, 2, 3, 1.7)}}, 2},
		{"two coincident atoms", &molecule.Molecule{Atoms: []molecule.Atom{atom(1, 2, 3, 1.7), atom(1, 2, 3, 1.2)}}, 2},
		{"atom at the centroid", &molecule.Molecule{Atoms: []molecule.Atom{
			atom(0, 0, 0, 1.5), atom(9, 0, 0, 1.9), atom(-9, 0, 0, 1.9), atom(0, 12, 0, 1.2), atom(0, -12, 0, 1.2)}}, 3},
		// Two small atoms far apart: almost every ray from the midpoint
		// passes between them and takes the closed-surface fallback.
		{"rays through a gap", &molecule.Molecule{Atoms: []molecule.Atom{atom(40, 0, 0, 1.2), atom(-40, 0, 0, 1.2)}}, 3},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, fx := range fixtures {
		c := geom.Centroid(positionsOf(fx.mol))
		dirs := Icosphere(fx.level).Verts
		wantExit, wantEntry := castRadiiOracle(fx.mol, c, dirs, 1.4)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			exit, entry := castRadii(fx.mol, c, dirs, 1.4)
			bad := 0
			for i := range dirs {
				if math.Float64bits(exit[i]) != math.Float64bits(wantExit[i]) ||
					math.Float64bits(entry[i]) != math.Float64bits(wantEntry[i]) {
					if bad++; bad <= 3 {
						t.Errorf("%s, GOMAXPROCS %d, ray %d: exit %v entry %v, oracle %v %v",
							fx.name, procs, i, exit[i], entry[i], wantExit[i], wantEntry[i])
					}
				}
			}
			if bad > 3 {
				t.Errorf("%s, GOMAXPROCS %d: %d of %d rays differ", fx.name, procs, bad, len(dirs))
			}
		}
	}
	// The gap fixture must take the fallback it is there for.
	gap := fixtures[len(fixtures)-1]
	exit, _ := castRadii(gap.mol, geom.Vec3{}, Icosphere(gap.level).Verts, 1.4)
	fallbacks := 0
	for _, e := range exit {
		if e == 1.4+1 {
			fallbacks++
		}
	}
	if fallbacks == 0 || fallbacks == len(exit) {
		t.Errorf("gap fixture: %d of %d rays took the no-hit fallback, want some but not all", fallbacks, len(exit))
	}
}

// A memoised icosphere handed out twice is two meshes: displacing one
// leaves the next call's unit sphere intact.
func TestIcosphereMemoIsCloned(t *testing.T) {
	a := Icosphere(3)
	want := append([]geom.Vec3(nil), a.Verts...)
	wantFaces := append([][3]int(nil), a.Faces...)
	for i := range a.Verts {
		a.Verts[i] = a.Verts[i].Scale(-7)
	}
	a.Faces[0] = [3]int{0, 0, 0}
	b := Icosphere(3)
	for i := range want {
		if b.Verts[i] != want[i] {
			t.Fatalf("vertex %d of a later Icosphere(3) is %v, want %v", i, b.Verts[i], want[i])
		}
	}
	for i := range wantFaces {
		if b.Faces[i] != wantFaces[i] {
			t.Fatalf("face %d of a later Icosphere(3) is %v, want %v", i, b.Faces[i], wantFaces[i])
		}
	}
	fresh := buildIcosphere(3)
	for i := range want {
		if fresh.Verts[i] != want[i] {
			t.Fatalf("memoised vertex %d differs from a fresh build", i)
		}
	}
}

// BenchmarkCastRadii20k is the ray cast of the benchmark's cold_start
// molecule (20 000 atoms, level-5 icosphere: 10 242 rays), beside the
// exhaustive serial oracle it replaced.
func BenchmarkCastRadii20k(b *testing.B) {
	m := molecule.GenProtein("bench", 20000, 1)
	c := geom.Centroid(positionsOf(m))
	dirs := Icosphere(5).Verts
	for _, impl := range []struct {
		name string
		cast func(*molecule.Molecule, geom.Vec3, []geom.Vec3, float64) ([]float64, []float64)
	}{{"pruned", castRadii}, {"oracle", castRadiiOracle}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.cast(m, c, dirs, 1.4)
			}
		})
	}
}
