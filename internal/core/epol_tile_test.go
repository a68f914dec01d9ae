package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
)

// The E_pol tile (InteractionLists.TileOff and the shared runs, epolTile)
// against the per-row layout the E_pol lists had before it: the lists merged
// back into rows, the tile sweep against the per-row sweep of those rows.

// The tiled E_pol lists are the scalar descent's, rows merged back: for
// every class and the far run, each row's shared ∪ own on visit order is the
// oracle's row; each tile's shared run of a kind is the intersection of its
// rows' (hoistTiles of the oracle over the compile's cut); every tile is
// one to eight rows with one parent; and the compile is the same with no
// pool and on pools of 1, 2, 3 and 8 — compiled, and after three tracked
// updates have moved atoms and repaired the lists.
func TestEpolTileListsMatchOracle(t *testing.T) {
	pools := map[string]*sched.Pool{"serial": nil}
	for _, w := range []int{1, 2, 3, 8} {
		pool := sched.NewPool(w)
		defer pool.Close()
		pools[fmt.Sprintf("pool%d", w)] = pool
	}
	for _, mol := range append(listFixtures(), deepCluster()) {
		t.Run(mol.Name, func(t *testing.T) {
			sys := fixtureSystem(t, mol.Clone(), 0)
			var stored [2][runFar + 1]int // shared and own entries seen, by run
			check := func(when string, held *InteractionLists) {
				t.Helper()
				_, epol := sys.listPhases(sys.lists)
				want := epol.oracleIndex(nil)
				if err := sameIndex(perRowLists(held, sys.Atoms), want); err != nil {
					t.Errorf("%s: rows merged back: %v", when, err)
				}
				if err := sameIndex(held, hoistTiles(want, held.TileOff, len(sys.Atoms.Nodes))); err != nil {
					t.Errorf("%s: against the intersection of each tile's rows: %v", when, err)
				}
				for tile := range held.tiles() {
					lo, hi := held.tileRows(tile)
					for k := lo; k < hi; k++ {
						if hi-lo > tileLanes || epol.up[held.Rows[k]] != epol.up[held.Rows[lo]] {
							t.Fatalf("%s: tile %d holds rows [%d, %d) of more than one parent or more than eight", when, tile, lo, hi)
						}
					}
				}
				for name, pool := range pools {
					if got := epol.index(pool); !reflect.DeepEqual(got, held) {
						t.Errorf("%s: the compile on %s differs", when, name)
					}
				}
				rows, tiles := held.rowCSR(), held.tileCSR()
				for r := range rows {
					stored[0][r] += len(*tiles[r].ents)
					stored[1][r] += len(*rows[r].ents)
				}
			}
			check("compiled", sys.Lists(nil).Epol)
			rng := rand.New(rand.NewSource(44))
			pos := sys.Mol.Positions()
			for step := 0; step < 3; step++ {
				pos = localJiggle(rng, pos, 0.3)
				stats, err := sys.UpdateAtomsRepair(pos, pools["pool2"], nil)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Repaired {
					check(fmt.Sprintf("repaired, step %d", step), sys.lists.Epol)
				}
			}
			if mol.NumAtoms() > 100 {
				for _, r := range []int{kindNear, kindSym, kindCede, runFar} {
					if stored[0][r] == 0 || stored[1][r] == 0 {
						t.Errorf("%d shared and %d own %s entries: one kind goes untested", stored[0][r], stored[1][r], runNames[r])
					}
				}
			}
		})
	}
}

// The tile sweep (epolTile) against the per-row sweep of the same rows
// merged back (perRowLists, every row's whole runs through epolRow), at one
// worker, on both tiers, with the assembly and without: the pair sum to
// 1e-13 relative, the op count and the near and far terms exactly, and
// fewer operands gathered. Then one run set swept against n leaves at once
// — a tile of 1 to 8 rows, every length of outer operand and its tails —
// against the sum of sweeping it leaf by leaf.
func TestEpolTileKernelMatchesRows(t *testing.T) {
	defer func(v bool) { useAsmKernels = v }(useAsmKernels)
	host := useAsmKernels
	mol := molecule.GenProtein("tiles", 1500, 47)
	for _, tier := range streamTiers {
		p := mortonParams()
		p.Precision = tier.prec
		f := newStreamFixture(t, tier.name, mol.Clone(), p)
		il := f.sys.Lists(nil).Epol
		rows := perRowLists(il, f.sys.Atoms)
		rng := rand.New(rand.NewSource(48))
		for _, asm := range []bool{host, false} {
			useAsmKernels = asm
			name := fmt.Sprintf("%s, asm %v", tier.name, asm)
			ctx := NewEpolContext(f.sys, f.radii)
			var want, got epolAccum
			sc := newEpolScratch(ctx, rows, 1)
			for row := range rows.Rows {
				epolRow(ctx, rows, row, &sc[0], &want)
			}
			tsc := newEpolScratch(ctx, il, 1)
			for tile := range il.tiles() {
				epolTile(ctx, il, tile, &tsc[0], &got)
			}
			if e := relErr(got.energy, want.energy); !(e <= 1e-13) {
				t.Errorf("%s: tile sweep %.17g, per-row sweep %.17g (rel %.3g)", name, got.energy, want.energy, e)
			}
			if got.ops != want.ops || got.nearTerms != want.nearTerms || got.farTerms != want.farTerms {
				t.Errorf("%s: ops, near and far terms %v %v %v, the per-row sweep's %v %v %v",
					name, got.ops, got.nearTerms, got.farTerms, want.ops, want.nearTerms, want.farTerms)
			}
			if got.gatherAtoms >= want.gatherAtoms || got.gatherSpans >= want.gatherSpans {
				t.Errorf("%s: gathered %v operands for %v entries, the per-row sweep %v for %v",
					name, got.gatherAtoms, got.gatherSpans, want.gatherAtoms, want.gatherSpans)
			}

			// Every tile length, around a row whose whole runs hold Near,
			// Sym and far entries (its own leaf among them, which keeps the
			// sums far from cancelling).
			k := rng.Intn(len(rows.Rows))
			runs := rows.rowRuns(k)
			for len(runs[kindNear]) == 0 || len(runs[kindSym]) == 0 || len(runs[runFar]) == 0 {
				k = rng.Intn(len(rows.Rows))
				runs = rows.rowRuns(k)
			}
			for n := 1; n <= tileLanes; n++ {
				lo := max(0, min(k, len(rows.Rows)-n))
				self := rows.Rows[lo : lo+n]
				var one, all epolAccum
				for l := range self {
					sc[0].sweepRuns(ctx, self[l:l+1], &runs, &one)
				}
				sc[0].sweepRuns(ctx, self, &runs, &all)
				if e := relErr(all.energy, one.energy); !(e <= 1e-13) || all.ops != one.ops || all.nearTerms != one.nearTerms || all.farTerms != one.farTerms {
					t.Errorf("%s, %d leaves: %.17g over %v ops, leaf by leaf %.17g over %v (rel %.3g)", name, n, all.energy, all.ops, one.energy, one.ops, e)
				}
			}
		}
	}
}
