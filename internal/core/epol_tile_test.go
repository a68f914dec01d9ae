package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gbpolar/internal/molecule"
)

// The E_pol tile sweep (epolTile) against the per-row sweep it replaced:
// the sweep of the same rows merged back (perRowLists, as tiles of one row
// each: rowLists.tiled, so that epolTile sweeps every row's whole runs
// alone), at one worker, on both tiers, with the assembly and without: the pair sum to
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
			perRow := rows.tiled()
			sc := newEpolScratch(ctx, perRow, 1)
			for tile := range perRow.tiles() {
				epolTile(ctx, perRow, tile, &sc[0], &want)
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
