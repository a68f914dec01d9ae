package core

import (
	"fmt"
	"slices"
	"testing"
)

// rowEntries collects one row's far/near/sym entry sets, sorted so the
// comparison is insensitive to entry order within a row.
type rowEntries struct {
	far, near, sym []int32
}

// listRowSets indexes an InteractionLists by row id. Row ORDER between
// two builds is irrelevant to evaluation (each row is independent), so
// equivalence is asserted on the id→entries mapping, not on row layout.
func listRowSets(t *testing.T, il *InteractionLists) map[int32]rowEntries {
	t.Helper()
	out := make(map[int32]rowEntries, len(il.Rows))
	for tile := range il.tiles() {
		shared, ownRuns := il.tileRuns(tile), il.ownRuns(tile) // a row's sets: its tile's shared runs and its share of the own ones
		lo, hi := il.tileRows(tile)
		for i := lo; i < hi; i++ {
			var own [runFar + 1][]int32
			for r := range own {
				own[r] = laneRun(nil, ownRuns.runs[r], ownRuns.masks[r], i-lo)
			}
			row := il.Rows[i]
			if _, dup := out[row]; dup {
				t.Fatalf("row %d appears twice", row)
			}
			re := rowEntries{
				far:  slices.Concat(own[runFar], shared[runFar]),
				near: slices.Concat(own[kindNear], shared[kindNear]),
				sym:  slices.Concat(own[kindSym], shared[kindSym]),
			}
			slices.Sort(re.far)
			slices.Sort(re.near)
			slices.Sort(re.sym)
			out[row] = re
		}
	}
	return out
}

// diffRowSets asserts two builds compiled the same decomposition: the
// same row set, and per row the same far set and the same evaluated
// near set. Near entries may migrate between Near and Sym when row
// iteration order differs (symmetrizeNear credits the mutual pair to
// whichever row comes first), so near and sym are compared as a union.
func diffRowSets(phase string, a, b map[int32]rowEntries) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d rows vs %d rows", phase, len(a), len(b))
	}
	for row, ra := range a {
		rb, ok := b[row]
		if !ok {
			return fmt.Errorf("%s: row %d missing from second build", phase, row)
		}
		if !slices.Equal(ra.far, rb.far) {
			return fmt.Errorf("%s row %d: far sets differ: %v vs %v", phase, row, ra.far, rb.far)
		}
		na := append(slices.Clone(ra.near), ra.sym...)
		nb := append(slices.Clone(rb.near), rb.sym...)
		slices.Sort(na)
		slices.Sort(nb)
		if !slices.Equal(na, nb) {
			return fmt.Errorf("%s row %d: near sets differ: %v vs %v", phase, row, na, nb)
		}
	}
	return nil
}

// TestBuilderEquivalence is the end-to-end half of the Morton/recursive
// equivalence property (the structural half lives in internal/octree):
// over the full pipeline, both builders must compile equivalent
// interaction lists — identical row sets with identical per-row far and
// near classifications — and produce energies that agree to summation
// noise, with every evaluation re-verified against a fresh compile
// (DebugCheckLists).
func TestBuilderEquivalence(t *testing.T) {
	for _, n := range []int{60, 500} {
		seed := int64(230 + n)
		rec, mol, surf := testSystem(t, n, seed, DefaultParams())
		mor, err := NewSystem(mol, surf, mortonParams())
		if err != nil {
			t.Fatal(err)
		}
		rec.Params.DebugCheckLists = true
		mor.Params.DebugCheckLists = true

		rl, ml := rec.Lists(nil), mor.Lists(nil)
		if err := diffRowSets("born", listRowSets(t, rl.Born), listRowSets(t, ml.Born)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := diffRowSets("epol", listRowSets(t, rl.Epol), listRowSets(t, ml.Epol)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}

		er, err := RunShared(rec, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatalf("n=%d recursive: %v", n, err)
		}
		em, err := RunShared(mor, SharedOptions{Threads: 2})
		if err != nil {
			t.Fatalf("n=%d morton: %v", n, err)
		}
		if relErr(em.Epol, er.Epol) > 1e-12 {
			t.Errorf("n=%d: morton energy %v vs recursive %v (rel err %g)",
				n, em.Epol, er.Epol, relErr(em.Epol, er.Epol))
		}
		if err := mor.RecheckLists(nil); err != nil {
			t.Errorf("n=%d: morton lists diverge from fresh compile: %v", n, err)
		}
	}
}
