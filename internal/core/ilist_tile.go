package core

import (
	"math/bits"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// This file is the classification itself: the rows of a list are classified
// eight at a time, in the lanes of one shared descent of the atoms tree.
// Consecutive leaf rows are siblings, so their descents visit almost the
// same nodes; a tile carries their centers and radii in SoA lanes, the
// descent carries a mask of the lanes still open, and every node costs one
// opening test of eight lanes (openFar8) instead of one per row. A row's
// entries still come out in the order its own descent would emit them —
// the shared descent is the same pre-order, a lane simply sits out the
// subtrees it closed — so the lists are the per-row recursion's, byte for
// byte. An entry the descent admits goes to the tile once, with the mask of
// the lanes that take it: what every lane takes — a far node, or in the E_pol
// phase a near leaf of one class — to the tile's shared runs
// (InteractionLists.TileFar and its kin), the rest to its own runs beside
// their masks (InteractionLists.OwnFar and its kin); a row's own entries and
// the shared ones merged back on visit order are the recursion's row, but
// for the mutual pairs it leaves to a lower row (tiler.near).

// tileLanes is the number of clusters a rowTile holds: two YMM registers of
// float64.
const tileLanes = 8

// rowTile is up to eight clusters — the rows of one shared descent, or
// eight ancestors of a leaf — in SoA lanes, the operand of openFar8.
type rowTile struct {
	x, y, z, r [tileLanes]float64
}

func (t *rowTile) set(lane int, c geom.Vec3, r float64) {
	t.x[lane], t.y[lane], t.z[lane], t.r[lane] = c.X, c.Y, c.Z, r
}

// openFar8Lanes is the opening test of one cluster (center c, radius r)
// against the eight lanes of t under the multiplier mac: bit i of the result
// is set iff lane i and the cluster are far apart. It is listPhase.verdict's
// test on openingDist2's operand, operation for operation and in their order —
// d² = (dx·dx + dy·dy) + dz·dz, s = (r + r_lane)·mac, far iff d² > s·s,
// nothing fused — so no lane can disagree with the scalar test by a
// rounding; the assembly openFar8 dispatches to (simd_amd64.s) is the same
// sequence on two vectors. Which of the two clusters is the row and which
// the node does not matter: the difference is squared and the sum
// commutes.
func openFar8Lanes(t *rowTile, cx, cy, cz, r, mac float64) (far uint8) {
	for i := range t.x {
		dx, dy, dz := t.x[i]-cx, t.y[i]-cy, t.z[i]-cz
		s := (r + t.r[i]) * mac
		if dx*dx+dy*dy+dz*dz > s*s {
			far |= 1 << i
		}
	}
	return far
}

// chainBlocks is the number of tiles a leaf's ancestors fill at most in a
// Morton tree, which splits no deeper than its keys have digits: what a
// chain's buffer starts with.
const chainBlocks = (geom.MortonBits + tileLanes) / tileLanes

// ancestors appends to chain the strict ancestors of leaf v, nearest first
// — the smaller a cluster, the likelier it is far, and one far ancestor
// settles a pair — eight to a tile; the lanes left over in the last tile
// repeat the root, so they say what it says.
func (ph *listPhase) ancestors(chain []rowTile, v int32) []rowTile {
	n := 0
	var nd *octree.Node
	for a := ph.up[v]; a != octree.NoChild; a = ph.up[a] {
		if n%tileLanes == 0 {
			chain = append(chain, rowTile{})
		}
		nd = &ph.atoms.Nodes[a]
		chain[len(chain)-1].set(n%tileLanes, nd.Center, nd.Radius)
		n++
	}
	for ; n%tileLanes != 0; n++ {
		chain[len(chain)-1].set(n%tileLanes, nd.Center, nd.Radius)
	}
	return chain
}

// admit is the phase's opening test on eight lanes: which lanes of open take
// the cluster (center c, radius r) as a far aggregate — or, t holding nodes,
// which of them the cluster takes.
func (ph *listPhase) admit(t *rowTile, c geom.Vec3, r float64, open uint8) uint8 {
	return openFar8(t, c.X, c.Y, c.Z, r, ph.mac) & open
}

// reaches reports whether row u's descent reaches the leaves below chain —
// the strict ancestors they share (ancestors) — as near leaves: iff it takes
// none of those ancestors as a far aggregate. A near entry u of such a
// leaf's row is mutual exactly then.
func (ph *listPhase) reaches(chain []rowTile, u int32) bool {
	un := &ph.atoms.Nodes[u]
	for b := range chain {
		if ph.admit(&chain[b], un.Center, un.Radius, 1<<tileLanes-1) != 0 {
			return false
		}
	}
	return true
}

// nearKind is the class of row k's near entry naming row j's leaf, a
// mutual pair or not, and whether row k stores it: the higher row of a
// mutual pair does not, as its lower row sweeps the pair from its Sym run.
func nearKind(k, j int32, mutual bool) (kind int, stored bool) {
	switch {
	case j == k || !mutual:
		return kindNear, true // the diagonal, or one-way: row j stops above row k's leaf
	case j > k:
		return kindSym, true
	}
	return kindSym, false
}

// laneRuns collects a tile's entries in the order its descent emits them —
// near leaves by class and far nodes (runs[runFar]) — its shared ones, or
// its own ones beside their lane masks (masks[r][k] is runs[r][k]'s; a
// shared laneRuns has none).
type laneRuns struct {
	runs  [runFar + 1][]int32
	masks [runFar + 1][]uint8
}

// runFar indexes a lane's far run, behind its two near runs.
const runFar = kindSym + 1

// sizes counts the far entries and the near ones of runs.
func sizes(runs *[runFar + 1][]int32) (far, near int) {
	for r, run := range runs {
		if r == runFar {
			far += len(run)
		} else {
			near += len(run)
		}
	}
	return far, near
}

// reset empties lr's runs, keeping their buffers.
func (lr *laneRuns) reset() {
	for r := range lr.runs {
		lr.runs[r], lr.masks[r] = lr.runs[r][:0], lr.masks[r][:0]
	}
}

// add appends entry u, taken by the lanes of mask, to run r.
func (lr *laneRuns) add(r int, u int32, mask uint8) {
	lr.runs[r] = append(lr.runs[r], u)
	lr.masks[r] = append(lr.masks[r], mask)
}

// tileStats counts what classifying cost: shared descents, their lanes, the
// nodes they visited, and near leaves tested against a tile's ancestors.
type tileStats struct{ tiles, lanes, nodeVisits, chainTests int64 }

func (s *tileStats) add(o tileStats) {
	s.tiles += o.tiles
	s.lanes += o.lanes
	s.nodeVisits += o.nodeVisits
	s.chainTests += o.chainTests
}

// tiler is one worker's classification state, reused from tile to tile and
// chunk to chunk: the tile, its runs' buffers and their ancestor chain.
type tiler struct {
	ph   *listPhase
	rows rowTile
	// row holds the lanes' positions in the lists' Rows, and full the mask
	// of the tile's lanes.
	row  [tileLanes]int32
	full uint8
	// shared collects what every lane takes: the far nodes, and in a
	// symmetrized phase the near leaves every lane takes in one class; own
	// the rest, each entry once beside the mask of the lanes that take it.
	shared, own laneRuns
	// delta and renamed are the repair's (listRepair.keep and place).
	delta   []int32
	renamed []uint64
	// chain holds the strict ancestors the tile's leaves share (symmetrized
	// phase only): the tile is cut where the parent changes, so whether a
	// near leaf's row reaches back is decided once for all its lanes.
	chain []rowTile
	stats tileStats
}

// runCap is the capacity a tile's run buffers start with: most tiles' runs
// at the ledger's sizes; a longer run grows its buffer once, for good.
const runCap = 512

func newTiler(ph *listPhase) *tiler {
	t := &tiler{ph: ph, chain: make([]rowTile, 0, chainBlocks)}
	// One slab for the entries of all of the worker's buffers and one for
	// their masks, so that its objects do not scale with anything.
	slab, masks := make([]int32, 4*(runFar+1)*runCap), make([]uint8, (runFar+1)*runCap)
	for r := range t.own.runs {
		t.shared.runs[r], t.own.runs[r], slab = slab[:0:runCap], slab[runCap:2*runCap:2*runCap], slab[2*runCap:]
		t.own.masks[r], masks = masks[:0:runCap], masks[runCap:]
	}
	t.delta = slab[:0]
	return t
}

// classify classifies tile x of il — up to eight rows, in a symmetrized
// phase children of one node — in one descent from the root, into the
// tile's shared and own runs.
func (t *tiler) classify(il *InteractionLists, x int) {
	ph := t.ph
	lo, hi := il.tileRows(x)
	for l := range hi - lo {
		rn := &ph.rowTree.Nodes[il.Rows[lo+l]]
		t.rows.set(l, rn.Center, rn.Radius)
		t.row[l] = int32(lo + l)
	}
	t.shared.reset()
	t.own.reset()
	if ph.symmetrize {
		t.chain = ph.ancestors(t.chain[:0], il.Rows[lo])
	}
	t.full = uint8(uint(1)<<(hi-lo) - 1)
	t.stats.tiles++
	t.stats.lanes += int64(hi - lo)
	t.descend(ph.atoms.Root(), t.full)
}

// count records the classified tile's run lengths at [x+1] of il's offset
// arrays, for the prefix sums.
func (t *tiler) count(il *InteractionLists, x int) {
	tileArr, ownArr := il.tileCSR(), il.ownCSR()
	for r := range tileArr {
		(*tileArr[r].off)[x+1] = int32(len(t.shared.runs[r]))
		(*ownArr[r].off)[x+1] = int32(len(t.own.runs[r]))
	}
}

// descend classifies the subtree of node n for the lanes of open. It
// mirrors the recursive kernels exactly — including their one structural
// difference: APPROX-EPOL tests u.IsLeaf BEFORE the opening test (a leaf U
// is always evaluated exactly), while APPROX-INTEGRALS tests openness first
// (a far leaf uses the pseudo-q-point shortcut).
func (t *tiler) descend(n int32, open uint8) {
	t.stats.nodeVisits++
	ph := t.ph
	node := &ph.atoms.Nodes[n]
	if ph.leafFirst && node.IsLeaf {
		t.near(n, open)
		return
	}
	far := ph.admit(&t.rows, node.Center, node.Radius, open)
	switch far {
	case 0:
	case t.full:
		// The whole tile takes the node: once, for every lane.
		t.shared.runs[runFar] = append(t.shared.runs[runFar], n)
	default:
		t.own.add(runFar, n, far)
	}
	open &^= far
	switch {
	case open == 0:
	case node.IsLeaf:
		t.near(n, open)
	default:
		for _, child := range node.Children {
			if child != octree.NoChild {
				t.descend(child, open)
			}
		}
	}
}

// near records leaf u as a near entry of the lanes of open, in a
// symmetrized phase by class: the pair is mutual iff row u reaches the
// tile's leaves, one test against the ancestors they share, and the lanes
// above row u's leave a mutual pair to it. u goes to the tile once a class,
// beside the mask of the lanes that take it in that class; in a symmetrized
// phase, a class every lane takes u in is the tile's shared run of that
// class.
func (t *tiler) near(u int32, open uint8) {
	if !t.ph.symmetrize {
		t.own.add(kindNear, u, open)
		return
	}
	t.stats.chainTests++
	j, mutual := t.ph.rowOf[u], t.ph.reaches(t.chain, u)
	var by [runFar]uint8 // the lanes of open, by class
	for m := open; m != 0; m &= m - 1 {
		l := bits.TrailingZeros8(m)
		if kd, stored := nearKind(t.row[l], j, mutual); stored {
			by[kd] |= 1 << l
		}
	}
	for kd, m := range by {
		switch m {
		case 0:
		case t.full:
			t.shared.runs[kd] = append(t.shared.runs[kd], u)
		default:
			t.own.add(kd, u, m)
		}
	}
}
