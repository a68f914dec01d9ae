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
// byte. What every lane of a tile takes — a far node, or in the E_pol phase
// a near leaf of one class — is stored once, for the tile
// (InteractionLists.TileFar and its kin): each row's run is then its own
// remainder, and the two merged back on visit order are the recursion's
// row.

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
// mutual pair or not.
func nearKind(k, j int32, mutual bool) int {
	switch {
	case j == k || !mutual:
		return kindNear // the diagonal, or one-way: row j stops above row k's leaf
	case j > k:
		return kindSym
	}
	return kindCede
}

// laneRuns collects one row's entries in the order its descent emits them —
// near leaves by class and far nodes (runs[runFar]) — or a tile's shared
// ones.
type laneRuns struct {
	runs [runFar + 1][]int32
}

// runFar indexes a lane's far run, behind its three near runs.
const runFar = kindCede + 1

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
		lr.runs[r] = lr.runs[r][:0]
	}
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
// chunk to chunk: the tile, its rows' buffers and their ancestor chain.
type tiler struct {
	ph   *listPhase
	rows rowTile
	// row holds the lanes' positions in the lists' Rows, and full the mask
	// of the tile's lanes.
	row  [tileLanes]int32
	full uint8
	out  [tileLanes]laneRuns
	// shared collects what every lane takes, stored once for the tile: the
	// far nodes, and in a symmetrized phase the near leaves every lane takes
	// in one class.
	shared laneRuns
	// renamed, stamp and round are the repair's (listRepair.rename).
	renamed []uint64
	stamp   []int32
	round   int32
	// chain holds the strict ancestors the tile's leaves share (symmetrized
	// phase only): the tile is cut where the parent changes, so whether a
	// near leaf's row reaches back is decided once for all its lanes.
	chain []rowTile
	stats tileStats
}

// laneCap is the capacity a lane's buffers start with: most rows' runs at
// the ledger's sizes; a longer run grows its buffer once, for good.
const laneCap = 512

func newTiler(ph *listPhase) *tiler {
	t := &tiler{ph: ph, chain: make([]rowTile, 0, chainBlocks)}
	// One slab for all of the worker's buffers, so that its objects do not
	// scale with anything.
	slab := make([]int32, (tileLanes+1)*(runFar+1)*laneCap)
	for l := 0; l <= tileLanes; l++ {
		lr := &t.shared
		if l < tileLanes {
			lr = &t.out[l]
		}
		for r := range lr.runs {
			lr.runs[r], slab = slab[:0:laneCap], slab[laneCap:]
		}
	}
	return t
}

// classify classifies tile x of il — up to eight rows, in a symmetrized
// phase children of one node — in one descent from the root, into the
// lanes' buffers and the tile's shared runs.
func (t *tiler) classify(il *InteractionLists, x int) {
	ph := t.ph
	lo, hi := il.tileRows(x)
	for l := range hi - lo {
		rn := &ph.rowTree.Nodes[il.Rows[lo+l]]
		t.rows.set(l, rn.Center, rn.Radius)
		t.row[l] = int32(lo + l)
		t.out[l].reset()
	}
	t.shared.reset()
	if ph.symmetrize {
		t.chain = ph.ancestors(t.chain[:0], il.Rows[lo])
	}
	t.full = uint8(uint(1)<<(hi-lo) - 1)
	t.stats.tiles++
	t.stats.lanes += int64(hi - lo)
	t.descend(ph.atoms.Root(), t.full)
}

// count records the classified tile's run lengths in il's offset arrays:
// its shared runs' at [x+1] of the per-tile ones, each row k's own at [k+1]
// of the per-row ones, for the prefix sums.
func (t *tiler) count(il *InteractionLists, x int) {
	tileArr, rowArr := il.tileCSR(), il.rowCSR()
	for r := range tileArr {
		(*tileArr[r].off)[x+1] = int32(len(t.shared.runs[r]))
		for l := range bits.Len8(t.full) {
			(*rowArr[r].off)[int(t.row[l])+1] = int32(len(t.out[l].runs[r]))
		}
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
	if far == t.full {
		// The whole tile takes the node: once, for every lane.
		t.shared.runs[runFar] = append(t.shared.runs[runFar], n)
	} else {
		for m := far; m != 0; m &= m - 1 {
			out := &t.out[bits.TrailingZeros8(m)]
			out.runs[runFar] = append(out.runs[runFar], n)
		}
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
// tile's leaves, one test against the ancestors they share. The lanes' rows
// ascend, and their classes with them — Sym below u's row, Near at it, Cede
// above — so when every lane is open and the first and the last lane's
// classes agree, every lane's does, and u goes once to the tile's shared
// run of that class.
func (t *tiler) near(u int32, open uint8) {
	var j int32
	mutual := false
	if t.ph.symmetrize {
		t.stats.chainTests++
		j, mutual = t.ph.rowOf[u], t.ph.reaches(t.chain, u)
		if kd := nearKind(t.row[0], j, mutual); open == t.full && kd == nearKind(t.row[bits.Len8(t.full)-1], j, mutual) {
			t.shared.runs[kd] = append(t.shared.runs[kd], u)
			return
		}
	}
	for m := open; m != 0; m &= m - 1 {
		l := bits.TrailingZeros8(m)
		kd := nearKind(t.row[l], j, mutual)
		t.out[l].runs[kd] = append(t.out[l].runs[kd], u)
	}
}
