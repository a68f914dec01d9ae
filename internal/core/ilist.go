package core

import (
	"fmt"
	"slices"

	"gbpolar/internal/geom"
	"gbpolar/internal/obs"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// This file implements the interaction-list compilation layer: a one-time
// traversal that records, per leaf, exactly which far-field aggregates
// and which near-field leaf pairs the recursive algorithms of Figures 2
// and 3 would evaluate. Production FMM codes (DASHMM, arXiv:1710.06316;
// Multibody Multipole Methods, arXiv:1105.2769) separate list
// construction from kernel evaluation for the same reason this repo does:
// the near–far decomposition depends only on geometry and the opening
// criterion, so it can be built once and swept repeatedly by flat,
// cache-friendly batch kernels (kernels.go) — with zero recursion,
// pointer chasing or opening tests in the steady state.
//
// The lists survive rigid motion: Engine.Repose applies one rigid
// transform to every point and node center, which preserves all pairwise
// distances while node radii are invariant, so every farSeparated verdict
// is unchanged. Docking pose scans therefore pay the traversal cost once
// per complex, not once per pose. Non-rigid changes (UpdateAtomsRepair)
// repair the cache or invalidate it, and parameter changes invalidate it
// (System.InvalidateLists and the signature check in Lists).

// InteractionLists is a compiled traversal over the atoms octree for one
// phase, in CSR form. Row i describes the leaf Rows[i] (in tree Leaves()
// order): Far[FarOff[i]:FarOff[i+1]] holds the atoms-octree nodes whose
// far-field aggregate the leaf interacts with, and
// Near[NearOff[i]:NearOff[i+1]] the atom leaves needing exact pairwise
// evaluation — of each, those its tile does not share (below).
//
// A list is its index — Rows, the offset arrays, Far, Near, Sym, Cede and
// the tile runs: 4 bytes an entry — which is all an evaluation reads,
// and all the incremental repair (ilist_repair.go) reads too: it re-tests
// the nodes an update moved instead of keeping a bound per entry.
type InteractionLists struct {
	Rows    []int32
	FarOff  []int32
	Far     []int32
	NearOff []int32
	Near    []int32
	// Sym holds MUTUAL near leaf pairs, stored once on the lower-indexed
	// row and evaluated with double weight: the per-pair GB terms are
	// bitwise symmetric (r², R_u·R_v and f_GB are commutative in u,v), so
	// one swept block stands for both ordered blocks of the recursion.
	// This halves the dominant near-field work. Pairs the classification
	// reaches in only one direction (the epol ordering can be asymmetric:
	// a leaf U is always exact for row V, while row U may see V's
	// ancestors as far) stay in Near with single weight, as does the
	// diagonal U == V, whose ordered double-count is inherent in the
	// block sweep. Born lists never populate Sym (q-leaf rows against the
	// atoms tree have no transpose).
	SymOff []int32
	Sym    []int32
	// Cede holds the mutual near pairs this row's classification DID
	// reach but symmetrization handed to a lower-indexed row's Sym list.
	// The entries contribute nothing to evaluation (the partner sweeps
	// the pair with double weight); they are recorded so the incremental
	// repair can put a row's full pre-symmetrization near list back
	// together — to tell whether an update changed an entry's class —
	// without scanning every other row's Sym.
	CedeOff []int32
	Cede    []int32
	// The rows are cut into tiles — tile t is the rows [TileOff[t],
	// TileOff[t+1]), at most eight, where listPhase.cutTiles cuts them — and
	// what every row of a tile takes is stored once, for the tile:
	// TileFar[TileFarOff[t]:TileFarOff[t+1]] holds the far nodes every row of
	// tile t takes, in visit order, and TileNear, TileSym and TileCede the
	// near leaves every row takes as Near, as Sym and as Cede (the Born phase
	// shares far nodes alone: its shared near runs are empty). Row i's own
	// runs then hold its remainder: an entry is shared or own within a tile,
	// never both, and merged back on visit order the two are the row the
	// per-row recursion emits.
	TileOff               []int32
	TileFarOff, TileFar   []int32
	TileNearOff, TileNear []int32
	TileSymOff, TileSym   []int32
	TileCedeOff, TileCede []int32
}

// tiles returns the number of tiles of il.
func (il *InteractionLists) tiles() int { return len(il.TileOff) - 1 }

// tileRows returns the rows [lo, hi) of tile t of il.
func (il *InteractionLists) tileRows(t int) (lo, hi int) {
	return int(il.TileOff[t]), int(il.TileOff[t+1])
}

// tileFar returns tile t's shared far run.
func (il *InteractionLists) tileFar(t int) []int32 {
	return il.TileFar[il.TileFarOff[t]:il.TileFarOff[t+1]]
}

// csr is an offset array and the entries it indexes, both by address: run i
// is (*ents)[(*off)[i]:(*off)[i+1]].
type csr struct {
	off, ents *[]int32
}

func (c csr) run(i int) []int32 {
	return (*c.ents)[(*c.off)[i]:(*c.off)[i+1]]
}

// rowCSR returns il's per-row arrays, indexed by class and runFar as a
// laneRuns is.
func (il *InteractionLists) rowCSR() [runFar + 1]csr {
	return [...]csr{kindNear: {&il.NearOff, &il.Near}, kindSym: {&il.SymOff, &il.Sym},
		kindCede: {&il.CedeOff, &il.Cede}, runFar: {&il.FarOff, &il.Far}}
}

// tileCSR returns il's per-tile arrays, indexed the same way.
func (il *InteractionLists) tileCSR() [runFar + 1]csr {
	return [...]csr{kindNear: {&il.TileNearOff, &il.TileNear}, kindSym: {&il.TileSymOff, &il.TileSym},
		kindCede: {&il.TileCedeOff, &il.TileCede}, runFar: {&il.TileFarOff, &il.TileFar}}
}

// arrays returns every CSR pair of il, the rows' and the tiles'.
func (il *InteractionLists) arrays() []csr {
	rows, tiles := il.rowCSR(), il.tileCSR()
	return append(rows[:], tiles[:]...)
}

// rowRuns returns row i's own runs, indexed as a laneRuns is.
func (il *InteractionLists) rowRuns(i int) (runs [runFar + 1][]int32) {
	for r, c := range il.rowCSR() {
		runs[r] = c.run(i)
	}
	return runs
}

// tileRuns returns tile t's shared runs, indexed as a laneRuns is.
func (il *InteractionLists) tileRuns(t int) (runs [runFar + 1][]int32) {
	for r, c := range il.tileCSR() {
		runs[r] = c.run(t)
	}
	return runs
}

// terms counts the (row, entry) terms of run r (a class, or runFar): every
// row's own entries, and a tile's shared ones once for each of its rows.
func (il *InteractionLists) terms(r int) int {
	n, shared := len(*il.rowCSR()[r].ents), il.tileCSR()[r]
	for t := range il.tiles() {
		lo, hi := il.tileRows(t)
		n += len(shared.run(t)) * (hi - lo)
	}
	return n
}

// NumFar returns the total far-field entry count: (row, node) terms, a
// tile's shared node counted once for each of its rows.
func (il *InteractionLists) NumFar() int { return il.terms(runFar) }

// NumNear returns the one-directional near leaf-pair count, (row, leaf)
// terms counted the same way.
func (il *InteractionLists) NumNear() int { return il.terms(kindNear) }

// NumSym returns the mutual near leaf-pair count, each pair on the row
// that sweeps it, counted the same way.
func (il *InteractionLists) NumSym() int { return il.terms(kindSym) }

// MemoryBytes reports the footprint of the list's arrays.
func (il *InteractionLists) MemoryBytes() int64 {
	n := len(il.Rows) + len(il.TileOff)
	for _, c := range il.arrays() {
		n += len(*c.off) + len(*c.ents)
	}
	return int64(n) * 4
}

// CompiledLists bundles the per-phase lists with the opening-criterion
// signature they were compiled under, so parameter changes trigger a
// recompile instead of silently evaluating stale classifications.
type CompiledLists struct {
	// bornMAC and epolFar are the opening multipliers at compile time.
	bornMAC, epolFar float64
	// Born rows are q-point leaves (Figure 2); Epol rows are atom leaves
	// (Figure 3).
	Born, Epol *InteractionLists
}

// matches reports whether the cached lists were compiled under the
// system's current opening criteria.
func (cl *CompiledLists) matches(sys *System) bool {
	return cl != nil && cl.bornMAC == sys.bornMAC() && cl.epolFar == epolFarFactor(sys.Params.EpsEpol)
}

// MemoryBytes reports the footprint of both phases' lists: what a system
// holds for them, compiled or repaired.
func (cl *CompiledLists) MemoryBytes() int64 { return cl.Born.MemoryBytes() + cl.Epol.MemoryBytes() }

// listPhase is one phase's classification problem, shared by the full
// compile and the incremental repair (ilist_repair.go): the row clusters
// are rowTree's leaves in Leaves() order, each classified against the
// atoms octree under the opening multiplier mac. leafFirst selects the
// traversal ordering (see tiler.descend) and says the rows are atom
// leaves, which move under an update; symmetrize moves mutual near leaf
// pairs into the Sym list of the lower-indexed row (valid only when
// rowTree == atoms, i.e. the E_pol phase) and stores the near leaves a
// whole tile takes in one class once. Every phase stores the far nodes a
// whole tile takes once (InteractionLists.TileFar).
type listPhase struct {
	atoms, rowTree *octree.Tree
	mac            float64
	leafFirst      bool
	symmetrize     bool
	// up and rowOf are what the symmetrized phase's mutuality rule and tile
	// cut read of the atoms tree as it stands: the node above every
	// reachable node (octree.NoChild above the root) and the row of every
	// leaf. The Born phase has neither.
	up, rowOf []int32
	// o, when set, receives index's spans and counters, on rank's timeline.
	o    *obs.Obs
	rank int
}

// listPhases returns the Born phase (q-point leaf rows, Figure 2) and the
// E_pol phase (atom leaf rows, Figure 3) under cl's opening criteria, on the
// trees as they stand.
func (s *System) listPhases(cl *CompiledLists) (born, epol listPhase) {
	born = listPhase{atoms: s.Atoms, rowTree: s.QPts, mac: cl.bornMAC}
	epol = listPhase{atoms: s.Atoms, rowTree: s.Atoms, mac: cl.epolFar, leafFirst: true, symmetrize: true,
		up: parentsOf(s.Atoms), rowOf: make([]int32, len(s.Atoms.Nodes))}
	for k, r := range s.Atoms.Leaves() {
		epol.rowOf[r] = int32(k)
	}
	return born, epol
}

// parentsOf returns the node above every node of t reachable from its
// root, octree.NoChild above the root.
func parentsOf(t *octree.Tree) []int32 {
	up := make([]int32, len(t.Nodes))
	var link func(id, parent int32)
	link = func(id, parent int32) {
		up[id] = parent
		if nd := &t.Nodes[id]; !nd.IsLeaf {
			for _, ch := range nd.Children {
				if ch != octree.NoChild {
					link(ch, id)
				}
			}
		}
	}
	link(t.Root(), octree.NoChild)
	return up
}

// cutTiles cuts the phase's rows into tiles and returns their offsets: a
// tile ends after eight rows and, where the phase has parents (up, the
// E_pol phase's), where the next leaf has another parent. The Born tiles
// are thus the aligned eights: a tile of sibling q-point leaves would be
// shorter, and a short tile falls off the far sweep's assembly
// (EXPERIMENTS.md, "One tile form"). The cut reads the rows alone, so a
// compile on any pool, a repair and a decode cut the same tiles.
func (ph *listPhase) cutTiles(rows []int32) []int32 {
	off := make([]int32, 1, (len(rows)+tileLanes-1)/tileLanes+1)
	if ph.up != nil {
		off = make([]int32, 1, len(rows)/2+2)
	}
	for k := 1; k <= len(rows); k++ {
		if k == len(rows) || k-int(off[len(off)-1]) == tileLanes || ph.up != nil && ph.up[rows[k]] != ph.up[rows[k-1]] {
			off = append(off, int32(k))
		}
	}
	return off
}

// listArena collects the entries of one contiguous block of tiles, tile
// after tile: far nodes and near leaves, a run's three near classes one
// after the other (their sum is steady along a chunk and can be estimated;
// their shares are not — the lower row of a mutual pair sweeps it). A
// tile's shared runs come before its rows' own runs: how a tile's entries
// split into shared and own varies from tile to tile, their sum much less.
type listArena struct {
	far, near blocks
}

// appendRuns appends runs to the arena — the far run to its far blocks,
// the near runs to its near blocks — where a is not nil, and records the
// length of each at [i+1] of the offset array of its run in arr.
func (a *listArena) appendRuns(runs *laneRuns, arr *[runFar + 1]csr, i int) {
	for r, run := range runs.runs {
		switch {
		case a == nil:
		case r == runFar:
			a.far.append(run)
		default:
			a.near.append(run)
		}
		(*arr[r].off)[i+1] = int32(len(run))
	}
}

// placeRuns copies runs to run i of every array of arr.
func placeRuns(runs *laneRuns, arr *[runFar + 1]csr, i int) {
	for r, run := range runs.runs {
		copy(arr[r].run(i), run)
	}
}

// takeRuns moves run i of every array of arr out of the arena, in the order
// appendRuns put them in.
func (a *listArena) takeRuns(arr *[runFar + 1]csr, i int) {
	for r, c := range arr {
		if r == runFar {
			a.far.take(c.run(i))
		} else {
			a.near.take(c.run(i))
		}
	}
}

// blocks is an append-only sequence kept in blocks and read back from the
// front. Its first block holds what reserve estimated; past that a block that
// fills up is set aside and a small one started, so an estimate that falls
// short costs a block, not a copy of everything before it — what append's
// doubling would cost, in time and in garbage.
type blocks struct {
	b     [][]int32 // the last one is being filled
	first [1][]int32
}

// reserve starts the first block, with room for n.
func (s *blocks) reserve(n int) {
	s.first[0] = make([]int32, 0, n)
	s.b = s.first[:]
}

// append adds v behind what s holds.
func (s *blocks) append(v []int32) {
	if len(v) == 0 {
		return
	}
	last := &s.b[len(s.b)-1]
	if free := cap(*last) - len(*last); len(v) > free {
		*last = append(*last, v[:free]...)
		v = v[free:]
		held := 0 // the next block is a quarter of what s holds: few blocks, little slack
		for _, b := range s.b {
			held += len(b)
		}
		s.b = append(s.b, make([]int32, 0, max(len(v), held/4, 1024)))
		last = &s.b[len(s.b)-1]
	}
	*last = append(*last, v...)
}

// take moves the first len(dst) elements of s into dst.
func (s *blocks) take(dst []int32) {
	for len(dst) > 0 {
		n := copy(dst, s.b[0])
		dst, s.b[0] = dst[n:], s.b[0][n:]
		if len(s.b[0]) == 0 && len(s.b) > 1 {
			s.b = s.b[1:]
		}
	}
}

// verdict is the phase's ONE opening test: whether a row cluster of the
// given radius takes a node of the given radius, their centers d2 =
// openingDist2 apart, as a far aggregate — farSeparated's test on those
// operands. The repair's re-test of moved nodes asks it, on their old and
// their new geometry; the classification asks openFar8 (ilist_tile.go),
// which is this test on eight lanes — these operands, these operations,
// this order — so the two cannot disagree by a rounding.
func (ph *listPhase) verdict(d2, radius, nodeRadius float64) bool {
	s := (nodeRadius + radius) * ph.mac
	return d2 > s*s
}

// openingDist2 is verdict's squared distance from a row cluster's center to
// a node's.
func openingDist2(center, node geom.Vec3) float64 { return center.Sub(node).Norm2() }

// forRows runs fn over [0, n) in ranges on the pool's workers, or as
// worker 0 over the whole range when pool is nil.
func forRows(pool *sched.Pool, n int, fn func(lo, hi, worker int)) {
	if pool == nil {
		fn(0, n, 0)
		return
	}
	sched.ParallelFor(pool, n, n/(8*pool.NumWorkers())+1, fn)
}

// prefixSum turns per-row counts stored at off[k+1] into CSR offsets and
// returns the total.
func prefixSum(off []int32) int32 {
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	return off[len(off)-1]
}

// classified is what classifyRows leaves behind: the tiles it classified,
// cut into contiguous chunks, each chunk's entries in an arena of its own —
// or none, to be classified again in place — the workers' tilers and what
// the classification cost.
type classified struct {
	ph *listPhase
	// tiles holds the tiles classified, in order.
	tiles  []int32
	chunks int
	arenas []listArena // nil: the entries were counted, not kept
	tilers []*tiler
	stats  tileStats
}

// bound is the first tile (an index into tiles) of chunk c.
func (cr *classified) bound(c int) int { return c * len(cr.tiles) / cr.chunks }

// classifyRows classifies the rows of the tiles of il listed in tiles, a
// tile at a time, each in one shared descent (ilist_tile.go). Nobody knows
// a row's entry counts before classifying it, so the tiles are cut into
// contiguous chunks — a few per worker — and each chunk's entries are
// appended to an arena of its own; each row's counts land at [k+1] of il's
// per-row offset arrays and each tile's shared counts at [t+1] of its
// per-tile ones, for the prefix sums that size the final CSR arrays
// exactly. A worker's tiler and its buffers serve every chunk the worker
// draws. A chunk holds whole tiles, so the tiles — and with them the lists
// — are the same on any pool. Unless keep is set the entries are counted
// and dropped, and fill classifies the tiles again: what the repair does,
// whose arenas would otherwise be most of its garbage.
func (ph *listPhase) classifyRows(il *InteractionLists, tiles []int32, pool *sched.Pool, keep bool) *classified {
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	cr := &classified{ph: ph, tiles: tiles, chunks: listChunksPerWorker * workers, tilers: make([]*tiler, workers)}
	if keep {
		cr.arenas = make([]listArena, cr.chunks)
	}
	cr.forTiles(pool, func(c int, t *tiler, chunk []int32) {
		var a *listArena
		if keep {
			a = &cr.arenas[c]
			ph.reserve(a, t, il, chunk)
		}
		rowArr, tileArr := il.rowCSR(), il.tileCSR()
		for _, tile := range chunk {
			rlo, rhi := il.tileRows(int(tile))
			t.classify(il.Rows, rlo, rhi)
			a.appendRuns(&t.shared, &tileArr, int(tile))
			for k := rlo; k < rhi; k++ {
				a.appendRuns(&t.out[k-rlo], &rowArr, k)
			}
		}
	})
	for _, t := range cr.tilers {
		if t != nil {
			cr.stats.add(t.stats)
		}
	}
	return cr
}

// forTiles runs fn over the chunks of cr on the pool's workers, each with
// the worker's tiler.
func (cr *classified) forTiles(pool *sched.Pool, fn func(c int, t *tiler, chunk []int32)) {
	forRows(pool, cr.chunks, func(lo, hi, w int) {
		for c := lo; c < hi; c++ {
			chunk := cr.tiles[cr.bound(c):cr.bound(c+1)]
			if len(chunk) == 0 {
				continue
			}
			if cr.tilers[w] == nil {
				cr.tilers[w] = newTiler(cr.ph)
			}
			fn(c, cr.tilers[w], chunk)
		}
	})
}

// fill puts the classified tiles' entries in their places in il's arrays,
// sized and offset by now: it moves them from the arenas and lets the
// arenas go, or, the entries not kept, classifies the tiles again.
func (cr *classified) fill(il *InteractionLists, pool *sched.Pool) {
	rowArr, tileArr := il.rowCSR(), il.tileCSR()
	if cr.arenas == nil {
		cr.forTiles(pool, func(_ int, t *tiler, chunk []int32) {
			for _, tile := range chunk {
				rlo, rhi := il.tileRows(int(tile))
				t.classify(il.Rows, rlo, rhi)
				placeRuns(&t.shared, &tileArr, int(tile))
				for k := rlo; k < rhi; k++ {
					placeRuns(&t.out[k-rlo], &rowArr, k)
				}
			}
		})
		return
	}
	forRows(pool, cr.chunks, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			a := &cr.arenas[c]
			for _, t := range cr.tiles[cr.bound(c):cr.bound(c+1)] {
				a.takeRuns(&tileArr, int(t))
				rlo, rhi := il.tileRows(int(t))
				for k := rlo; k < rhi; k++ {
					a.takeRuns(&rowArr, k)
				}
			}
			*a = listArena{} // garbage from here on, not from the end of the call
		}
	})
}

// index compiles the phase's lists: classifyRows over every tile, one
// prefix sum over the per-row and per-tile counts of each array, and the
// chunks copy themselves into place in parallel.
func (ph *listPhase) index(pool *sched.Pool) *InteractionLists {
	il := ph.newLists()
	every := make([]int32, il.tiles())
	for t := range every {
		every[t] = int32(t)
	}
	sp := ph.o.Begin(ph.rank, "ilist", "ilist.compile.classify", obs.NoVirtual)
	cr := ph.classifyRows(il, every, pool, true)
	sp.End(obs.NoVirtual)
	sp = ph.o.Begin(ph.rank, "ilist", "ilist.compile.assemble", obs.NoVirtual)
	ph.alloc(il, pool)
	cr.fill(il, pool)
	sp.End(obs.NoVirtual)
	ph.o.Counter("ilist.compile.tiles").Add(cr.stats.tiles)
	ph.o.Counter("ilist.compile.node_visits").Add(cr.stats.nodeVisits)
	ph.o.Counter("ilist.compile.chain_tests").Add(cr.stats.chainTests)
	return il
}

// listChunksPerWorker is the number of tile chunks classifyRows cuts per
// worker: enough that a worker that drew dense tiles can hand chunks on,
// few enough that the arenas are a few dozen objects.
const listChunksPerWorker = 8

// sampleStride is the number of tiles from one tile reserve classifies to
// the next: a sixteenth of the chunk's tiles at most, and of a small chunk —
// a repair's, whose arena is too small to matter — the first alone.
const sampleStride = 16

// reserve sizes a's first blocks for one chunk — the tiles chunk of il —
// from tiles already classified: it classifies evenly spaced tiles on t,
// counts their entries and scales them to the chunk's rows. A chunk that
// turns out denser than its sample goes on in further blocks; a worst-case
// reservation would be several times the lists.
func (ph *listPhase) reserve(a *listArena, t *tiler, il *InteractionLists, chunk []int32) {
	var far, near, sampled, rows int
	for x, tile := range chunk {
		lo, hi := il.tileRows(int(tile))
		rows += hi - lo
		if x%sampleStride != 0 {
			continue
		}
		t.classify(il.Rows, lo, hi)
		f, n := t.shared.sizes()
		far, near = far+f, near+n
		for l := range hi - lo {
			f, n := t.out[l].sizes()
			far, near = far+f, near+n
		}
		sampled += hi - lo
	}
	size := func(n int) int { return n * rows / sampled }
	a.far.reserve(size(far))
	a.near.reserve(size(near))
}

// newLists returns the phase's lists with their rows, their tile cut and
// zeroed offset arrays.
func (ph *listPhase) newLists() *InteractionLists {
	// The lists own their row ids: rowTree's live leaf slice is rewritten
	// in place by a later tracked update (rebuildLeafList), and an aliased
	// cache would silently renumber.
	rows := append([]int32(nil), ph.rowTree.Leaves()...)
	return blankLists(rows, ph.cutTiles(rows))
}

// blankLists returns lists of rows cut into the tiles tileOff, every offset
// array zero and no entries.
func blankLists(rows, tileOff []int32) *InteractionLists {
	il := &InteractionLists{Rows: rows, TileOff: tileOff}
	rowArr, tileArr := il.rowCSR(), il.tileCSR()
	for r := range rowArr {
		*rowArr[r].off, *tileArr[r].off = make([]int32, len(rows)+1), make([]int32, len(tileOff))
	}
	return il
}

// alloc turns the per-row and per-tile counts in il's offset arrays into
// offsets and allocates the entry arrays to their totals, each on one of
// the pool's workers. A list array is tens of megabytes, and make hands it
// over zeroed: on one goroutine that memclr is a fifth of a compile during
// which every worker sleeps; spread out, each array is also first touched
// by one of the workers that go on to fill it.
func (ph *listPhase) alloc(il *InteractionLists, pool *sched.Pool) {
	arrays := il.arrays()
	forRows(pool, len(arrays), func(lo, hi, _ int) {
		for _, a := range arrays[lo:hi] {
			*a.ents = make([]int32, prefixSum(*a.off))
		}
	})
}

// Classes of a near entry of a symmetrized phase, indexing a row's three
// near runs; an unsymmetrized phase's entries are all kindNear.
const (
	kindNear = iota // one-directional or diagonal: stays in Near
	kindSym         // mutual and this row is the lower-indexed: swept here, with double weight
	kindCede        // mutual and the lower-indexed partner sweeps it
)

// compile builds both phases' lists from the system's current geometry and
// parameters.
func (s *System) compile(pool *sched.Pool) *CompiledLists { return s.compileObserved(pool, nil, 0) }

// compileObserved is compile with its spans "ilist.compile.{classify,
// assemble}" per phase, on rank's timeline, and the counters
// "ilist.compile.{tiles,node_visits,chain_tests}" sent to o (may be nil).
func (s *System) compileObserved(pool *sched.Pool, o *obs.Obs, rank int) *CompiledLists {
	cl := &CompiledLists{bornMAC: s.bornMAC(), epolFar: epolFarFactor(s.Params.EpsEpol)}
	born, epol := s.listPhases(cl)
	born.o, born.rank, epol.o, epol.rank = o, rank, o, rank
	cl.Born = born.index(pool)
	cl.Epol = epol.index(pool)
	return cl
}

// runNames names a laneRuns' runs in counters and messages.
var runNames = [runFar + 1]string{kindNear: "near", kindSym: "sym", kindCede: "cede", runFar: "far"}

// RecordMetrics publishes the lists' static structure to the observer:
// total row/near/far/sym entry counts per phase plus per-row batch-size
// histograms (the sizes the SoA batch kernels sweep), and what the lists
// hold in bytes — the gauge mem.lists.index_bytes, in total and as
// mem.lists.{born,epol}.index_bytes per phase. far_entries, near_pairs and
// sym_pairs count (row, entry) terms, and a row's histograms take its
// tile's shared runs with its own; what a phase stores once a tile it also
// counts as stored, per run: {near,sym,cede,far}_shared (one per tile) and
// _own. Everything here is derivable from the compiled lists alone, so the
// hot loops in kernels.go carry no instrumentation at all — the counts are
// recorded once per run, off the critical path. No-op when o is nil.
func (cl *CompiledLists) RecordMetrics(o *obs.Obs) {
	if cl == nil || o == nil {
		return
	}
	rec := func(phase string, il *InteractionLists) {
		prefix := "ilist." + phase
		o.Counter(prefix + ".rows").Add(int64(len(il.Rows)))
		o.Counter(prefix + ".far_entries").Add(int64(il.NumFar()))
		o.Counter(prefix + ".near_pairs").Add(int64(il.NumNear()))
		o.Counter(prefix + ".sym_pairs").Add(int64(il.NumSym()))
		rowArr, tileArr := il.rowCSR(), il.tileCSR()
		for r, name := range runNames {
			o.Counter(prefix + "." + name + "_shared").Add(int64(len(*tileArr[r].ents)))
			o.Counter(prefix + "." + name + "_own").Add(int64(len(*rowArr[r].ents)))
		}
		rowFar := o.Histogram(prefix + ".row_far")
		rowNear := o.Histogram(prefix + ".row_near")
		for t := range il.tiles() {
			shared := il.tileRuns(t)
			lo, hi := il.tileRows(t)
			for i := lo; i < hi; i++ {
				own := il.rowRuns(i)
				rowFar.Observe(int64(len(own[runFar]) + len(shared[runFar])))
				rowNear.Observe(int64(len(own[kindNear]) + len(own[kindSym]) + len(shared[kindNear]) + len(shared[kindSym])))
			}
		}
		o.Gauge("mem.lists." + phase + ".index_bytes").Set(float64(il.MemoryBytes()))
	}
	rec("born", cl.Born)
	rec("epol", cl.Epol)
	o.Gauge("mem.lists.index_bytes").Set(float64(cl.MemoryBytes()))
}

// Lists returns the system's compiled interaction lists, building them on
// first use (or after invalidation / parameter change) with the given
// pool (nil compiles serially). Safe for concurrent use: distributed
// ranks sharing the System compile once and reuse.
func (s *System) Lists(pool *sched.Pool) *CompiledLists { return s.ListsObserved(pool, nil, 0) }

// ListsObserved is Lists with a compile, when there is one, reporting to o
// (may be nil) on rank's timeline (compileObserved).
func (s *System) ListsObserved(pool *sched.Pool, o *obs.Obs, rank int) *CompiledLists {
	s.listsMu.Lock()
	defer s.listsMu.Unlock()
	if !s.lists.matches(s) {
		s.lists = s.compileObserved(pool, o, rank)
	}
	return s.lists
}

// RecheckLists recompiles the interaction lists from the current geometry
// and verifies the cached ones are identical — the debug recheck backing
// the rigid-transform reuse invariant. With no cached lists it is a
// no-op. It returns a descriptive error on the first divergence.
func (s *System) RecheckLists(pool *sched.Pool) error {
	// The lane-padding invariant of the SoA arrays is part of the same
	// "nothing drifted" contract the list recheck guards.
	if err := s.checkSoAPadding(); err != nil {
		return err
	}
	s.listsMu.Lock()
	cached := s.lists
	s.listsMu.Unlock()
	if cached == nil {
		return nil
	}
	if !cached.matches(s) {
		return fmt.Errorf("core: cached lists compiled under bornMAC=%g epolFar=%g, system now wants %g/%g",
			cached.bornMAC, cached.epolFar, s.bornMAC(), epolFarFactor(s.Params.EpsEpol))
	}
	fresh := s.compile(pool)
	if err := diffLists("born", cached.Born, fresh.Born); err != nil {
		return err
	}
	return diffLists("epol", cached.Epol, fresh.Epol)
}

// diffLists reports the first divergence between two compiled lists: in a
// row's own runs, in the tile cut or in a tile's shared runs.
func diffLists(phase string, a, b *InteractionLists) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("core: %s lists row count drifted: %d -> %d", phase, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Errorf("core: %s list row %d leaf drifted: %d -> %d", phase, i, a.Rows[i], b.Rows[i])
		}
		ar, br := a.rowRuns(i), b.rowRuns(i)
		for r := range ar {
			if !slices.Equal(ar[r], br[r]) {
				return fmt.Errorf("core: %s list row %d (leaf %d) %s set drifted: %d -> %d entries",
					phase, i, a.Rows[i], runNames[r], len(ar[r]), len(br[r]))
			}
		}
	}
	if !slices.Equal(a.TileOff, b.TileOff) {
		return fmt.Errorf("core: %s lists disagree on their tiles", phase)
	}
	for t := range a.tiles() {
		ar, br := a.tileRuns(t), b.tileRuns(t)
		for r := range ar {
			if !slices.Equal(ar[r], br[r]) {
				return fmt.Errorf("core: %s list tile %d shared %s run drifted: %d -> %d entries",
					phase, t, runNames[r], len(ar[r]), len(br[r]))
			}
		}
	}
	return nil
}
