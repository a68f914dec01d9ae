package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
// phase. Row i describes the leaf Rows[i] (in tree Leaves() order): the
// atoms-octree nodes whose far-field aggregate the leaf interacts with (its
// far run) and the atom leaves needing exact pairwise evaluation (its near
// runs, by class below).
//
// The rows are cut into tiles — tile t is the rows [TileOff[t],
// TileOff[t+1]), at most eight, where listPhase.cutTiles cuts them — and a
// tile stores each entry its rows take once. What every row of the tile
// takes goes to its shared runs: TileFar[TileFarOff[t]:TileFarOff[t+1]]
// holds the far nodes every row of tile t takes, in visit order, and
// TileNear and TileSym the near leaves every row takes as Near and as Sym
// (the Born phase shares far nodes alone: its shared near runs are empty).
// What some of its rows take goes to its own runs, one a class:
// OwnFar[OwnFarOff[t]:OwnFarOff[t+1]] holds tile t's other far nodes, each
// once, in visit order, beside a lane mask in OwnFarMask — bit l set means
// row TileOff[t]+l takes the node — and OwnNear and OwnSym the other near
// leaves alike. A mask is never 0, has no bit past the tile's rows and is
// never the tile's full mask where the phase shares (every own run but the
// Born phase's near one); an entry is in one run of a tile and class at
// most. Row l's run of a kind is then the shared run and the own run's
// entries whose mask has bit l, merged on visit order: what the per-row
// recursion emits, but the mutual pairs it leaves to their lower row.
//
// The near classes: Sym holds MUTUAL near leaf pairs, stored once on the
// lower-indexed row and evaluated with double weight — the per-pair GB
// terms are bitwise symmetric (r², R_u·R_v and f_GB are commutative in u,v),
// so one swept block stands for both ordered blocks of the recursion, which
// halves the dominant near-field work. The higher-indexed row of such a pair
// stores nothing of it: no sweep would read it. Pairs the classification
// reaches in only one direction (the epol ordering can be asymmetric: a leaf
// U is always exact for row V, while row U may see V's ancestors as far) stay
// in Near with single weight, as does the diagonal U == V, whose ordered
// double-count is inherent in the block sweep. Born lists hold Near alone
// (q-leaf rows against the atoms tree have no transpose).
//
// A list is its index — Rows, the tile cut, the offset arrays, the entries
// and their masks: 4 bytes a shared entry, 5 an own one — which is all an
// evaluation reads, and all the incremental repair (ilist_repair.go) reads
// too: it re-tests the nodes an update moved instead of keeping a bound per
// entry, and re-decides a mutual pair from the tree, not from a stored
// mirror of it.
type InteractionLists struct {
	Rows                  []int32
	TileOff               []int32
	TileFarOff, TileFar   []int32
	TileNearOff, TileNear []int32
	TileSymOff, TileSym   []int32
	OwnFarOff, OwnFar     []int32
	OwnFarMask            []uint8
	OwnNearOff, OwnNear   []int32
	OwnNearMask           []uint8
	OwnSymOff, OwnSym     []int32
	OwnSymMask            []uint8
}

// tiles returns the number of tiles of il.
func (il *InteractionLists) tiles() int { return len(il.TileOff) - 1 }

// tileRows returns the rows [lo, hi) of tile t of il.
func (il *InteractionLists) tileRows(t int) (lo, hi int) {
	return int(il.TileOff[t]), int(il.TileOff[t+1])
}

// csr is an offset array and the entries it indexes, both by address: run i
// is (*ents)[(*off)[i]:(*off)[i+1]], and of an own run's CSR (*masks) holds
// the entries' lane masks, nil of a shared run's.
type csr struct {
	off, ents *[]int32
	masks     *[]uint8
}

func (c csr) run(i int) []int32 {
	return (*c.ents)[(*c.off)[i]:(*c.off)[i+1]]
}

// runMasks returns the lane masks of own run i.
func (c csr) runMasks(i int) []uint8 {
	return (*c.masks)[(*c.off)[i]:(*c.off)[i+1]]
}

// ownCSR returns il's own-run arrays, indexed by class and runFar as a
// laneRuns is.
func (il *InteractionLists) ownCSR() [runFar + 1]csr {
	return [...]csr{kindNear: {&il.OwnNearOff, &il.OwnNear, &il.OwnNearMask},
		kindSym: {&il.OwnSymOff, &il.OwnSym, &il.OwnSymMask}, runFar: {&il.OwnFarOff, &il.OwnFar, &il.OwnFarMask}}
}

// tileCSR returns il's shared-run arrays, indexed the same way.
func (il *InteractionLists) tileCSR() [runFar + 1]csr {
	return [...]csr{kindNear: {&il.TileNearOff, &il.TileNear, nil}, kindSym: {&il.TileSymOff, &il.TileSym, nil},
		runFar: {&il.TileFarOff, &il.TileFar, nil}}
}

// arrays returns every CSR of il, the own runs' and the shared ones'.
func (il *InteractionLists) arrays() []csr {
	own, tiles := il.ownCSR(), il.tileCSR()
	return append(own[:], tiles[:]...)
}

// ownRuns returns tile t's own runs and their lane masks, indexed as a
// laneRuns is.
func (il *InteractionLists) ownRuns(t int) (runs laneRuns) {
	for r, c := range il.ownCSR() {
		runs.runs[r], runs.masks[r] = c.run(t), c.runMasks(t)
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

// laneRun appends to dst the entries of the own run ents whose lane mask
// (masks) has bit l: lane l's share of it, in its order.
func laneRun(dst, ents []int32, masks []uint8, l int) []int32 {
	for k, m := range masks {
		if m>>l&1 != 0 {
			dst = append(dst, ents[k])
		}
	}
	return dst
}

// popcount returns the number of bits set in masks: the (row, entry) terms
// an own run stands for.
func popcount(masks []uint8) (n int) {
	for ; len(masks) >= 8; masks = masks[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(masks))
	}
	for _, m := range masks {
		n += bits.OnesCount8(m)
	}
	return n
}

// terms counts the (row, entry) terms of run r (a class, or runFar): an own
// entry once for each row its mask names, a shared one once for each row of
// its tile.
func (il *InteractionLists) terms(r int) int {
	n, shared := popcount(*il.ownCSR()[r].masks), il.tileCSR()[r]
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

// MemoryBytes reports the footprint of the list's arrays (memory).
func (il *InteractionLists) MemoryBytes() int64 {
	entries, masks, offsets := il.memory()
	return entries + masks + offsets
}

// memory returns what il's arrays hold, in bytes: the entries of every run,
// the own runs' lane masks, and the rows, the tile cut and every offset
// array.
func (il *InteractionLists) memory() (entries, masks, offsets int64) {
	offsets = int64(len(il.Rows)+len(il.TileOff)) * 4
	for _, c := range il.arrays() {
		offsets += int64(len(*c.off)) * 4
		entries += int64(len(*c.ents)) * 4
		if c.masks != nil {
			masks += int64(len(*c.masks))
		}
	}
	return entries, masks, offsets
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

	// costMu guards cost and epolNear: the Born (phaseBorn) and the E_pol
	// phase's (phaseEpol) tile costs, and the E_pol tiles' nearExtents,
	// each phase's learned in one pass over its lists (scanTiles) when two
	// or more ranks first divide its tiles (unitCosts), or by the decode
	// that validated them.
	costMu   sync.Mutex
	cost     [2][]int64
	epolNear nearExtents
}

// The phases' indices in CompiledLists.cost.
const (
	phaseBorn = iota
	phaseEpol
)

// unitCosts returns the cumulative estimated costs of phase ph's tiles
// (listScan), pricing them on first use. It reads only that phase's side
// of sys: a worker's system, which holds no surface side, asks for E_pol's.
func (cl *CompiledLists) unitCosts(sys *System, ph int) costs {
	cl.costMu.Lock()
	defer cl.costMu.Unlock()
	cl.scan(sys, ph)
	return cl.cost[ph]
}

// epolExtents returns the E_pol tiles' nearExtents and true if the pass
// that prices the tiles has measured them (unitCosts, or the decode), and
// false otherwise: a run of one rank never prices them, and counting every
// run for the scratch alone would cost a trajectory step, whose lists are
// new every step, more than the scratch it saves.
func (cl *CompiledLists) epolExtents() (nearExtents, bool) {
	cl.costMu.Lock()
	defer cl.costMu.Unlock()
	return cl.epolNear, cl.cost[phaseEpol] != nil
}

// scan makes phase ph's listScan, once; the caller holds costMu.
func (cl *CompiledLists) scan(sys *System, ph int) {
	if cl.cost[ph] != nil {
		return
	}
	if ph == phaseBorn {
		s, _ := scanTiles("", cl.Born, sys.QPts, sys.Atoms, false)
		cl.cost[ph] = s.cost
		return
	}
	s, _ := scanTiles("", cl.Epol, sys.Atoms, sys.Atoms, false)
	cl.cost[ph], cl.epolNear = s.cost, s.near
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
// after tile: far nodes and near leaves, a run's two near classes one
// after the other (their sum is steady along a chunk and can be estimated;
// their shares are not — the lower row of a mutual pair sweeps it), and the
// own runs' lane masks, far and near, in their order. A tile's shared runs
// come before its own runs: how a tile's entries split into shared and own
// varies from tile to tile, their sum much less.
type listArena struct {
	far, near blocks[int32]
	masks     blocks[uint8]
}

// appendRuns appends lr to the arena: the far run to its far blocks, the
// near runs to its near blocks, and an own run's masks to its mask blocks.
func (a *listArena) appendRuns(lr *laneRuns) {
	for r, run := range lr.runs {
		if r == runFar {
			a.far.append(run)
		} else {
			a.near.append(run)
		}
		a.masks.append(lr.masks[r])
	}
}

// takeRuns fills runs — and masks, for own runs — from the arena, each run as
// long as it is, in the order appendRuns put them in.
func (a *listArena) takeRuns(runs *[runFar + 1][]int32, masks *[runFar + 1][]uint8) {
	for r, run := range runs {
		if r == runFar {
			a.far.take(run)
		} else {
			a.near.take(run)
		}
		if masks != nil {
			a.masks.take(masks[r])
		}
	}
}

// reserve starts the arena's first blocks, with room for far and near
// entries, own masks among them.
func (a *listArena) reserve(far, near, masks int) {
	a.far.reserve(far)
	a.near.reserve(near)
	a.masks.reserve(masks)
}

// take moves tile x's runs from a into their places in il.
func (il *InteractionLists) take(a *listArena, x int) {
	shared, own := il.tileRuns(x), il.ownRuns(x)
	a.takeRuns(&shared, nil)
	a.takeRuns(&own.runs, &own.masks)
}

// blocks is an append-only sequence kept in blocks and read back from the
// front. Its first block holds what reserve estimated; past that a block that
// fills up is set aside and a small one started, so an estimate that falls
// short costs a block, not a copy of everything before it — what append's
// doubling would cost, in time and in garbage.
type blocks[T int32 | uint8] struct {
	b     [][]T // the last one is being filled
	first [1][]T
}

// reserve starts the first block, with room for n.
func (s *blocks[T]) reserve(n int) {
	s.first[0] = make([]T, 0, n)
	s.b = s.first[:]
}

// append adds v behind what s holds.
func (s *blocks[T]) append(v []T) {
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
		s.b = append(s.b, make([]T, 0, max(len(v), held/4, 1024)))
		last = &s.b[len(s.b)-1]
	}
	*last = append(*last, v...)
}

// take moves the first len(dst) elements of s into dst.
func (s *blocks[T]) take(dst []T) {
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
// cut into contiguous chunks, each chunk's entries in an arena of its own,
// the workers' tilers and what the classification cost.
type classified struct {
	ph *listPhase
	// tiles holds the tiles classified, in order.
	tiles  []int32
	chunks int
	arenas []listArena
	tilers []*tiler
	stats  tileStats
}

// bound is the first tile (an index into tiles) of chunk c.
func (cr *classified) bound(c int) int { return c * len(cr.tiles) / cr.chunks }

// classifyRows classifies the tiles of il listed in tiles, each in one
// shared descent (ilist_tile.go), and hands each to keep, which appends what
// it keeps of it to its chunk's arena. Nobody knows a tile's entry counts
// before classifying it, so the tiles are cut into contiguous chunks — a few
// per worker — each with an arena, whose first blocks size reserves; each
// tile's counts land at [x+1] of il's offset arrays, for the prefix sums that
// size the CSR arrays exactly, and fill puts the entries in place. A worker's tiler (of
// tilers, when not nil) serves every chunk it draws. A chunk holds whole
// tiles, so the lists are the same on any pool.
func (ph *listPhase) classifyRows(il *InteractionLists, tiles []int32, pool *sched.Pool, tilers []*tiler,
	size func(a *listArena, chunk []int32, t *tiler), keep func(t *tiler, a *listArena, x int)) *classified {
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	if tilers == nil {
		tilers = make([]*tiler, workers)
	}
	for _, t := range tilers {
		if t != nil {
			t.stats = tileStats{}
		}
	}
	cr := &classified{ph: ph, tiles: tiles, chunks: min(listChunksPerWorker*workers, len(tiles)/tileLanes+1), tilers: tilers}
	cr.arenas = make([]listArena, cr.chunks)
	cr.forChunks(pool, func(c int, t *tiler, chunk []int32) {
		size(&cr.arenas[c], chunk, t)
		for _, x := range chunk {
			t.classify(il, int(x))
			t.count(il, int(x))
			keep(t, &cr.arenas[c], int(x))
		}
	})
	for _, t := range cr.tilers {
		if t != nil {
			cr.stats.add(t.stats)
		}
	}
	return cr
}

// forChunks runs fn over the chunks of cr on the pool's workers, each with
// the worker's tiler.
func (cr *classified) forChunks(pool *sched.Pool, fn func(c int, t *tiler, chunk []int32)) {
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

// fill puts the classified tiles' entries in their places — place moves tile
// x's from its chunk's arena — once the lists' arrays are sized and offset,
// and lets the arenas go.
func (cr *classified) fill(pool *sched.Pool, place func(t *tiler, a *listArena, x int)) {
	cr.forChunks(pool, func(c int, t *tiler, chunk []int32) {
		for _, x := range chunk {
			place(t, &cr.arenas[c], int(x))
		}
		cr.arenas[c] = listArena{} // garbage from here on, not from the end of the call
	})
}

// index compiles the phase's lists: classifyRows over every tile, each in one
// shared descent, one prefix sum over the per-tile counts of each array, and
// the chunks copy themselves into place in parallel.
func (ph *listPhase) index(pool *sched.Pool) *InteractionLists {
	il := ph.newLists()
	every := make([]int32, il.tiles())
	for t := range every {
		every[t] = int32(t)
	}
	sp := ph.o.Begin(ph.rank, "ilist", "ilist.compile.classify", obs.NoVirtual)
	cr := ph.classifyRows(il, every, pool, nil, func(a *listArena, chunk []int32, t *tiler) { ph.reserve(a, t, il, chunk) },
		func(t *tiler, a *listArena, _ int) {
			a.appendRuns(&t.shared)
			a.appendRuns(&t.own)
		})
	sp.End(obs.NoVirtual)
	sp = ph.o.Begin(ph.rank, "ilist", "ilist.compile.assemble", obs.NoVirtual)
	ph.alloc(il, pool)
	cr.fill(pool, func(_ *tiler, a *listArena, x int) { il.take(a, x) })
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
// the next: a sixteenth of the chunk's tiles.
const sampleStride = 16

// reserve sizes a's first blocks for one chunk of a compile — the tiles chunk
// of il — from tiles already classified: it classifies evenly spaced tiles on
// t, counts their entries and scales them to the chunk's tiles (a tile
// stores an entry once however many of its rows take it, so its entries
// grow with its rows far slower than its rows' terms do). A chunk that
// turns out denser than its sample goes on in further blocks; a worst-case
// reservation would be several times the lists. (A repair sizes its arenas
// from the cached runs of the tiles it replaces instead: listRepair.size.)
func (ph *listPhase) reserve(a *listArena, t *tiler, il *InteractionLists, chunk []int32) {
	var far, near, ownFar, ownNear, sampled int
	for x := 0; x < len(chunk); x += sampleStride {
		t.classify(il, int(chunk[x]))
		f, n := sizes(&t.shared.runs)
		of, on := sizes(&t.own.runs)
		far, near, ownFar, ownNear = far+f+of, near+n+on, ownFar+of, ownNear+on
		sampled++
	}
	size := func(n int) int { return n * len(chunk) / sampled }
	a.reserve(size(far), size(near), size(ownFar+ownNear))
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
	for _, c := range il.arrays() {
		*c.off = make([]int32, len(tileOff))
	}
	return il
}

// alloc turns the per-tile counts in il's offset arrays into offsets and
// allocates the entry and mask arrays to their totals, each on one of
// the pool's workers. A list array is tens of megabytes, and make hands it
// over zeroed: on one goroutine that memclr is a fifth of a compile during
// which every worker sleeps; spread out, each array is also first touched
// by one of the workers that go on to fill it.
func (ph *listPhase) alloc(il *InteractionLists, pool *sched.Pool) {
	arrays := il.arrays()
	forRows(pool, len(arrays), func(lo, hi, _ int) {
		for _, a := range arrays[lo:hi] {
			*a.ents = make([]int32, prefixSum(*a.off))
			if a.masks != nil {
				*a.masks = make([]uint8, len(*a.ents))
			}
		}
	})
}

// Classes of a near entry of a symmetrized phase, indexing a row's two
// near runs; an unsymmetrized phase's entries are all kindNear. A mutual
// pair's higher-indexed row stores no entry of it (nearKind).
const (
	kindNear = iota // one-directional or diagonal: stays in Near
	kindSym         // mutual and this row is the lower-indexed: swept here, with double weight
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
var runNames = [runFar + 1]string{kindNear: "near", kindSym: "sym", runFar: "far"}

// RecordMetrics publishes the lists' static structure to the observer:
// total row/near/far/sym entry counts per phase, and what the lists hold
// in bytes — the gauge mem.lists.index_bytes, in total and as
// mem.lists.{born,epol}.index_bytes per phase, split in
// mem.lists.{born,epol}.{entries,masks,offsets}_bytes (InteractionLists.
// memory). far_entries, near_pairs and sym_pairs count (row, entry) terms;
// what a phase stores it also counts, per run:
// {near,sym,far}_shared (one entry a tile) and _own (one a tile, beside
// its lane mask), and _own_lanes the (row, entry) terms the own entries stand
// for. Everything here is derivable from the compiled lists alone, so the
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
		ownArr, tileArr := il.ownCSR(), il.tileCSR()
		for r, name := range runNames {
			o.Counter(prefix + "." + name + "_shared").Add(int64(len(*tileArr[r].ents)))
			o.Counter(prefix + "." + name + "_own").Add(int64(len(*ownArr[r].ents)))
			o.Counter(prefix + "." + name + "_own_lanes").Add(int64(popcount(*ownArr[r].masks)))
		}
		entries, masks, offsets := il.memory()
		o.Gauge("mem.lists." + phase + ".index_bytes").Set(float64(entries + masks + offsets))
		o.Gauge("mem.lists." + phase + ".entries_bytes").Set(float64(entries))
		o.Gauge("mem.lists." + phase + ".masks_bytes").Set(float64(masks))
		o.Gauge("mem.lists." + phase + ".offsets_bytes").Set(float64(offsets))
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

// diffLists reports the first divergence between two compiled lists: in
// the rows, the tile cut, or a tile's shared or own runs or masks.
func diffLists(phase string, a, b *InteractionLists) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("core: %s lists row count drifted: %d -> %d", phase, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Errorf("core: %s list row %d leaf drifted: %d -> %d", phase, i, a.Rows[i], b.Rows[i])
		}
	}
	if !slices.Equal(a.TileOff, b.TileOff) {
		return fmt.Errorf("core: %s lists disagree on their tiles", phase)
	}
	for t := range a.tiles() {
		as, bs, ao, bo := a.tileRuns(t), b.tileRuns(t), a.ownRuns(t), b.ownRuns(t)
		for r := range as {
			if !slices.Equal(as[r], bs[r]) {
				return fmt.Errorf("core: %s list tile %d shared %s run drifted: %d -> %d entries",
					phase, t, runNames[r], len(as[r]), len(bs[r]))
			}
			if !slices.Equal(ao.runs[r], bo.runs[r]) || !slices.Equal(ao.masks[r], bo.masks[r]) {
				return fmt.Errorf("core: %s list tile %d own %s run drifted: %d -> %d entries",
					phase, t, runNames[r], len(ao.runs[r]), len(bo.runs[r]))
			}
		}
	}
	return nil
}
