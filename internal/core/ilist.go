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
// per complex, not once per pose. Non-rigid changes (UpdateAtoms) and
// parameter changes invalidate the cache (System.InvalidateLists and the
// signature check in Lists).

// InteractionLists is a compiled traversal over the atoms octree for one
// phase, in CSR form. Row i describes the leaf Rows[i] (in tree Leaves()
// order): Far[FarOff[i]:FarOff[i+1]] holds the atoms-octree nodes whose
// far-field aggregate the leaf interacts with (in the Born lists those its
// tile does not share: TileFar), and Near[NearOff[i]:NearOff[i+1]] the atom
// leaves needing exact pairwise evaluation.
//
// A list is its index — Rows, the offset arrays, Far, Near, Sym, Cede and
// the Born tile runs: 4 bytes an entry — which is all an evaluation reads,
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
	// together — to re-split it when a partner row changed — without
	// scanning every other row's Sym.
	CedeOff []int32
	Cede    []int32
	// TileFar holds, in the Born lists (nil in the E_pol lists), the far
	// nodes a whole tile takes, once: tile t is the aligned rows
	// [8t, 8t+8) — only the last can be shorter — and
	// TileFar[TileFarOff[t]:TileFarOff[t+1]] the nodes every one of its rows
	// takes, in visit order. Row i's Far run then holds its own entries
	// only: the nodes a strict subset of the tile takes. A node is shared or
	// own within a tile, never both, so row i's far set is its tile's run
	// and its own, disjoint.
	TileFarOff []int32
	TileFar    []int32
}

// numTiles is the number of Born tiles of n rows.
func numTiles(n int) int { return (n + tileLanes - 1) / tileLanes }

// tileRows returns the rows [lo, hi) of Born tile t of il.
func (il *InteractionLists) tileRows(t int) (lo, hi int) {
	return t * tileLanes, min(t*tileLanes+tileLanes, len(il.Rows))
}

// tileFar returns tile t's shared far run.
func (il *InteractionLists) tileFar(t int) []int32 {
	return il.TileFar[il.TileFarOff[t]:il.TileFarOff[t+1]]
}

// NumFar returns the total far-field entry count: (row, node) terms, a
// tile's shared node counted once for each of its rows.
func (il *InteractionLists) NumFar() int {
	n := len(il.Far)
	for t := 0; t+1 < len(il.TileFarOff); t++ {
		lo, hi := il.tileRows(t)
		n += int(il.TileFarOff[t+1]-il.TileFarOff[t]) * (hi - lo)
	}
	return n
}

// NumNear returns the total near leaf-pair count.
func (il *InteractionLists) NumNear() int { return len(il.Near) }

// MemoryBytes reports the footprint of the list's arrays.
func (il *InteractionLists) MemoryBytes() int64 {
	return int64(len(il.Rows)+len(il.FarOff)+len(il.Far)+
		len(il.NearOff)+len(il.Near)+len(il.SymOff)+len(il.Sym)+
		len(il.CedeOff)+len(il.Cede)+len(il.TileFarOff)+len(il.TileFar)) * 4
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
// leaves, which move under an update; symmetrize moves
// mutual near leaf pairs into the Sym list of the lower-indexed row (valid
// only when rowTree == atoms, i.e. the E_pol phase); tileFar cuts the rows
// into aligned tiles of eight and stores the far nodes a whole tile takes
// once (the Born phase: InteractionLists.TileFar).
type listPhase struct {
	atoms, rowTree *octree.Tree
	mac            float64
	leafFirst      bool
	symmetrize     bool
	tileFar        bool
	// up and rowOf are what the symmetrized phase's mutuality rule reads of
	// the atoms tree as it stands: the node above every reachable node
	// (octree.NoChild above the root) and the row of every leaf.
	up, rowOf []int32
	// o, when set, receives index's spans and counters, on rank's timeline.
	o    *obs.Obs
	rank int
}

// listPhases returns the Born phase (q-point leaf rows, Figure 2) and the
// E_pol phase (atom leaf rows, Figure 3) under cl's opening criteria, on the
// trees as they stand.
func (s *System) listPhases(cl *CompiledLists) (born, epol listPhase) {
	born = listPhase{atoms: s.Atoms, rowTree: s.QPts, mac: cl.bornMAC, tileFar: true}
	epol = listPhase{atoms: s.Atoms, rowTree: s.Atoms, mac: cl.epolFar, leafFirst: true, symmetrize: true,
		up: make([]int32, len(s.Atoms.Nodes)), rowOf: make([]int32, len(s.Atoms.Nodes))}
	var link func(id, parent int32)
	link = func(id, parent int32) {
		epol.up[id] = parent
		if nd := &s.Atoms.Nodes[id]; !nd.IsLeaf {
			for _, ch := range nd.Children {
				if ch != octree.NoChild {
					link(ch, id)
				}
			}
		}
	}
	link(s.Atoms.Root(), octree.NoChild)
	for k, r := range s.Atoms.Leaves() {
		epol.rowOf[r] = int32(k)
	}
	return born, epol
}

// listArena collects the entries of one contiguous block of rows, row after
// row: far nodes and near leaves, a row's three classes one after the other
// (their sum is steady along a chunk and can be estimated; their shares are
// not — the lower row of a mutual pair sweeps it). In a tileFar phase a
// tile's shared far run comes before its rows' own runs: how a tile's far
// nodes split into shared and own varies from tile to tile, their sum much
// less.
type listArena struct {
	far, near blocks
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

// classified is what classifyRows leaves behind: the rows it classified,
// cut into contiguous chunks, each chunk's entries in an arena of its own,
// and what the classification cost.
type classified struct {
	// which holds the positions in il.Rows of the rows classified, in
	// order.
	which  []int32
	arenas []listArena
	// align is what every chunk bound but the last is a multiple of: a
	// tileFar phase's chunks hold whole tiles.
	align int
	stats tileStats
}

// bound is the first row (an index into which) of chunk c.
func (cr *classified) bound(c int) int {
	if c == len(cr.arenas) {
		return len(cr.which)
	}
	b := c * len(cr.which) / len(cr.arenas)
	return b - b%cr.align
}

// classifyRows classifies the rows of il at positions which, a tile of up
// to eight at a time (ilist_tile.go). Nobody knows a row's entry counts
// before classifying it, so the rows are cut into contiguous chunks — a few
// per worker — and each chunk's entries are appended to an arena of its own;
// each row's counts land at il's four offset arrays [k+1] (a tile's shared
// count at TileFarOff[t+1]), for the prefix sums that size the final CSR
// arrays exactly. A worker's tile and its buffers serve every chunk the
// worker draws. In a tileFar phase which must be whole tiles, in order.
func (ph *listPhase) classifyRows(il *InteractionLists, which []int32, pool *sched.Pool) *classified {
	cr := &classified{which: which, align: 1}
	if ph.tileFar {
		cr.align = tileLanes
	}
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	cr.arenas = make([]listArena, listChunksPerWorker*workers)
	tilers := make([]*tiler, workers)
	nearOff := [3][]int32{kindNear: il.NearOff, kindSym: il.SymOff, kindCede: il.CedeOff}
	forRows(pool, len(cr.arenas), func(lo, hi, w int) {
		for c := lo; c < hi; c++ {
			a, chunk := &cr.arenas[c], which[cr.bound(c):cr.bound(c+1)]
			if len(chunk) == 0 {
				continue
			}
			if tilers[w] == nil {
				tilers[w] = newTiler(ph)
			}
			t := tilers[w]
			ph.reserve(a, t, il.Rows, chunk)
			for i := 0; i < len(chunk); {
				tile := t.classify(il.Rows, chunk, i)
				if ph.tileFar {
					a.far.append(t.shared)
					il.TileFarOff[tile[0]/tileLanes+1] = int32(len(t.shared))
				}
				for l, k := range tile {
					out := &t.out[l]
					a.far.append(out.runs[runFar])
					for kd, off := range nearOff {
						a.near.append(out.runs[kd])
						off[k+1] = int32(len(out.runs[kd]))
					}
					il.FarOff[k+1] = int32(len(out.runs[runFar]))
				}
				i += len(tile)
			}
		}
	})
	for _, t := range tilers {
		if t != nil {
			cr.stats.add(t.stats)
		}
	}
	return cr
}

// fill copies the classified rows' entries from the arenas to their places
// in il's arrays, sized and offset by now, and lets the arenas go.
func (cr *classified) fill(il *InteractionLists, pool *sched.Pool) {
	near := [3]struct{ dst, off []int32 }{
		kindNear: {il.Near, il.NearOff}, kindSym: {il.Sym, il.SymOff}, kindCede: {il.Cede, il.CedeOff}}
	forRows(pool, len(cr.arenas), func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			a := &cr.arenas[c]
			for _, k := range cr.which[cr.bound(c):cr.bound(c+1)] {
				if t := k / tileLanes; il.TileFarOff != nil && k%tileLanes == 0 {
					a.far.take(il.tileFar(int(t)))
				}
				a.far.take(il.Far[il.FarOff[k]:il.FarOff[k+1]])
				for _, to := range near {
					a.near.take(to.dst[to.off[k]:to.off[k+1]])
				}
			}
			*a = listArena{} // garbage from here on, not from the end of the call
		}
	})
}

// index compiles the phase's lists: classifyRows over every row, one
// prefix sum over the per-row counts of each array, and the chunks copy
// themselves into place in parallel.
func (ph *listPhase) index(pool *sched.Pool) *InteractionLists {
	il := ph.newLists()
	every := make([]int32, len(il.Rows))
	for k := range every {
		every[k] = int32(k)
	}
	sp := ph.o.Begin(ph.rank, "ilist", "ilist.compile.classify", obs.NoVirtual)
	cr := ph.classifyRows(il, every, pool)
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

// listChunksPerWorker is the number of row chunks classifyRows cuts per
// worker: enough that a worker that drew dense rows can hand chunks on,
// few enough that the arenas are a few dozen objects.
const listChunksPerWorker = 8

// sampleStride is the number of rows from one tile reserve classifies to
// the next: a sixteenth of the chunk's tiles at most, and of a small chunk —
// a repair's, whose arena is too small to matter — the first alone.
const sampleStride = 16 * tileLanes

// reserve sizes a's first blocks for one chunk — the rows at positions chunk
// of rows — from rows already classified: it classifies evenly spaced tiles
// on t, counts their entries and scales them to the chunk. A chunk that
// turns out denser than its sample goes on in further blocks; a worst-case
// reservation would be several times the lists.
func (ph *listPhase) reserve(a *listArena, t *tiler, rows, chunk []int32) {
	var far, near, sampled int
	for x := 0; x < len(chunk); x += sampleStride {
		tile := t.classify(rows, chunk, x)
		far += len(t.shared)
		for l := range tile {
			far += len(t.out[l].runs[runFar])
			for _, run := range t.out[l].runs[:runFar] {
				near += len(run)
			}
		}
		sampled += len(tile)
	}
	size := func(n int) int { return n * len(chunk) / sampled }
	a.far.reserve(size(far))
	a.near.reserve(size(near))
}

// newLists returns the phase's lists with their rows and zeroed offset
// arrays.
func (ph *listPhase) newLists() *InteractionLists {
	// The lists own their row ids: rowTree's live leaf slice is rewritten
	// in place by a later tracked update (rebuildLeafList), and an aliased
	// cache would silently renumber.
	rows := append([]int32(nil), ph.rowTree.Leaves()...)
	n := len(rows)
	il := &InteractionLists{Rows: rows, FarOff: make([]int32, n+1), NearOff: make([]int32, n+1),
		SymOff: make([]int32, n+1), CedeOff: make([]int32, n+1)}
	if ph.tileFar {
		il.TileFarOff = make([]int32, numTiles(n)+1)
	}
	return il
}

// alloc turns the per-row counts in il's offset arrays (and the per-tile
// counts in TileFarOff) into offsets and allocates the entry arrays to their
// totals, each on one of the pool's workers. A list array is tens of
// megabytes, and make hands it over zeroed: on one goroutine that memclr is
// a fifth of a compile during which every worker sleeps; spread out, each
// array is also first touched by one of the workers that go on to fill it.
func (ph *listPhase) alloc(il *InteractionLists, pool *sched.Pool) {
	arrays := [...]struct {
		off  []int32
		ents *[]int32
	}{{il.FarOff, &il.Far}, {il.NearOff, &il.Near}, {il.SymOff, &il.Sym},
		{il.CedeOff, &il.Cede}, {il.TileFarOff, &il.TileFar}}
	forRows(pool, len(arrays), func(lo, hi, _ int) {
		for _, a := range arrays[lo:hi] {
			if a.off != nil {
				*a.ents = make([]int32, prefixSum(a.off))
			}
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

// RecordMetrics publishes the lists' static structure to the observer:
// total row/near/far/sym entry counts per phase plus per-row batch-size
// histograms (the sizes the SoA batch kernels sweep), and what the lists
// hold in bytes — the gauge mem.lists.index_bytes, in total and as
// mem.lists.{born,epol}.index_bytes per phase. far_entries counts (row,
// node) terms; a phase that stores a tile's shared nodes once also says
// what it stores, as far_shared (one per tile) and far_own. Everything here
// is derivable from the compiled lists alone, so the hot loops in kernels.go
// carry no instrumentation at all — the counts are recorded once per run,
// off the critical path. No-op when o is nil.
func (cl *CompiledLists) RecordMetrics(o *obs.Obs) {
	if cl == nil || o == nil {
		return
	}
	rec := func(phase string, il *InteractionLists) {
		prefix := "ilist." + phase
		o.Counter(prefix + ".rows").Add(int64(len(il.Rows)))
		o.Counter(prefix + ".far_entries").Add(int64(il.NumFar()))
		if il.TileFarOff != nil {
			o.Counter(prefix + ".far_shared").Add(int64(len(il.TileFar)))
			o.Counter(prefix + ".far_own").Add(int64(len(il.Far)))
		}
		o.Counter(prefix + ".near_pairs").Add(int64(il.NumNear()))
		o.Counter(prefix + ".sym_pairs").Add(int64(len(il.Sym)))
		rowFar := o.Histogram(prefix + ".row_far")
		rowNear := o.Histogram(prefix + ".row_near")
		for i := range il.Rows {
			far := il.FarOff[i+1] - il.FarOff[i]
			if il.TileFarOff != nil {
				t := i / tileLanes
				far += il.TileFarOff[t+1] - il.TileFarOff[t]
			}
			rowFar.Observe(int64(far))
			near := il.NearOff[i+1] - il.NearOff[i]
			if il.SymOff != nil {
				near += il.SymOff[i+1] - il.SymOff[i]
			}
			rowNear.Observe(int64(near))
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

// diffLists reports the first divergence between two compiled lists.
func diffLists(phase string, a, b *InteractionLists) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("core: %s lists row count drifted: %d -> %d", phase, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Errorf("core: %s list row %d leaf drifted: %d -> %d", phase, i, a.Rows[i], b.Rows[i])
		}
		for _, c := range []struct {
			set              string
			a, aOff, b, bOff []int32
		}{
			{"far", a.Far, a.FarOff, b.Far, b.FarOff}, {"near", a.Near, a.NearOff, b.Near, b.NearOff},
			{"sym", a.Sym, a.SymOff, b.Sym, b.SymOff}, {"ceded", a.Cede, a.CedeOff, b.Cede, b.CedeOff},
		} {
			if ar, br := c.a[c.aOff[i]:c.aOff[i+1]], c.b[c.bOff[i]:c.bOff[i+1]]; !slices.Equal(ar, br) {
				return fmt.Errorf("core: %s list row %d (leaf %d) %s set drifted: %d -> %d entries",
					phase, i, a.Rows[i], c.set, len(ar), len(br))
			}
		}
	}
	if (a.TileFarOff == nil) != (b.TileFarOff == nil) {
		return fmt.Errorf("core: %s lists disagree on tile runs (%v -> %v)", phase, a.TileFarOff != nil, b.TileFarOff != nil)
	}
	for t := 0; t+1 < len(a.TileFarOff); t++ {
		af, bf := a.tileFar(t), b.tileFar(t)
		if !slices.Equal(af, bf) {
			return fmt.Errorf("core: %s list tile %d shared far run drifted: %d -> %d entries", phase, t, len(af), len(bf))
		}
	}
	return nil
}
