package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
)

// The tile classification (ilist_tile.go) against the code it replaced,
// kept here as its oracle: the scalar per-row descent that was production up
// to PR 26 (classify, one opening test per row and node) and the
// transpose-based split of the near relation (symmetrizeNear), verbatim but
// for where their output goes.

// rowSink receives rows' scalar classifications, one after the other.
type rowSink struct {
	far, near []int32
}

// classify descends the atoms octree from node n against a row cluster
// (center, radius), splitting the subtree into far nodes and near leaves:
// tiler.descend for one row.
func (ph *listPhase) classify(n int32, center geom.Vec3, radius float64, out *rowSink) {
	node := &ph.atoms.Nodes[n]
	if ph.leafFirst && node.IsLeaf {
		out.near = append(out.near, n)
		return
	}
	switch {
	case ph.verdict(openingDist2(center, node.Center), radius, node.Radius):
		out.far = append(out.far, n)
	case node.IsLeaf:
		out.near = append(out.near, n)
	default:
		for _, child := range node.Children {
			if child != octree.NoChild {
				ph.classify(child, center, radius, out)
			}
		}
	}
}

// classifyRow classifies the row cluster of rowTree leaf r from the root.
func (ph *listPhase) classifyRow(r int32, out *rowSink) {
	rn := &ph.rowTree.Nodes[r]
	ph.classify(ph.atoms.Root(), rn.Center, rn.Radius, out)
}

// nearLists is a CSR of near leaves in classification emission order: the
// PRE-symmetrization lists.
type nearLists struct{ off, n []int32 }

func (nl *nearLists) row(k int) []int32 { return nl.n[nl.off[k]:nl.off[k+1]] }

// kindShift places an entry's class in the two bits above its node id.
const (
	kindShift = 30
	kindMask  = 1<<kindShift - 1
)

// symmetrizeNear splits each row's pre-symmetrization near list into mutual
// pairs — moved to the lower row's Sym list and recorded in the higher
// row's Cede list, which the lists no longer store (kindCede) — and
// one-directional entries, kept in Near. It asks no geometry: one counting
// sort builds the transpose of the near relation
// (T(k) = the rows whose list holds rows[k]); each row then stamps T(k) into
// its worker's array and reads its partners' stamps. pre's entries are
// scratch from here on: the first pass leaves each one's class in its top
// bits for the second.
func symmetrizeNear(il *rowLists, pre *nearLists, numNodes int, pool *sched.Pool) {
	n := len(il.Rows)
	rowOf := make([]int32, numNodes)
	for k, r := range il.Rows {
		rowOf[r] = int32(k)
	}
	workers := 1
	if pool != nil {
		workers = pool.NumWorkers()
	}
	tOff, next := make([]int32, n+1), make([]int32, workers*n)
	bound := func(b int) int { return b * n / workers }
	forRows(pool, workers, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			for k := bound(b); k < bound(b+1); k++ {
				for _, u := range pre.row(k) {
					next[b*n+int(rowOf[u])]++
				}
			}
		}
	})
	for j := 0; j < n; j++ {
		at := tOff[j]
		for b := 0; b < workers; b++ {
			next[b*n+j], at = at, at+next[b*n+j]
		}
		tOff[j+1] = at
	}
	tr := make([]int32, pre.off[n])
	forRows(pool, workers, func(lo, hi, _ int) {
		for b := lo; b < hi; b++ {
			for k := bound(b); k < bound(b+1); k++ {
				for _, u := range pre.row(k) {
					slot := &next[b*n+int(rowOf[u])]
					tr[*slot] = int32(k)
					*slot++
				}
			}
		}
	})

	stamps := make([][]int32, workers)
	forRows(pool, n, func(lo, hi, w int) {
		if stamps[w] == nil {
			stamps[w] = make([]int32, n)
		}
		stamp := stamps[w]
		for k := lo; k < hi; k++ {
			mark := int32(k + 1)
			for _, j := range tr[tOff[k]:tOff[k+1]] {
				stamp[j] = mark
			}
			var cnt [kindCede + 1]int32
			row := pre.row(k)
			for i, u := range row {
				kd := kindNear
				if j := int(rowOf[u]); j != k && stamp[j] == mark {
					kd = kindSym
					if j < k {
						kd = kindCede
					}
				}
				row[i] = u | int32(kd)<<kindShift
				cnt[kd]++
			}
			il.NearOff[k+1], il.SymOff[k+1], il.CedeOff[k+1] = cnt[kindNear], cnt[kindSym], cnt[kindCede]
		}
	})
	nn, ns, nc := prefixSum(il.NearOff), prefixSum(il.SymOff), prefixSum(il.CedeOff)
	il.Near, il.Sym, il.Cede = make([]int32, nn), make([]int32, ns), make([]int32, nc)
	forRows(pool, n, func(lo, hi, _ int) {
		for k := lo; k < hi; k++ {
			dst := [kindCede + 1][]int32{kindNear: il.Near, kindSym: il.Sym, kindCede: il.Cede}
			at := [kindCede + 1]int32{kindNear: il.NearOff[k], kindSym: il.SymOff[k], kindCede: il.CedeOff[k]}
			for _, e := range pre.row(k) {
				kd := uint32(e) >> kindShift
				dst[kd][at[kd]] = e & kindMask
				at[kd]++
			}
		}
	})
}

// kindCede indexes, behind the runs the lists store, the run they stored up
// to snapshot version 7: the mutual near pairs of a row that a lower row
// sweeps from its Sym run. The per-row oracle emits it, and the images of
// those versions hold it; of tiled lists it is derived (cedes).
const kindCede = runFar + 1

// retiredOrder is the order the layouts up to version 7 kept a phase's runs
// in.
var retiredOrder = [...]int{kindNear, kindSym, kindCede, runFar}

// rowLists is a phase's lists in the form they had before tiles, every
// row's runs whole in CSR form — row i's far run is Far[FarOff[i]:
// FarOff[i+1]], and its near runs alike, Cede among them: the form the
// oracle emits, the form tiled lists take merged back into their rows
// (perRowLists), and the rows' own runs of older checkpoint layouts
// (ownRows).
type rowLists struct {
	Rows                                                   []int32
	FarOff, Far, NearOff, Near, SymOff, Sym, CedeOff, Cede []int32
}

// newRowLists returns row lists of rows with zeroed offsets and no entries.
func newRowLists(rows []int32) *rowLists {
	rl := &rowLists{Rows: rows}
	for _, c := range rl.rowCSR() {
		*c.off = make([]int32, len(rows)+1)
	}
	return rl
}

// rowCSR returns rl's arrays, indexed by class and runFar as a laneRuns is,
// and the Cede run by kindCede.
func (rl *rowLists) rowCSR() [kindCede + 1]csr {
	return [...]csr{kindNear: {&rl.NearOff, &rl.Near, nil}, kindSym: {&rl.SymOff, &rl.Sym, nil},
		kindCede: {&rl.CedeOff, &rl.Cede, nil}, runFar: {&rl.FarOff, &rl.Far, nil}}
}

// rowRuns returns row i's runs the lists store, indexed as a laneRuns is.
func (rl *rowLists) rowRuns(i int) (runs [runFar + 1][]int32) {
	c := rl.rowCSR()
	for r := range runs {
		runs[r] = c[r].run(i)
	}
	return runs
}

// rowRunName names run r of a rowLists.
func rowRunName(r int) string {
	if r == kindCede {
		return "cede"
	}
	return runNames[r]
}

// NumFar returns the far entries of all rows.
func (rl *rowLists) NumFar() int { return len(rl.Far) }

// oracleIndex is listPhase.index by the scalar descent, row by row, and the
// transposed split, every row's runs whole.
func (ph *listPhase) oracleIndex(pool *sched.Pool) *rowLists {
	il := newRowLists(ph.newLists().Rows)
	pre := nearLists{off: make([]int32, len(il.Rows)+1)}
	var sink rowSink
	for k, r := range il.Rows {
		nf, nn := len(sink.far), len(sink.near)
		ph.classifyRow(r, &sink)
		il.FarOff[k+1], pre.off[k+1] = int32(len(sink.far)-nf), int32(len(sink.near)-nn)
	}
	prefixSum(il.FarOff)
	prefixSum(pre.off)
	il.Far, pre.n = sink.far, sink.near
	if ph.symmetrize {
		symmetrizeNear(il, &pre, len(ph.atoms.Nodes), pool)
	} else {
		il.NearOff, il.Near = pre.off, pre.n
	}
	return il
}

// sameIndex reports the first difference between two lists: a tile's runs
// (diffLists) or, those equal, an offset array — which then makes the entry
// arrays equal too.
func sameIndex(got, want *InteractionLists) error {
	if err := diffLists("oracle", want, got); err != nil {
		return err
	}
	ga, wa := got.arrays(), want.arrays()
	for i := range ga {
		if !slices.Equal(*ga[i].off, *wa[i].off) {
			return fmt.Errorf("the %s offsets of the %s runs differ from the oracle's", runNames[i%(runFar+1)], [2]string{"own", "shared"}[i/(runFar+1)])
		}
	}
	return nil
}

// sameRows reports the first difference between two row lists: a row's
// entries or, those equal, an offset array.
func sameRows(got, want *rowLists) error {
	if !slices.Equal(got.Rows, want.Rows) {
		return fmt.Errorf("the rows differ from the oracle's")
	}
	ga, wa := got.rowCSR(), want.rowCSR()
	for i := range want.Rows {
		for r := range wa {
			if g, w := ga[r].run(i), wa[r].run(i); !slices.Equal(g, w) {
				return fmt.Errorf("row %d (leaf %d) %s set: %d entries, the oracle's %d", i, want.Rows[i], rowRunName(r), len(g), len(w))
			}
		}
	}
	for r := range ga {
		if !slices.Equal(*ga[r].off, *wa[r].off) {
			return fmt.Errorf("the %s offsets of the rows differ from the oracle's", rowRunName(r))
		}
	}
	return nil
}

// visitOrder numbers the nodes of t reachable from its root in classification
// visit order: pre-order, children in octant order.
func visitOrder(t *octree.Tree) []int32 {
	visit := make([]int32, len(t.Nodes))
	var next int32
	var walk func(id int32)
	walk = func(id int32) {
		visit[id] = next
		next++
		if nd := &t.Nodes[id]; !nd.IsLeaf {
			for _, ch := range nd.Children {
				if ch != octree.NoChild {
					walk(ch)
				}
			}
		}
	}
	walk(t.Root())
	return visit
}

// perRowLists returns il merged back into its rows: row l of a tile takes,
// of each kind, the tile's shared run and the own run's entries whose mask
// has bit l, merged on visit order of atoms — the rows the per-row
// recursion emits, their Cede runs derived (cedes).
func perRowLists(il *InteractionLists, atoms *octree.Tree) *rowLists {
	return cedes(il, visitOrder(atoms)).rowForm(true)
}

// ownRows returns il's own runs as rows: row l of a tile takes, of each
// kind, the own run's entries whose mask has bit l — the per-row own runs
// of the checkpoint layouts up to version 6, Cede derived as the tiles of
// version 7 held it (cedes, on visit order of atoms).
func ownRows(il *InteractionLists, atoms *octree.Tree) *rowLists {
	return cedes(il, visitOrder(atoms)).rowForm(false)
}

// cededLists is a phase's tiled lists with the Cede runs they stored up to
// snapshot version 7 derived: every shared and own CSR of that layout,
// indexed as rowLists.rowCSR is.
type cededLists struct {
	il          *InteractionLists
	visit       []int32
	shared, own [kindCede + 1]csr
}

// cedes derives il's Cede runs: row V cedes row U's leaf iff U < V and U's
// Sym run names V's leaf — the Sym runs transposed — on visit order, a
// tile's Cede entries split into shared and own runs as a compile splits
// any class (hoistRun).
func cedes(il *InteractionLists, visit []int32) *cededLists {
	cl := &cededLists{il: il, visit: visit}
	own, shared := il.ownCSR(), il.tileCSR()
	copy(cl.own[:], own[:])
	copy(cl.shared[:], shared[:])
	rowOf := make(map[int32]int32, len(il.Rows))
	for k, r := range il.Rows {
		rowOf[r] = int32(k)
	}
	per := make([][]int32, len(il.Rows))
	for t := range il.tiles() {
		lo, hi := il.tileRows(t)
		for k := lo; k < hi; k++ {
			for _, v := range laneRun(slices.Clone(shared[kindSym].run(t)), own[kindSym].run(t), own[kindSym].runMasks(t), k-lo) {
				per[rowOf[v]] = append(per[rowOf[v]], il.Rows[k])
			}
		}
	}
	rows := newRowLists(il.Rows)
	for k, run := range per {
		slices.SortFunc(run, func(a, b int32) int { return int(visit[a] - visit[b]) })
		rows.Cede = append(rows.Cede, run...)
		rows.CedeOff[k+1] = int32(len(rows.Cede))
	}
	cl.own[kindCede] = csr{new([]int32), new([]int32), new([]uint8)}
	cl.shared[kindCede] = csr{new([]int32), new([]int32), nil}
	hoistRun(rows.rowCSR()[kindCede], cl.shared[kindCede], cl.own[kindCede], true, il.TileOff, visit)
	return cl
}

// rowForm is perRowLists (shared set) or ownRows.
func (cl *cededLists) rowForm(shared bool) *rowLists {
	il := cl.il
	out := newRowLists(il.Rows)
	rows := out.rowCSR()
	for t := range il.tiles() {
		lo, hi := il.tileRows(t)
		for i := lo; i < hi; i++ {
			for r, c := range rows {
				a, b := cl.shared[r].run(t), laneRun(nil, cl.own[r].run(t), cl.own[r].runMasks(t), i-lo)
				if !shared {
					a = nil
				}
				for len(a)+len(b) > 0 {
					run := &b
					if len(b) == 0 || len(a) > 0 && cl.visit[a[0]] < cl.visit[b[0]] {
						run = &a
					}
					*c.ents = append(*c.ents, (*run)[0])
					*run = (*run)[1:]
				}
				(*c.off)[i+1] = int32(len(*c.ents))
			}
		}
	}
	return out
}

// tiled returns rl as lists of one-row tiles, each row's runs its tile's
// shared ones: the per-row sweep's lists, in the tiled layout.
func (rl *rowLists) tiled() *InteractionLists {
	tileOff := make([]int32, len(rl.Rows)+1)
	for i := range tileOff {
		tileOff[i] = int32(i)
	}
	il := blankLists(rl.Rows, tileOff)
	from, shared := rl.rowCSR(), il.tileCSR()
	for r := range shared {
		*shared[r].off, *shared[r].ents = slices.Clone(*from[r].off), slices.Clone(*from[r].ents)
	}
	for _, c := range il.ownCSR() {
		*c.ents, *c.masks = []int32{}, []uint8{}
	}
	return il
}

// hoistTiles turns row lists into the tiled form phase ph compiles them to,
// over the cut tileOff (hoistRun), every run the lists store: every phase
// shares far nodes, a symmetrized one near leaves too.
func hoistTiles(rl *rowLists, ph *listPhase, tileOff []int32) *InteractionLists {
	visit := visitOrder(ph.atoms)
	out := blankLists(rl.Rows, tileOff)
	from, own, shared := rl.rowCSR(), out.ownCSR(), out.tileCSR()
	for r := range own {
		hoistRun(from[r], shared[r], own[r], r == runFar || ph.symmetrize, tileOff, visit)
	}
	return out
}

// hoistRun puts the run from of row lists into tiled runs over the cut
// tileOff: a tile's shared run (when share) is the entries every one of its
// rows holds, in the first row's order, and its own run the rest, each once
// on visit order beside the mask of the rows holding it.
func hoistRun(from, shared, own csr, share bool, tileOff, visit []int32) {
	*shared.off, *own.off = make([]int32, len(tileOff)), make([]int32, len(tileOff))
	*shared.ents, *own.ents, *own.masks = []int32{}, []int32{}, []uint8{}
	// mask[a] holds the tile's rows holding a in the run.
	mask := make([]uint8, len(visit))
	for t := range len(tileOff) - 1 {
		lo, hi := int(tileOff[t]), int(tileOff[t+1])
		full := uint8(1)<<(hi-lo) - 1
		var union []int32
		for i := lo; i < hi; i++ {
			for _, a := range from.run(i) {
				if mask[a] == 0 {
					union = append(union, a)
				}
				mask[a] |= 1 << (i - lo)
			}
		}
		isShared := func(a int32) bool { return share && mask[a] == full }
		for _, a := range from.run(lo) {
			if isShared(a) {
				*shared.ents = append(*shared.ents, a)
			}
		}
		slices.SortFunc(union, func(a, b int32) int { return int(visit[a] - visit[b]) })
		for _, a := range union {
			if !isShared(a) {
				*own.ents, *own.masks = append(*own.ents, a), append(*own.masks, mask[a])
			}
		}
		(*shared.off)[t+1], (*own.off)[t+1] = int32(len(*shared.ents)), int32(len(*own.ents))
		for _, a := range union {
			mask[a] = 0
		}
	}
}

// The tiled lists of a phase are the scalar descent's, rows merged back:
// for every class and the far run, each row's shared ∪ own on visit order
// is the oracle's row; each tile's shared run of a kind is the intersection
// of its rows' (hoistTiles of the oracle over the phase's cut), far nodes
// alone in the Born phase; every tile is one to eight rows — aligned eights
// in the Born phase, rows of one parent in the E_pol phase; and the compile
// is the same with no pool and on pools of 1, 2, 3 and 8 — at every order
// (orderParams), compiled, and after three tracked updates have moved atoms
// and repaired the lists. Both phases run the one table below.
func TestBornTileListsMatchOracle(t *testing.T) { tileListsMatchOracle(t, phaseBorn) }

func TestEpolTileListsMatchOracle(t *testing.T) { tileListsMatchOracle(t, phaseEpol) }

// tileListsMatchOracle is the table the two tests above run on phase p
// (phaseBorn or phaseEpol): a subtest a fixture, beneath it one an order,
// each checking the lists compiled and after every repair.
func tileListsMatchOracle(t *testing.T, p int) {
	pools := map[string]*sched.Pool{"serial": nil}
	for _, w := range []int{1, 2, 3, 8} {
		pool := sched.NewPool(w)
		defer pool.Close()
		pools[fmt.Sprintf("pool%d", w)] = pool
	}
	phaseName := [2]string{"born", "epol"}[p]
	for _, mol := range append(listFixtures(), deepCluster()) {
		t.Run(mol.Name, func(t *testing.T) {
			for order := 0; order < numOrders; order++ {
				t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
					sys := fixtureSystem(t, mol.Clone(), order)
					var stored [2][runFar + 1]int // shared and own entries seen, by run
					check := func(when string) {
						t.Helper()
						born, epol := sys.listPhases(sys.lists)
						ph, held := &born, sys.lists.Born
						if p == phaseEpol {
							ph, held = &epol, sys.lists.Epol
						}
						name := fmt.Sprintf("%s, %s", when, phaseName)
						want := ph.oracleIndex(nil)
						if err := sameRows(perRowLists(held, sys.Atoms), want); err != nil {
							t.Errorf("%s: rows merged back: %v", name, err)
						}
						if err := sameIndex(held, hoistTiles(want, ph, ph.cutTiles(want.Rows))); err != nil {
							t.Errorf("%s: against the intersection of each tile's rows: %v", name, err)
						}
						for tile := range held.tiles() {
							lo, hi := held.tileRows(tile)
							bad := lo%tileLanes != 0 || hi-lo != min(tileLanes, len(held.Rows)-lo)
							if ph.symmetrize {
								bad = hi <= lo || hi-lo > tileLanes
								for k := lo; k < hi; k++ {
									bad = bad || epol.up[held.Rows[k]] != epol.up[held.Rows[lo]]
								}
							}
							if bad {
								t.Fatalf("%s: tile %d holds the rows [%d, %d)", name, tile, lo, hi)
							}
						}
						for pname, pool := range pools {
							if got := ph.index(pool); !reflect.DeepEqual(got, held) {
								t.Errorf("%s: the compile on %s differs", name, pname)
							}
						}
						own, tiles := held.ownCSR(), held.tileCSR()
						for r := range own {
							stored[0][r] += len(*tiles[r].ents)
							stored[1][r] += len(*own[r].ents)
						}
					}
					sys.Lists(nil)
					check("compiled")
					rng := rand.New(rand.NewSource(44))
					pos := sys.Mol.Positions()
					for step := 0; step < 3; step++ {
						pos = localJiggle(rng, pos, 0.3)
						stats, err := sys.UpdateAtomsRepair(pos, pools["pool2"], nil)
						if err != nil {
							t.Fatal(err)
						}
						if stats.Repaired {
							check(fmt.Sprintf("repaired, step %d", step))
						}
					}
					if mol.NumAtoms() <= 100 {
						return
					}
					// The Born phase shares far nodes alone and has no Sym; the
					// E_pol phase stores every kind both ways.
					shared, own := stored[0], stored[1]
					if p == phaseBorn {
						if shared[runFar] == 0 || own[runFar] == 0 || own[kindNear] == 0 {
							t.Errorf("born: %v shared and %v own entries by run: one kind goes untested", shared, own)
						}
						if shared[kindNear]+shared[kindSym]+own[kindSym] != 0 {
							t.Errorf("born: %v shared and %v own entries by run: shared near leaves, or Sym", shared, own)
						}
						return
					}
					for r := range runFar + 1 {
						if shared[r] == 0 || own[r] == 0 {
							t.Errorf("epol: %d shared and %d own %s entries: one kind goes untested", shared[r], own[r], runNames[r])
						}
					}
				})
			}
		})
	}
}

// A tile the repair classifies is the compiled tile, byte for byte, shared
// and own runs of every class and their masks, whichever of its lanes the
// re-test gave up: the given lanes' share of the own runs comes from the
// descent, the kept lanes' is put back together from their cached runs
// (keptRuns). On unchanged geometry, over every fixture and order of the
// oracle table and both phases, every tile is classified with a random set
// of 0 to 8 of its lanes given — a tile of one row, kept or given, and
// tiles given whole among them — against the compiled lists as the cache
// and against the same lists re-cut (three rows, then eights), so that a
// tile's kept rows come from two cached tiles; the re-cut tiles' shared
// runs are the intersection of their rows (hoistTiles).
func TestRepairLaneWiseMatchesWholeTile(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	var oneRow, twoTiles, whole int
	var given [tileLanes + 1]int // tiles by the number of their given lanes
	for _, mol := range append(listFixtures(), deepCluster()) {
		for order := 0; order < numOrders; order++ {
			sys := fixtureSystem(t, mol.Clone(), order)
			cl := sys.Lists(nil)
			born, epol := sys.listPhases(cl)
			d := newTreeDelta(sys.Atoms, geometryOf(sys.Atoms), nil)
			for p, ph := range []*listPhase{&born, &epol} {
				compiled := [...]*InteractionLists{cl.Born, cl.Epol}[p]
				rows := compiled.Rows
				recut := []int32{0}
				for k := min(3, len(rows)); len(recut) == 1 || recut[len(recut)-1] < int32(len(rows)); k += tileLanes {
					recut = append(recut, int32(min(k, len(rows))))
				}
				prev := make([]int32, len(rows))
				for k := range prev {
					prev[k] = int32(k)
				}
				for c, old := range []*InteractionLists{compiled, hoistTiles(perRowLists(compiled, sys.Atoms), ph, recut)} {
					for size := 0; size <= tileLanes; size++ {
						il := ph.newLists()
						rp := &listRepair{ph: ph, old: old, il: il, oldTile: old.tileOf(), prev: prev, visit: d.visit,
							given: make([]uint8, il.tiles())}
						if ph.symmetrize {
							rp.dirty = make([]bool, len(ph.atoms.Nodes))
						}
						every := make([]int32, il.tiles())
						for x := range every {
							every[x] = int32(x)
							lo, hi := il.tileRows(x)
							for _, l := range rng.Perm(hi - lo)[:min(size, hi-lo)] {
								rp.given[x] |= 1 << l
								if rp.dirty != nil {
									rp.dirty[rows[lo+l]] = true
								}
							}
							from := map[int32]bool{}
							for l := range hi - lo {
								if rp.given[x]>>l&1 == 0 {
									from[rp.oldTile[lo+l]] = true
								}
							}
							given[bits.OnesCount8(rp.given[x])]++
							switch {
							case hi-lo == 1:
								oneRow++
							case rp.given[x] == uint8(1<<(hi-lo)-1):
								whole++
							case len(from) > 1:
								twoTiles++
							}
						}
						cr := ph.classifyRows(il, every, nil, nil, rp.size, rp.keep)
						ph.alloc(il, nil)
						cr.fill(nil, rp.place)
						if err := sameIndex(il, compiled); err != nil {
							t.Fatalf("%s, order %d, %s, cache %d, %d lanes given a tile: %v",
								mol.Name, order, [...]string{"born", "epol"}[p], c, size, err)
						}
					}
				}
			}
		}
	}
	t.Logf("tiles of one row %d, given whole %d, kept rows from two cached tiles %d; by lanes given %v", oneRow, whole, twoTiles, given)
	if oneRow == 0 || whole == 0 || twoTiles == 0 || slices.Contains(given[:], 0) {
		t.Errorf("a kind of tile went untested: %d of one row, %d given whole, %d from two cached tiles, by lanes given %v",
			oneRow, whole, twoTiles, given)
	}
}

// deepCluster is a protein with thirty atoms packed into a ball of 0.02 Å:
// their leaves sit more than eight levels down, so the ancestor chain of a
// tile there takes two blocks.
func deepCluster() *molecule.Molecule {
	mol := molecule.GenProtein("deep-cluster", 300, 307)
	rng := rand.New(rand.NewSource(308))
	at := mol.Atoms[0].Pos.Add(geom.V(4, 0, 0))
	for i := 0; i < 30; i++ {
		p := at.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.01))
		mol.Atoms = append(mol.Atoms, molecule.Atom{Pos: p, Charge: 0.1 * rng.NormFloat64(), Radius: 1.5})
	}
	return mol
}

// idsInVisitOrder reports whether the tree's leaves, in spatial order, have
// increasing ids: true of a fresh build, false once a tracked update has
// materialized a leaf.
func idsInVisitOrder(t *octree.Tree) bool { return slices.IsSorted(t.Leaves()) }

// Every list the tile path compiles — the Born phase, the E_pol phase and
// the E_pol phase unsplit, whose tiles share far nodes alone — is the scalar
// oracle's, array for array, its tiles' shared runs
// merged back into the rows (perRowLists): on trees of one leaf (no ancestors), two
// atoms, a chain of two blocks, a shell and a globule; at every order
// (orderParams); serial and pooled; freshly built and after tracked updates
// have left the node ids out of visit order.
func TestTileCompileMatchesOracle(t *testing.T) {
	fixtures := append(listFixtures(), deepCluster())
	for _, mol := range fixtures {
		for order := 0; order < numOrders; order++ {
			t.Run(fmt.Sprintf("%s/order%d", mol.Name, order), func(t *testing.T) {
				sys := fixtureSystem(t, mol.Clone(), order)
				check := func(when string) {
					t.Helper()
					cl := &CompiledLists{bornMAC: sys.bornMAC(), epolFar: epolFarFactor(sys.Params.EpsEpol)}
					born, epol := sys.listPhases(cl)
					unsplit := epol
					unsplit.symmetrize = false
					for _, p := range []struct {
						name string
						ph   listPhase
					}{{"born", born}, {"epol", epol}, {"epol unsplit", unsplit}} {
						want := p.ph.oracleIndex(nil)
						forPools(t, func(t *testing.T, pool *sched.Pool) {
							if err := sameRows(perRowLists(p.ph.index(pool), sys.Atoms), want); err != nil {
								t.Errorf("%s, %s: %v", when, p.name, err)
							}
						})
					}
				}
				check("fresh")
				if mol.Name == "deep-cluster" {
					depth := 0
					for _, l := range sys.Atoms.Leaves() {
						depth = max(depth, int(sys.Atoms.Nodes[l].Depth))
					}
					if depth <= tileLanes {
						t.Fatalf("deepest leaf at depth %d: no chain of two blocks", depth)
					}
				}
				rng := rand.New(rand.NewSource(309))
				pos := sys.Mol.Positions()
				rebuilt := false
				for step := 0; step < 3; step++ {
					pos = localJiggle(rng, pos, 0.6)
					stats, err := sys.UpdateAtomsRepair(pos, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					rebuilt = rebuilt || stats.Rebuilt
				}
				if mol.NumAtoms() > 100 && !rebuilt && idsInVisitOrder(sys.Atoms) {
					t.Error("three violent updates left the node ids in visit order: the fixture exercises nothing")
				}
				check("updated")
			})
		}
	}
}

// openFar8, through its assembly where the host has one, against its
// portable lanes and against the scalar test it stands for — verdict on
// openingDist2's operand — bit for bit: random operands and the ones where a
// rounding would show (d² == s² exactly and one ulp either side, signed
// zeros, denormal radii and offsets, centers at 1e8 Å, an infinite
// multiplier); then admit against verdict for every set of open lanes — a
// tail tile's 1 to 7 live rows among them.
func TestOpenFar8MatchesScalar(t *testing.T) {
	type cluster struct {
		c geom.Vec3
		r float64
	}
	type operands struct {
		lanes [tileLanes]cluster
		node  cluster
	}
	rng := rand.New(rand.NewSource(310))
	macs := []float64{1.5, looseMACFactor(0.9), strictMACFactor(0.9), epolFarFactor(0.3),
		2, 1.25, 1, 1 + 1e-15, 3, 2.5, math.Inf(1)}
	var cases []operands
	random := func(center, spread, radius float64) cluster {
		v := func() float64 { return center + spread*(2*rng.Float64()-1) }
		return cluster{geom.V(v(), v(), v()), radius * rng.Float64()}
	}
	for i := 0; i < 300; i++ {
		var op operands
		center, spread, radius := 0.0, 60.0, 12.0
		switch i % 3 {
		case 1: // a molecule far from the origin: differences of large numbers
			center = 1e8
		case 2: // denormal offsets and radii: squares that underflow
			spread, radius = 1e-310, 1e-312
		}
		op.node = random(center, spread, radius)
		for l := range op.lanes {
			op.lanes[l] = random(center, spread, radius)
		}
		cases = append(cases, op)
	}
	// The boundary: the node at the origin, a lane at distance exactly
	// s = (r_node + r_lane)·mac along an axis or a Pythagorean diagonal, and
	// one ulp nearer and farther.
	for _, mac := range macs {
		if math.IsInf(mac, 0) {
			continue
		}
		var op operands
		op.node = cluster{geom.Vec3{}, 1.25}
		for l := range op.lanes {
			rl := float64(l) * 0.375
			s := (op.node.r + rl) * mac
			at := s
			switch l % 3 {
			case 1:
				at = math.Nextafter(s, 0)
			case 2:
				at = math.Nextafter(s, math.Inf(1))
			}
			op.lanes[l] = cluster{geom.V(at, 0, 0), rl}
			if l >= 4 { // 3-4-5: d² = 9k² + 16k² is exact for these
				op.lanes[l] = cluster{geom.V(0.6*at, 0, -0.8*at), rl}
			}
		}
		cases = append(cases, op)
	}
	// Signed zeros and coincident clusters: d² = 0 against s² = 0 and s² > 0.
	negZero := math.Copysign(0, -1)
	var zeros operands
	zeros.node = cluster{geom.V(negZero, 0, negZero), 0}
	for l := range zeros.lanes {
		zeros.lanes[l] = cluster{geom.V(0, negZero, 0), float64(l%2) * 5e-324}
	}
	cases = append(cases, zeros)

	for ci, op := range cases {
		var tile rowTile
		for l, c := range op.lanes {
			tile.set(l, c.c, c.r)
		}
		for mi, mac := range macs {
			ph := listPhase{mac: mac}
			var want uint8
			for l, c := range op.lanes {
				if ph.verdict(openingDist2(c.c, op.node.c), c.r, op.node.r) {
					want |= 1 << l
				}
			}
			got := openFar8(&tile, op.node.c.X, op.node.c.Y, op.node.c.Z, op.node.r, mac)
			lanes := openFar8Lanes(&tile, op.node.c.X, op.node.c.Y, op.node.c.Z, op.node.r, mac)
			if got != want || lanes != want {
				t.Fatalf("case %d, multiplier %d: openFar8 %08b, its portable lanes %08b, verdict %08b", ci, mi, got, lanes, want)
			}
			for open := 0; open < 1<<tileLanes; open++ {
				if got := ph.admit(&tile, op.node.c, op.node.r, uint8(open)); got != want&uint8(open) {
					t.Fatalf("case %d, multiplier %d, open %08b: admitted %08b, verdict admits %08b",
						ci, mi, open, got, want&uint8(open))
				}
			}
		}
	}
	t.Logf("%d tiles x %d multipliers, every open mask (assembly: %v)", len(cases), len(macs), useAsmKernels)
}

// The mutuality rule on chains no molecule here produces: a path of up to
// twenty ancestors — three blocks, every tail length — with clusters placed
// so that none, the nearest, the farthest or a middle one is far from row
// u, just beyond the opening distance or well beyond it. reaches over ancestors'
// padded tiles must say what the scalar walk up the parents says.
func TestReachesMatchesScalarChain(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	outcomes := [2]int{}
	for depth := 0; depth <= 20; depth++ {
		// Node i is the child of node i−1; v = depth is the leaf and u,
		// one past it, the cluster elsewhere.
		v, u := int32(depth), int32(depth+1)
		tree := &octree.Tree{Nodes: make([]octree.Node, depth+2)}
		ph := listPhase{atoms: tree, mac: 2, up: make([]int32, depth+2)}
		for i := range ph.up {
			ph.up[i] = int32(i) - 1 // octree.NoChild above the root
		}
		for trial := 0; trial < 100; trial++ {
			un := &tree.Nodes[u]
			un.Center, un.Radius = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(30), 2*rng.Float64()
			farOne := -1 // the one ancestor that is far, if any
			if depth > 0 && trial%2 == 1 {
				farOne = []int{0, depth - 1, rng.Intn(depth)}[trial/2%3]
			}
			for a := 0; a < depth; a++ {
				nd := &tree.Nodes[a]
				nd.Radius = 3 * rng.Float64()
				f := 0.5 // inside the opening distance
				if a == farOne {
					f = []float64{1.1, 3}[trial/6%2] // just beyond it, or well beyond
				}
				dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
				nd.Center = un.Center.Add(dir.Scale(f * (nd.Radius + un.Radius) * ph.mac / math.Sqrt(dir.Norm2())))
			}
			want := true
			for a := ph.up[v]; a != octree.NoChild; a = ph.up[a] {
				if ph.verdict(openingDist2(un.Center, tree.Nodes[a].Center), un.Radius, tree.Nodes[a].Radius) {
					want = false
				}
			}
			if want != (farOne < 0) {
				t.Fatalf("depth %d, trial %d: the fixture placed ancestor %d far and the scalar rule says reaches = %v", depth, trial, farOne, want)
			}
			chain := ph.ancestors(nil, v)
			if len(chain) != (depth+tileLanes-1)/tileLanes {
				t.Fatalf("depth %d: %d ancestors in %d tiles", depth, depth, len(chain))
			}
			if got := ph.reaches(chain, u); got != want {
				t.Fatalf("depth %d, trial %d (ancestor %d far): reaches = %v, the scalar walk says %v", depth, trial, farOne, got, want)
			}
			if want {
				outcomes[1]++
			} else {
				outcomes[0]++
			}
		}
	}
	if outcomes[0] < 500 || outcomes[1] < 500 {
		t.Errorf("%d chains with a far ancestor, %d without: one side is barely exercised", outcomes[0], outcomes[1])
	}
}
