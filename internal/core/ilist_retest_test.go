package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/wire"
)

// The differential table of the repair (ilist_repair.go). Every digest in
// rtwmGoldens was computed on the parent commit — where a repair read a
// 16-byte certificate per entry and carried it on — by the helpers of this
// file, over the index arrays alone, before any other line of the change
// was written: the index a compile produces, and the index after every step
// of ten-step repair chains under four kinds of motion. The rows of orders 1
// and 2 (orderParams) were recomputed the same way, every step audited
// against a fresh compile, by the last build that had a far-field ladder,
// at its order 0.

// indexDigest is the SHA-256 of the snapshot encoding of cl's lists of
// their day, both phases' rows merged back (perRowLists, on the visit order
// of atoms) and written as version 5 wrote rows (appendRowsV5): every array
// behind its length, little-endian words, at the speed of the bulk codec
// rather than of a loop over elements. That encoding closed each phase with
// seven empty arrays (six certificate arrays and the per-entry orders, the
// places version 4 kept); they are hashed in here.
func indexDigest(atoms *octree.Tree, cl *CompiledLists) string {
	h := sha256.New()
	w := wire.NewStreamWriter(h)
	for _, il := range []*InteractionLists{cl.Born, cl.Epol} {
		appendRowsV5(w, perRowLists(il, atoms))
		for range 7 {
			w.U32(0)
		}
	}
	w.Flush() // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// jiggleMode is one kind of motion: the atoms within 6 Å of a drawn site
// (localJiggle), or every atom, displaced by σ each step, cumulatively.
type jiggleMode struct {
	name  string
	local bool
	sigma float64
}

// rtwmModes: an MD step; a violent local move (hundreds of leaf changes,
// with materialised, pruned and split leaves); every node moved a little —
// all rows to re-test and most to keep; and every node moved a lot — the
// worst case, thousands of leaf changes a step.
var rtwmModes = [4]jiggleMode{
	{"local0.05", true, 0.05}, {"local0.6", true, 0.6}, {"global0.02", false, 0.02}, {"global0.3", false, 0.3},
}

func (m jiggleMode) step(rng *rand.Rand, pos []geom.Vec3) []geom.Vec3 {
	if m.local {
		return localJiggle(rng, pos, m.sigma)
	}
	return jigglePositions(rng, pos, m.sigma)
}

// rtwmSteps is the length of the repair chains.
const rtwmSteps = 10

// repairChain walks sys through rtwmSteps cumulative jiggles, each repaired
// in place (a step whose octree rebuilds compiles afresh and goes on), and
// returns the digest of the per-step index digests and the number of steps
// that repaired. With an audit (nil otherwise) every step's dirty set is
// audited on a copy of the system first, and the step's lists are held
// against a fresh compile.
func repairChain(t *testing.T, sys *System, pool *sched.Pool, mode jiggleMode, audit *dirtyAudit) (chain string, repaired int) {
	t.Helper()
	rng := rand.New(rand.NewSource(405))
	pos := sys.Mol.Positions()
	whole := sha256.New()
	for step := 0; step < rtwmSteps; step++ {
		pos = mode.step(rng, pos)
		var fresh *CompiledLists
		if audit != nil {
			fresh = audit.step(t, roundTrip(t, sys), pos)
		}
		stats, err := sys.UpdateAtomsRepair(pos, pool, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if stats.Repaired {
			repaired++
		}
		switch {
		case fresh != nil: // RecheckLists, without compiling the same lists again
			if !stats.Repaired {
				t.Fatalf("step %d: the audit's copy tracked the update and the system did not: %+v", step, stats)
			}
			for _, p := range []struct {
				phase      string
				got, fresh *InteractionLists
			}{{"born", sys.lists.Born, fresh.Born}, {"epol", sys.lists.Epol, fresh.Epol}} {
				if err := diffLists(p.phase, p.got, p.fresh); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		case audit != nil:
			if err := sys.RecheckLists(pool); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		whole.Write([]byte(indexDigest(sys.Atoms, sys.Lists(pool))))
	}
	return hex.EncodeToString(whole.Sum(nil)), repaired
}

// dirtyAudit checks the set of rows a repair classifies, step by step, and
// adds up how sharp it was. Its compiles run on pool.
type dirtyAudit struct {
	pool               *sched.Pool
	classified, differ int
}

// step takes the update to pos apart on sys, a copy about to be thrown
// away: the tracked update, the delta, each phase's kept and classified
// rows — then holds them against a fresh compile of the moved geometry.
// Sound: a kept row's cached lists are the fresh ones. Sharp: a classified
// row's lists differ from its cached ones, unless it was classified because
// its own cluster moved — the one reason that does not promise a
// difference. It returns the fresh compile, nil when the step is one that
// rebuilds the octree.
func (a *dirtyAudit) step(t *testing.T, sys *System, pos []geom.Vec3) *CompiledLists {
	t.Helper()
	old := sys.lists
	if !old.matches(sys) || !sys.Atoms.Tracks(pos) {
		return nil // there is no dirty set
	}
	before := geometryOf(sys.Atoms)
	// Rows merged on the visit order they were compiled on.
	oldBorn, oldEpol := perRowLists(old.Born, sys.Atoms), perRowLists(old.Epol, sys.Atoms)
	res, err := sys.Atoms.UpdateTracked(pos)
	if err != nil || res.Rebuilt {
		t.Fatalf("audit: %+v %v", res, err)
	}
	sys.commitAtomPositions(pos)
	d := newTreeDelta(sys.Atoms, before, res.Struct)
	fresh := sys.compile(a.pool)
	bornPh, epolPh := sys.listPhases(old)
	for _, p := range []struct {
		name           string
		ph             listPhase
		old, fresh     *rowLists
		oldIL, freshIL *InteractionLists
		rowTreeSize    int
	}{
		{"born", bornPh, oldBorn, perRowLists(fresh.Born, sys.Atoms), old.Born, fresh.Born, len(sys.QPts.Nodes)},
		{"epol", epolPh, oldEpol, perRowLists(fresh.Epol, sys.Atoms), old.Epol, fresh.Epol, len(sys.Atoms.Nodes)},
	} {
		oldRow := make([]int32, p.rowTreeSize)
		for i := range oldRow {
			oldRow[i] = -1
		}
		for i, r := range p.old.Rows {
			oldRow[r] = int32(i)
		}
		prev, given, _ := p.ph.sources(p.oldIL, p.freshIL, d, nil)
		tileOf := p.freshIL.tileOf()
		for k, r := range p.fresh.Rows {
			i := oldRow[r]
			same := i >= 0 && sameRow(p.old, i, p.fresh, int32(k))
			x := tileOf[k]
			classified := given[x]>>(k-int(p.freshIL.TileOff[x]))&1 != 0
			switch {
			case prev[k] != i:
				t.Fatalf("audit: %s row %d (leaf %d) carries row %d over, it was row %d", p.name, k, r, prev[k], i)
			case !classified && !same:
				t.Fatalf("audit: %s row %d (leaf %d) was kept, and a fresh compile differs", p.name, k, r)
			case classified:
				a.classified++
				if !same {
					a.differ++
				} else if !p.ph.leafFirst || d.state[r] == coldNode {
					t.Fatalf("audit: %s row %d (leaf %d) was classified and came out as it was", p.name, k, r)
				}
			}
		}
	}
	return fresh
}

// sameRow reports whether row i of a and row k of b hold the same far
// entries and the same pre-symmetrization near set: what a classification
// produces, whatever the split made of it.
func sameRow(a *rowLists, i int32, b *rowLists, k int32) bool {
	ac, bc := a.rowCSR(), b.rowCSR()
	if !slices.Equal(ac[runFar].run(int(i)), bc[runFar].run(int(k))) {
		return false
	}
	near := func(c [kindCede + 1]csr, i int32) []int32 {
		all := slices.Concat(c[kindNear].run(int(i)), c[kindSym].run(int(i)), c[kindCede].run(int(i)))
		slices.Sort(all)
		return all
	}
	return slices.Equal(near(ac, i), near(bc, k))
}

// keeps is the re-test for one row, scalar, kept as the oracle of the
// re-test by tiles (retest): whether the cached row of an unmoved cluster
// (center, radius) still stands below hot node n. It is the
// classification's walk for one row, taken on the old and the new geometry
// at once: while both verdicts say "open" it goes on — into hot children
// only — and it gives the row up at the first node whose two verdicts
// differ, or that both descents open and the update restructured.
func (ph *listPhase) keeps(n int32, center geom.Vec3, radius float64, d *treeDelta) bool {
	if int(n) >= len(d.before.r) {
		return false // a new node: the old descent had nothing here
	}
	node, wasLeaf := &ph.atoms.Nodes[n], d.before.leaf[n]
	if ph.leafFirst && (wasLeaf || node.IsLeaf) {
		return wasLeaf == node.IsLeaf // a near leaf, unless split since
	}
	farWas := ph.verdict(openingDist2(center, d.before.c[n]), radius, d.before.r[n])
	far := ph.verdict(openingDist2(center, node.Center), radius, node.Radius)
	switch {
	case far != farWas:
		return false
	case far:
		return true // the same aggregate, whatever is below
	case d.state[n] == restructuredNode:
		return false
	case node.IsLeaf:
		return true
	}
	for _, child := range node.Children {
		if child != octree.NoChild && d.state[child] != coldNode && !ph.keeps(child, center, radius, d) {
			return false
		}
	}
	return true
}

// The re-test takes a tile's rows as the lanes of one descent, carrying the
// lanes open in both geometries, taken far in both and given up; each
// lane's verdict is the scalar re-test's (keeps), and the rows it does not
// test are the ones to classify: over four steps of each motion of the
// table on two fixtures, both phases, every row.
func TestRetestMatchesKeeps(t *testing.T) {
	var verdicts [2]int // kept, given up
	for _, mol := range []func() *molecule.Molecule{codProtein, codCapsid} {
		for _, mode := range rtwmModes {
			sys := fixtureSystem(t, mol(), 0)
			sys.Lists(nil)
			rng := rand.New(rand.NewSource(407))
			pos := sys.Mol.Positions()
			for step := 0; step < 4; step++ {
				pos = mode.step(rng, pos)
				if !sys.Atoms.Tracks(pos) {
					t.Fatalf("%s, %s, step %d: the update does not track", mol().Name, mode.name, step)
				}
				cached, before := sys.lists, geometryOf(sys.Atoms)
				res, err := sys.Atoms.UpdateTracked(pos)
				if err != nil || res.Rebuilt {
					t.Fatalf("%s, %s, step %d: %+v %v", mol().Name, mode.name, step, res, err)
				}
				sys.commitAtomPositions(pos)
				d := newTreeDelta(sys.Atoms, before, res.Struct)
				born, epol := sys.listPhases(cached)
				for p, ph := range []*listPhase{&born, &epol} {
					il := ph.newLists()
					prev, given, _ := ph.sources([...]*InteractionLists{cached.Born, cached.Epol}[p], il, d, nil)
					for x := range il.tiles() {
						lo, hi := il.tileRows(x)
						for k := lo; k < hi; k++ {
							r, gave := il.Rows[k], given[x]>>(k-lo)&1 != 0
							if prev[k] < 0 || ph.leafFirst && d.state[r] != coldNode {
								if !gave {
									t.Fatalf("%s, %s, step %d: row %d, untested, was not given up", mol().Name, mode.name, step, k)
								}
								continue
							}
							rn := &ph.rowTree.Nodes[r]
							if want := !ph.keeps(ph.atoms.Root(), rn.Center, rn.Radius, d); gave != want {
								t.Fatalf("%s, %s, step %d: row %d given up %v by its tile's re-test, %v by its own", mol().Name, mode.name, step, k, gave, want)
							}
							if gave {
								verdicts[1]++
							} else {
								verdicts[0]++
							}
						}
					}
				}
				sys.lists = sys.compile(nil)
			}
		}
	}
	t.Logf("%d rows kept, %d given up", verdicts[0], verdicts[1])
	if verdicts[0] < 1000 || verdicts[1] < 1000 {
		t.Errorf("%d rows kept, %d given up: one verdict is barely exercised", verdicts[0], verdicts[1])
	}
}

var rtwmGoldens = []struct {
	mol    func() *molecule.Molecule
	order  int
	index  string
	chains [4]string // by rtwmModes
}{
	{codProtein, 0, "a41a3bd32f43a5785eee9d9e78b1661267426fcc7a68281a6a90a140c5e00e0f", [4]string{
		"2fd23c75b78a6d781f091df91bc4a69262a57eb48d93a018858b5fcaf87c01c4",
		"c55774b0a2f217456400dd3edf67df6e60bbc1c97e9a365b8c0a11335ff73132",
		"4b54ee5fa4c1df2a7739c01ca0b7ba7adb9c56bfbba729eea1d046329df4a4cd",
		"134b395d17d0553b0c87fb5a2168759094c6f59c229a711473b19573121ae97a"}},
	{codProtein, 1, "9a26df713d88d35b79bd49c6133c723d0eebc35e22d8f4a75711e56aff5ad218", [4]string{
		"5f89da3927c50a0d922bf2a9251c96d7a9f8f4f24564268bbe7aefc842199e00",
		"5343c750480f1edfe121ba1f58fd16b34e95812dbadb5569708ea6c6f8954d2a",
		"b76b2ffc79be1e6f38c77d2700df82939521f97901abd30e34a47c8112511785",
		"7885ee31f416f448743d6a9b838d2f63c3e80fda2bd923f166e37da2ca7293ad"}},
	{codProtein, 2, "1dc741507844dfd452435bb11ccef520e3f74d7ace5c1612629d43c6cb93c6dc", [4]string{
		"e1665a932b1c601c141971abb99f87409e0bf2f84f73fbed010c07aed7a3d9bf",
		"c93f72e62892a0426bdc9302158984bb0c73c85b830cd1d546af19c866b3e2dc",
		"a219f478e3238d5e9932c6c67bb7d7de54f047165f87cfb6514f8601a2fc3888",
		"63dd8a067c0065ce016f952fa1ea157098180fe59de9a8e74466dd32f6a1e57c"}},
	{codCapsid, 0, "5affb5d64d1257d2dab2065dad6c8d0cadc1a1edde16e1ea223b9af8df5ea5c7", [4]string{
		"b1380cc59c51ca1b2e55f319a890500724a52a1d1661622fd87b129e847d1f21",
		"9651128d24ee0a72cdb8a186b029a9c0b0fc249a05f805ce73d97c2c8b9515a6",
		"67e4ae90758091b36cce7b37f7a6a31dab3f67c63597122fd0b0c5ea005beed5",
		"b82322bb31541e75ed4f8e2f4835c40eaca761cd30c411a45b96162c0a7d8979"}},
	{codCapsid, 1, "52008c52e185e2f874a1665df932901afb00230cf111bb9d19e2632bbdde02fa", [4]string{
		"de910f068db4fd83766d95de8a9521bc9bc1ed1953c63b1c692dc45008a9f0e8",
		"71465ae213ddb2972c721ea126fe47f2c05fe20dee5a21afc87b1711c5eff3bd",
		"5ac65e8bce00677e538141dd832c0881d095df007835a638cb260c4251f6a3fd",
		"09bac50a0da698f02a5754b21e7bf98d479a454f672f3ca809e85d48515a6888"}},
	{codCapsid, 2, "c16910972c5456ccfdc7e76b46e29ae00bf494b407cf01131ea8670933f84699", [4]string{
		"d825181fe2be9b34e8dfbc5311422f6ee6f7567d9c1f5a8018d6d9953c007e6f",
		"66d7a5fb0f0d337825b0f2b642f879f838ec24bc00286d585491f6cf5d5409a8",
		"a90961bcf879ce53fc2eb8d731758c98450195a7877261856122f0fabf322580",
		"029e4209a844e8b6724d25052ce0f6af94a6ac674e1786b6416914067cf8b447"}},
	{codTwoAtom, 0, "4b054cbe48ed3e7c0c767faecaa751029bc95032b9f75889e08c3ac65028a803", [4]string{
		"22364c4e26a0f03b2a0937950fc346ecbb3ff05a43372e9af7f70340e73b8f4b",
		"64a5d2148e9cfd1c9d1bb7efa54af0fd2a31de88d94a13fef445162c32ef3c07",
		"5d3d4f8b81a1ed4342949fe7dbdfc3d137eae966370f989ca940f131be77d695",
		"4253207425b3b310adc45b3b56917f86ad2106cafbb5289ce3d88efb01080963"}},
	{codTwoAtom, 1, "4b054cbe48ed3e7c0c767faecaa751029bc95032b9f75889e08c3ac65028a803", [4]string{
		"22364c4e26a0f03b2a0937950fc346ecbb3ff05a43372e9af7f70340e73b8f4b",
		"64a5d2148e9cfd1c9d1bb7efa54af0fd2a31de88d94a13fef445162c32ef3c07",
		"5d3d4f8b81a1ed4342949fe7dbdfc3d137eae966370f989ca940f131be77d695",
		"4253207425b3b310adc45b3b56917f86ad2106cafbb5289ce3d88efb01080963"}},
	{codTwoAtom, 2, "f1c99ab7c5144f44615c07544dd29e4a30db715312070cdb51548992c30bcbaa", [4]string{
		"817e5fb32c1ebd76e8786123bd35962fd7468ec067f759882876328e1f26ca07",
		"acfd4e47a402e4a9b0c732ad4ff9d1e916061ef56c1c20befb4ae947c0759575",
		"377bd0e6e4b924e30f6ed804df60d392f5506f6de3adaf3a0fbeecd15c603b14",
		"23e80bd350a33586ed747a6e1166ba8f8fd8636b099ff16b411106c8069ad2ac"}},
	{codOneLeaf, 0, "e0fada2a0ebead4b7fc573a84a3a76e8e6e7e6b9ddb36d822afc85bc3a1f7f90", [4]string{
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e"}},
	{codOneLeaf, 1, "e0fada2a0ebead4b7fc573a84a3a76e8e6e7e6b9ddb36d822afc85bc3a1f7f90", [4]string{
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e"}},
	{codOneLeaf, 2, "e0fada2a0ebead4b7fc573a84a3a76e8e6e7e6b9ddb36d822afc85bc3a1f7f90", [4]string{
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e",
		"3adbe9f37d08ba705d3749d2153ab79c9ff1d9d5e818fd87d5bcb661b0631c2e"}},
	{codProtein6000, 0, "9e0008bd96a6343322c5457694c1bfcd90ad2c19972dfafe728d365085b5b7a2", [4]string{
		"a87340539ee60bbecb737a90206de6e7d8f50a16f56dd95aaf8cfad9be62f662",
		"2a399f60f48294fe4f7b3b07ca2f0ae56561aca89ec632c02baa727df03cd355",
		"48ec76322934d66b55c1830f086a3a77d7ddc50adbed2e44815461ff534ef90c",
		"27bc8177c04d26ddaf538dae6722704fe3b059a788001365c0853bbef57dbc45"}},
	{codProtein6000, 1, "bd401ca16bdb5c198b69334649099f51a17d457df5c69c8303aeb19503492ad5", [4]string{
		"c92a795247a037548067a87bb9f3cacd7c324b8b9a7de8ce20102190d0b74848",
		"992f25a2bba8e7239a97ba3b0581e7c64b6f93de6482cfeecc89bb779160152e",
		"deced85c12e6cba177f1c83d8a309c792fc23189cf4302f58bb4cebf770298e1",
		"1298bab2dd5e25c761e1855fd4dd6724fabdcf63b9ae0f7591e7d222f8c761d3"}},
	{codProtein6000, 2, "97caddb015b1678e8a276d88e169554b469fef7ad17c1e06bdcc7b14963b10f9", [4]string{
		"61d8a4bb7865b71a9208523c75b5cc40f7338d9c8136aec1e73c57a29651325d",
		"5885f9006d74c9d7a78fa6c9609b4d9b3b862e1ada80209fae332749ec857494",
		"c14d6f12b4a174628fa0d292465f23f1155501985d425cd586d1dd294ce5b002",
		"49c09c2209f28d49e05908da0100e34a41d38607ada41892a0656eafb7a37534"}},
}

func codProtein() *molecule.Molecule     { return molecule.GenProtein("protein1500", 1500, 401) }
func codCapsid() *molecule.Molecule      { return molecule.GenCapsid("capsid", 900, 14, 19, 402) }
func codTwoAtom() *molecule.Molecule     { return molecule.GenProtein("two-atom", 2, 403) }
func codOneLeaf() *molecule.Molecule     { return molecule.GenProtein("one-leaf", 6, 404) }
func codProtein6000() *molecule.Molecule { return molecule.GenProtein("protein6000", 6000, 406) }

// skipOneGoroutine skips the table's single-goroutine variants under the
// race detector.
func skipOneGoroutine(t *testing.T, pool *sched.Pool) {
	if raceEnabled && (pool == nil || pool.NumWorkers() == 1) {
		t.Skip("one goroutine: nothing for the race detector to find, at fifteen times the price")
	}
}

func TestRepairRetestsWhatMoved(t *testing.T) {
	auditPool := sched.NewPool(2)
	defer auditPool.Close()
	for _, g := range rtwmGoldens {
		t.Run(fmt.Sprintf("%s/order%d", g.mol().Name, g.order), func(t *testing.T) {
			sys0 := fixtureSystem(t, g.mol(), g.order)
			if got := indexDigest(sys0.Atoms, sys0.Lists(nil)); got != g.index {
				t.Fatalf("index digest %s, the parent commit's is %s", got, g.index)
			}
			big := sys0.Mol.NumAtoms() > 2000
			forPools(t, func(t *testing.T, pool *sched.Pool) {
				skipOneGoroutine(t, pool)
				if raceEnabled && big && pool.NumWorkers() != 4 {
					t.Skip("the race detector has the smaller fixtures for these")
				}
				t.Parallel() // the pool sizes of one fixture, side by side
				// The serial run (the two-worker one under the race
				// detector) also audits every step's dirty set and holds its
				// lists against a fresh compile; the others are pinned to the
				// same digests, so to the same lists — and on the parent
				// commit every step of every chain passed RecheckLists when
				// the digests were taken. The big fixture is audited at order 0
				// only: an audited chain costs four plain ones.
				var audit *dirtyAudit
				if (pool == nil || raceEnabled && pool.NumWorkers() == 2) && (!big || g.order == 0) {
					audit = &dirtyAudit{pool: auditPool}
				}
				for m, mode := range rtwmModes {
					// A chain starts from a compile, or — snapshot round trip →
					// repair — from the decoded image of one.
					sys := roundTrip(t, sys0)
					if m == 0 {
						sys = fixtureSystem(t, g.mol(), g.order)
						if got := indexDigest(sys.Atoms, sys.Lists(pool)); got != g.index {
							t.Fatalf("index digest %s, the parent commit's is %s", got, g.index)
						}
					}
					chain, repaired := repairChain(t, sys, pool, mode, audit)
					if chain != g.chains[m] {
						t.Errorf("%s: repair chain %s, the parent commit's is %s", mode.name, chain, g.chains[m])
					}
					if sys.Mol.NumAtoms() > 100 && repaired != rtwmSteps {
						t.Errorf("%s: %d of %d steps repaired", mode.name, repaired, rtwmSteps)
					}
					if m > 0 {
						continue
					}
					// Re-pose → repair still rebuilds: a rigid transform
					// empties the root cube, and no list survives a rebuild.
					sys.ApplyRigidTransform(geom.Translate(geom.V(3, 0, 0)))
					posed := sys.Mol.Positions()
					for i := range posed {
						posed[i] = posed[i].Add(geom.V(3, 0, 0))
					}
					if stats, err := sys.UpdateAtomsRepair(posed, pool, nil); err != nil || !stats.Rebuilt || stats.Repaired || sys.lists != nil {
						t.Errorf("update after a re-pose: %+v %v (lists kept: %v)", stats, err, sys.lists != nil)
					}
				}
				if audit != nil && audit.classified > 0 {
					t.Logf("dirty set: %d rows classified over the four chains, %d of them (%.0f %%) came out different",
						audit.classified, audit.differ, 100*float64(audit.differ)/float64(audit.classified))
				}
			})
		})
	}
}

// listFootprint adds up the arrays of cl by hand.
func listFootprint(cl *CompiledLists) (bytes int64) {
	for _, il := range []*InteractionLists{cl.Born, cl.Epol} {
		for _, a := range [][]int32{il.Rows, il.OwnFarOff, il.OwnFar, il.OwnNearOff, il.OwnNear, il.OwnSymOff, il.OwnSym,
			il.TileOff, il.TileFarOff, il.TileFar, il.TileNearOff, il.TileNear, il.TileSymOff, il.TileSym} {
			bytes += 4 * int64(len(a))
		}
		for _, m := range [][]uint8{il.OwnFarMask, il.OwnNearMask, il.OwnSymMask} {
			bytes += int64(len(m))
		}
	}
	return bytes
}

// TestCertificatesOnDemand keeps the name the test floor has known its
// sixty subtests by since PR 19, when a first repair added a 16-byte
// certificate to every entry. The demand no longer comes: whatever is asked
// of a system — a compile, a re-pose, a checkpoint, a repair — its lists
// hold their index, a checkpoint of them holds what they hold, and the
// accounting says so.
func TestCertificatesOnDemand(t *testing.T) {
	for _, g := range rtwmGoldens {
		if g.mol().NumAtoms() > 2000 {
			continue
		}
		t.Run(fmt.Sprintf("%s/order%d", g.mol().Name, g.order), func(t *testing.T) {
			forPools(t, func(t *testing.T, pool *sched.Pool) {
				skipOneGoroutine(t, pool)
				holdsIndex := func(what string, sys *System) {
					t.Helper()
					cl := sys.Lists(pool)
					if want := listFootprint(cl); cl.MemoryBytes() != want || sys.Memory().ListIndex != want {
						t.Errorf("%s: MemoryBytes %d, Memory().ListIndex %d, the arrays add up to %d",
							what, cl.MemoryBytes(), sys.Memory().ListIndex, want)
					}
				}
				sys := fixtureSystem(t, g.mol(), g.order)
				if got := indexDigest(sys.Atoms, sys.Lists(pool)); got != g.index {
					t.Errorf("index digest %s, the parent commit's is %s", got, g.index)
				}
				holdsIndex("compiled", sys)
				compiled, err := EncodeSnapshot(sys)
				if err != nil {
					t.Fatal(err)
				}

				// A re-pose keeps the lists and the energy.
				e0, err := RunShared(sys, SharedOptions{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				posed := roundTrip(t, sys)
				if indexDigest(posed.Atoms, posed.lists) != g.index {
					t.Error("the snapshot did not restore the lists as they were")
				}
				posed.ApplyRigidTransform(geom.Translate(geom.V(11, -3, 7)).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.9)))
				e1, err := RunShared(posed, SharedOptions{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				if d := relErr(e1.Epol, e0.Epol); d > 1e-12 {
					t.Errorf("re-posed E_pol %.17g is %.3g from pose 0's %.17g", e1.Epol, d, e0.Epol)
				}
				holdsIndex("re-posed", posed)

				// A repair leaves lists of the same kind, and a checkpoint of
				// them grows by what they grew (and a few octree nodes), not
				// by three times the lists.
				before := sys.Lists(pool).MemoryBytes()
				pos := localJiggle(rand.New(rand.NewSource(405)), sys.Mol.Positions(), 0.05)
				if _, err := sys.UpdateAtomsRepair(pos, pool, nil); err != nil {
					t.Fatal(err)
				}
				holdsIndex("repaired", sys)
				repaired, err := EncodeSnapshot(sys)
				if err != nil {
					t.Fatal(err)
				}
				if grew, want := int64(len(repaired)-len(compiled)), sys.Lists(pool).MemoryBytes()-before; grew-want > before/8 {
					t.Errorf("the checkpoint grew by %d bytes over a repair, the lists by %d", grew, want)
				}
				holdsIndex("restored", roundTrip(t, sys))
			})
		})
	}
}

// roundTrip encodes and decodes sys.
func roundTrip(t *testing.T, sys *System) *System {
	t.Helper()
	data, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.lists == nil {
		t.Fatal("the snapshot dropped the lists")
	}
	return got
}
