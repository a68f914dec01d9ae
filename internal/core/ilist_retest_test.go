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
// of ten-step repair chains under four kinds of motion.

// indexDigest is the SHA-256 of the snapshot encoding of cl's lists, the
// Born lists in the per-row layout they had before tiles (perRowLists, on
// the visit order of atoms): every array behind its length, little-endian
// words, at the speed of the bulk codec rather than of a loop over elements.
func indexDigest(atoms *octree.Tree, cl *CompiledLists) string {
	h := sha256.New()
	w := wire.NewStreamWriter(h)
	appendIL(w, perRowLists(cl.Born, atoms))
	appendIL(w, cl.Epol)
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
	oldBorn := perRowLists(old.Born, sys.Atoms) // rows merged on the visit order they were compiled on
	res, err := sys.Atoms.UpdateTracked(pos)
	if err != nil || res.Rebuilt {
		t.Fatalf("audit: %+v %v", res, err)
	}
	sys.commitAtomPositions(pos)
	d := newTreeDelta(sys.Atoms, before, res.Struct)
	fresh := sys.compile(a.pool)
	bornPh, epolPh := sys.listPhases(old)
	for _, p := range []struct {
		name        string
		ph          listPhase
		old, fresh  *InteractionLists
		rowTreeSize int
	}{
		{"born", bornPh, oldBorn, perRowLists(fresh.Born, sys.Atoms), len(sys.QPts.Nodes)},
		{"epol", epolPh, old.Epol, fresh.Epol, len(sys.Atoms.Nodes)},
	} {
		oldRow := make([]int32, p.rowTreeSize)
		for i := range oldRow {
			oldRow[i] = -1
		}
		for i, r := range p.old.Rows {
			oldRow[r] = int32(i)
		}
		src, _ := p.ph.sources(p.old, p.fresh.Rows, d, nil)
		for k, r := range p.fresh.Rows {
			i := oldRow[r]
			same := i >= 0 && sameRow(p.old, i, p.fresh, int32(k))
			switch {
			case src[k] >= 0 && (src[k] != i || !same):
				t.Fatalf("audit: %s row %d (leaf %d) was kept, and a fresh compile differs", p.name, k, r)
			case src[k] < 0:
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
// entries at the same orders and the same pre-symmetrization near set: what
// a classification produces, whatever the split made of it.
func sameRow(a *InteractionLists, i int32, b *InteractionLists, k int32) bool {
	if !slices.Equal(a.Far[a.FarOff[i]:a.FarOff[i+1]], b.Far[b.FarOff[k]:b.FarOff[k+1]]) {
		return false
	}
	if a.FarOrd != nil && !slices.Equal(a.FarOrd[a.FarOff[i]:a.FarOff[i+1]], b.FarOrd[b.FarOff[k]:b.FarOff[k+1]]) {
		return false
	}
	near := func(il *InteractionLists, i int32) []int32 {
		runs := il.nearRuns(i)
		all := slices.Concat(runs[0], runs[1], runs[2])
		slices.Sort(all)
		return all
	}
	return slices.Equal(near(a, i), near(b, k))
}

var rtwmGoldens = []struct {
	mol      func() *molecule.Molecule
	farOrder int
	index    string
	chains   [4]string // by rtwmModes
}{
	{codProtein, 0, "a41a3bd32f43a5785eee9d9e78b1661267426fcc7a68281a6a90a140c5e00e0f", [4]string{
		"2fd23c75b78a6d781f091df91bc4a69262a57eb48d93a018858b5fcaf87c01c4",
		"c55774b0a2f217456400dd3edf67df6e60bbc1c97e9a365b8c0a11335ff73132",
		"4b54ee5fa4c1df2a7739c01ca0b7ba7adb9c56bfbba729eea1d046329df4a4cd",
		"134b395d17d0553b0c87fb5a2168759094c6f59c229a711473b19573121ae97a"}},
	{codProtein, 1, "3fa57484508d77643191696eae93da831bcd15bb1d81ebd29725d16c6ab63ebe", [4]string{
		"f172187de26e32286ad3d7567d45b87e776ac3a1eadab29a8229935cf53a0236",
		"8851879a9d0478478b6ae8ce0d288d0501b2e658416763c0c7bed8bb74996818",
		"155ef23d6b802cfc70cc0871891db51f410a1fa84140800db5142b372f6624e5",
		"a5345b34b658ef56700b21158f421269e05ee5b2d211f05c981228eb5a092f40"}},
	{codProtein, 2, "58b50d7b6192d7648842845815533a2589ceb1ff6a895ff6bfbfb3d074df4c79", [4]string{
		"5e820e5d38227d006c46eb2729e2b3e3cc9ae40f0591dc0a85759152163541d9",
		"2a4c4a9e49488b7e33c41df7d1e07b7da450c736b7eff0404d808b1107670494",
		"3aa4ee6105fff504c7c82d39d0d37f23e2a3f8133d10f0459c0386e21c65828d",
		"66cff90e4cce58fa7bdeae80b474653da117ed365cf583557de2e4b1016ec722"}},
	{codCapsid, 0, "5affb5d64d1257d2dab2065dad6c8d0cadc1a1edde16e1ea223b9af8df5ea5c7", [4]string{
		"b1380cc59c51ca1b2e55f319a890500724a52a1d1661622fd87b129e847d1f21",
		"9651128d24ee0a72cdb8a186b029a9c0b0fc249a05f805ce73d97c2c8b9515a6",
		"67e4ae90758091b36cce7b37f7a6a31dab3f67c63597122fd0b0c5ea005beed5",
		"b82322bb31541e75ed4f8e2f4835c40eaca761cd30c411a45b96162c0a7d8979"}},
	{codCapsid, 1, "a8dcf148ccbc117972afc17b02f6d35f5462204c4c57a349f81cb3679925d189", [4]string{
		"a40c5d57612d8c416f710f9fa4111b1e037f0d385f242b24b8dcd2d35b079ba5",
		"14d8d4512b9e9e6bf0222aa55519ba7256630ecb7368fbb60eb22340434e330c",
		"d929b0bdee9b917d606b5db9325b1ecc478b097b67bafc1fdeef264996c3d653",
		"2287bfeab66bec1337a8b98631a714ee98a20e73181c251676b032869e11a9c2"}},
	{codCapsid, 2, "1bae88ff1910c8ca420d08afbd7cab16bd42626a02c3fd492c4f7bd727a232a1", [4]string{
		"9ac13427c268df8d34beefeade98db0e2fcf10b4ca886acf4b2477bc21ece27a",
		"5b3db7fb33657f97c3be582756abac33da32ee35e5314b217eed6f2a87c67f44",
		"6c06ef4a4eb113ee92c23287ad13a7a2584481eb1e806e488ba11174fc741436",
		"23084e0e84e9a243d84e7b5db381fa8a9ee89c17c3a3621d8efc00a1b24f1490"}},
	{codTwoAtom, 0, "4b054cbe48ed3e7c0c767faecaa751029bc95032b9f75889e08c3ac65028a803", [4]string{
		"22364c4e26a0f03b2a0937950fc346ecbb3ff05a43372e9af7f70340e73b8f4b",
		"64a5d2148e9cfd1c9d1bb7efa54af0fd2a31de88d94a13fef445162c32ef3c07",
		"5d3d4f8b81a1ed4342949fe7dbdfc3d137eae966370f989ca940f131be77d695",
		"4253207425b3b310adc45b3b56917f86ad2106cafbb5289ce3d88efb01080963"}},
	{codTwoAtom, 1, "976d1c29b09319ac5e6532e0756544015cb9434774bfa08ca9e35078b7a55ccc", [4]string{
		"4f12e227390ee2fa62aa0a8fd1d2e86353b9371933b09c69ab3fcdc3f77f4259",
		"e364154c426d72ccf42e920a2f00ac3da806c0dfecdf8ec33747151f60c350f9",
		"bed6bd0a65958c3765fc6324a1cb69eb1202ab19da5ac196b1511b1eb7133fa8",
		"4253207425b3b310adc45b3b56917f86ad2106cafbb5289ce3d88efb01080963"}},
	{codTwoAtom, 2, "976d1c29b09319ac5e6532e0756544015cb9434774bfa08ca9e35078b7a55ccc", [4]string{
		"4f12e227390ee2fa62aa0a8fd1d2e86353b9371933b09c69ab3fcdc3f77f4259",
		"e364154c426d72ccf42e920a2f00ac3da806c0dfecdf8ec33747151f60c350f9",
		"bed6bd0a65958c3765fc6324a1cb69eb1202ab19da5ac196b1511b1eb7133fa8",
		"4253207425b3b310adc45b3b56917f86ad2106cafbb5289ce3d88efb01080963"}},
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
	{codProtein6000, 1, "9fc049a69528c156c9119a250171744858be5125b126527f4db0fbcf79e0de2e", [4]string{
		"1d0c316650058d4b605c27a5315535ff60ef6144a1e173bcd5ba740d80403512",
		"c8d78e4b35755db493056a4aadea0e208ed32dfa911c5fb0bd2e44c0b08ad577",
		"139b4e38083da6b7a4461fcf176849f0ed7fad0833e920d65fbfdb2768f206d4",
		"f8a27ccd2f25281ba268d9514a2048a0009b4c9051eb3ee9f0b9762ab9e55f6a"}},
	{codProtein6000, 2, "023cfff58a2c74f0a5feeeed545e0ed3cf1d980e045fbf6d2d0c39bac233a7cc", [4]string{
		"923e0afce2bcb9443ed001dda9d7a4f439b1af02950ed48de5a4c7125bc5adcf",
		"a4fec735eae334fd0cda6210770c79347326799e8329a65e9a6c947b20192555",
		"54f6feffae2bfe64ed2cdb674b3683b8f7a5fb50d5f626d2accc637d096eba1c",
		"fde33a6e3e857edee0211a29b929d6852bcd2f9e960efec063f1f073c55a1e71"}},
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
		t.Run(fmt.Sprintf("%s/order%d", g.mol().Name, g.farOrder), func(t *testing.T) {
			sys0 := fixtureSystem(t, g.mol(), g.farOrder)
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
				// the digests were taken. The big fixture is audited under
				// the ladder only: an audited chain costs four plain ones.
				var audit *dirtyAudit
				if (pool == nil || raceEnabled && pool.NumWorkers() == 2) && (!big || g.farOrder == maxFarOrder) {
					audit = &dirtyAudit{pool: auditPool}
				}
				for m, mode := range rtwmModes {
					// A chain starts from a compile, or — snapshot round trip →
					// repair — from the decoded image of one.
					sys := roundTrip(t, sys0)
					if m == 0 {
						sys = fixtureSystem(t, g.mol(), g.farOrder)
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
		for _, a := range [][]int32{il.Rows, il.FarOff, il.Far, il.NearOff, il.Near, il.SymOff, il.Sym, il.CedeOff, il.Cede,
			il.TileFarOff, il.TileFar} {
			bytes += 4 * int64(len(a))
		}
		bytes += int64(len(il.FarOrd) + len(il.TileFarOrd))
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
		t.Run(fmt.Sprintf("%s/order%d", g.mol().Name, g.farOrder), func(t *testing.T) {
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
				sys := fixtureSystem(t, g.mol(), g.farOrder)
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
