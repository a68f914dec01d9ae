package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/wire"
)

// Certificates on demand (ilist.go, ilist_repair.go): a compile builds the
// index lists in one descent and the first repair materialises the
// certificate. The digests in codGoldens were computed by the helpers of
// this file on the parent commit — where every compile was certified and
// count-then-fill — before any other line of the change was written.

// certifyLists materialises the certificate of sys's cached lists, as the
// first UpdateAtomsRepair would.
func certifyLists(t testing.TB, sys *System, pool *sched.Pool) {
	t.Helper()
	sys.listsMu.Lock()
	defer sys.listsMu.Unlock()
	cl, err := sys.materialize(sys.lists, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.lists = cl
}

// indexOf and certificateOf are the two halves of a list: the arrays an
// evaluation reads, and the margins a repair reads.
func indexOf(il *InteractionLists) *InteractionLists {
	return &InteractionLists{Rows: il.Rows, FarOff: il.FarOff, Far: il.Far, NearOff: il.NearOff, Near: il.Near,
		SymOff: il.SymOff, Sym: il.Sym, CedeOff: il.CedeOff, Cede: il.Cede, FarOrd: il.FarOrd}
}

func certificateOf(il *InteractionLists) *InteractionLists {
	return &InteractionLists{FarMargin: il.FarMargin, FarPath: il.FarPath, NearMargin: il.NearMargin,
		NearPath: il.NearPath, SymPath: il.SymPath, CedePath: il.CedePath}
}

// digest is the SHA-256 of the snapshot encoding of the chosen halves of
// cl's lists (the node snapshot belongs to the certificate): every array
// behind its length, little-endian words, at the speed of the bulk codec
// rather than of a loop over elements.
func digest(cl *CompiledLists, index, certificate bool) string {
	h := sha256.New()
	w := wire.NewStreamWriter(h)
	for _, il := range []*InteractionLists{cl.Born, cl.Epol} {
		if index {
			appendIL(w, indexOf(il))
		}
		if certificate {
			appendIL(w, certificateOf(il))
		}
	}
	if certificate {
		wire.PutF64Records(w, cl.nodeC)
		w.F64s(cl.nodeR)
	}
	w.Flush() // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

func indexDigest(cl *CompiledLists) string       { return digest(cl, true, false) }
func certificateDigest(cl *CompiledLists) string { return digest(cl, false, true) }

// repairChain walks sys through cumulative local jiggles, each repaired in
// place (and, with recheck, compared against a fresh compile). It returns
// one digest per step — the index, and the certificate when the step
// repaired — the digest of those digests, and which steps repaired.
func repairChain(t *testing.T, sys *System, pool *sched.Pool, steps int, recheck bool) (digests []string, chain string, repaired []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(405))
	pos := sys.Mol.Positions()
	whole := sha256.New()
	for step := 0; step < steps; step++ {
		pos = localJiggle(rng, pos, 0.05)
		stats, err := sys.UpdateAtomsRepair(pos, pool, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if recheck {
			if err := sys.RecheckLists(pool); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		cur := sys.Lists(pool) // compiles afresh after a rebuild
		if stats.Repaired != cur.certified() {
			t.Fatalf("step %d: repaired %v, lists certified %v", step, stats.Repaired, cur.certified())
		}
		digests = append(digests, digest(cur, true, stats.Repaired))
		whole.Write([]byte(digests[step]))
		repaired = append(repaired, stats.Repaired)
	}
	return digests, hex.EncodeToString(whole.Sum(nil)), repaired
}

var codGoldens = []struct {
	mol                        func() *molecule.Molecule
	farOrder                   int
	index, certificate, repair string
}{
	{codProtein, 0, "a41a3bd32f43a5785eee9d9e78b1661267426fcc7a68281a6a90a140c5e00e0f", "f8f006f8936afcdbe07d2c8eb0507e04b776a421e14ebb158f86657c3e4c80de", "0d36fafe4b2dc1d4a1dcfae9a156aa9e9ed866b9419958d2ba49ff54e4e2bc18"},
	{codProtein, 1, "3fa57484508d77643191696eae93da831bcd15bb1d81ebd29725d16c6ab63ebe", "f8f006f8936afcdbe07d2c8eb0507e04b776a421e14ebb158f86657c3e4c80de", "ada9e4cdcce7f66d01191e432fc91c63fa83378aa366199fdf91bd12e67da70c"},
	{codProtein, 2, "58b50d7b6192d7648842845815533a2589ceb1ff6a895ff6bfbfb3d074df4c79", "0f8ed4bb7b0489206d4e6d7ff06a729a08daac0678e5bf25c7424cb49ef21151", "da25631470d431689254d0639196ce6f28e758839e9d73d330b22255ecb5830e"},
	{codCapsid, 0, "5affb5d64d1257d2dab2065dad6c8d0cadc1a1edde16e1ea223b9af8df5ea5c7", "3d9c5159db7bc2f16a77e9842001eea3844cb6604ddeff7fa503c56e090eede8", "0b30c6373025dde134006e5317476093dac9173c6f6e582a9d48fee3a4ef20eb"},
	{codCapsid, 1, "a8dcf148ccbc117972afc17b02f6d35f5462204c4c57a349f81cb3679925d189", "3d9c5159db7bc2f16a77e9842001eea3844cb6604ddeff7fa503c56e090eede8", "c0ac4407b14338e28d2a7b3966a3cc62d65eff372771f95ebe4293ef9d1bb22e"},
	{codCapsid, 2, "1bae88ff1910c8ca420d08afbd7cab16bd42626a02c3fd492c4f7bd727a232a1", "e597f6f61b27ae542ef579612070eaf23eb991134c162fb5d3f4c39f365fa288", "064f49bc98fb0168cfe39aedded0321f5fe7a947eb1f00ce78df3c6c8d48368b"},
	{codTwoAtom, 0, "4b054cbe48ed3e7c0c767faecaa751029bc95032b9f75889e08c3ac65028a803", "26696f6681391e613148f707881f88398f01e528561c7aee650904f065c22551", "9ca94897851448ee424664e133e1bfde8ce9bad12f5494fa44d5c1ad98f9bb37"},
	{codTwoAtom, 1, "976d1c29b09319ac5e6532e0756544015cb9434774bfa08ca9e35078b7a55ccc", "26696f6681391e613148f707881f88398f01e528561c7aee650904f065c22551", "828849a5efbe83c6cf67b75a4e3aa0945753bca6e9f731bffa0ab0a6d144c5a7"},
	{codTwoAtom, 2, "976d1c29b09319ac5e6532e0756544015cb9434774bfa08ca9e35078b7a55ccc", "26696f6681391e613148f707881f88398f01e528561c7aee650904f065c22551", "828849a5efbe83c6cf67b75a4e3aa0945753bca6e9f731bffa0ab0a6d144c5a7"},
	{codOneLeaf, 0, "e0fada2a0ebead4b7fc573a84a3a76e8e6e7e6b9ddb36d822afc85bc3a1f7f90", "9c0e9544b2971bd576224c933c69acbbe9918afd17946dd9a4d258702bd2ab48", "d10279a10a1a97b55544a7cb9068dd75eaf8a24955dfc28b569de4f8746879f6"},
	{codOneLeaf, 1, "e0fada2a0ebead4b7fc573a84a3a76e8e6e7e6b9ddb36d822afc85bc3a1f7f90", "9c0e9544b2971bd576224c933c69acbbe9918afd17946dd9a4d258702bd2ab48", "d10279a10a1a97b55544a7cb9068dd75eaf8a24955dfc28b569de4f8746879f6"},
	{codOneLeaf, 2, "e0fada2a0ebead4b7fc573a84a3a76e8e6e7e6b9ddb36d822afc85bc3a1f7f90", "9c0e9544b2971bd576224c933c69acbbe9918afd17946dd9a4d258702bd2ab48", "d10279a10a1a97b55544a7cb9068dd75eaf8a24955dfc28b569de4f8746879f6"},
}

// codSteps is the length of the repair chains.
const codSteps = 12

func codProtein() *molecule.Molecule { return molecule.GenProtein("protein1500", 1500, 401) }
func codCapsid() *molecule.Molecule  { return molecule.GenCapsid("capsid", 900, 14, 19, 402) }
func codTwoAtom() *molecule.Molecule { return molecule.GenProtein("two-atom", 2, 403) }
func codOneLeaf() *molecule.Molecule { return molecule.GenProtein("one-leaf", 6, 404) }

func TestCertificatesOnDemand(t *testing.T) {
	for _, g := range codGoldens {
		t.Run(fmt.Sprintf("%s/order%d", g.mol().Name, g.farOrder), func(t *testing.T) {
			forPools(t, func(t *testing.T, pool *sched.Pool) {
				if raceEnabled && (pool == nil || pool.NumWorkers() == 1) {
					t.Skip("one goroutine: nothing for the race detector to find, at fifteen times the price")
				}
				build := func() *System { return fixtureSystem(t, g.mol(), g.farOrder) }

				// (a) The one-descent compile: the parent's index, no certificate.
				sys := build()
				cl := sys.Lists(pool)
				if cl.certified() || cl.CertificateBytes() != 0 {
					t.Fatal("a compile materialised the certificate")
				}
				if got := indexDigest(cl); got != g.index {
					t.Errorf("index digest %s, the parent commit's is %s", got, g.index)
				}
				if cl.MemoryBytes() != cl.IndexBytes() {
					t.Errorf("MemoryBytes %d, the index is %d", cl.MemoryBytes(), cl.IndexBytes())
				}

				// (d) An uncertified snapshot restores uncertified lists that a
				// first repair can still repair.
				cold := roundTrip(t, sys)
				if cold.lists.certified() || indexDigest(cold.lists) != g.index {
					t.Error("snapshot of uncertified lists did not restore them as they were")
				}

				// (e) Uncertified lists survive a re-pose like certified ones.
				e0, err := RunShared(sys, SharedOptions{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				posed := build()
				posed.Lists(pool)
				posed.ApplyRigidTransform(geom.Translate(geom.V(11, -3, 7)).Compose(geom.RotateAxis(geom.V(1, 2, 3), 0.9)))
				e1, err := RunShared(posed, SharedOptions{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				if d := relErr(e1.Epol, e0.Epol); d > 1e-12 || posed.lists.certified() {
					t.Errorf("re-posed E_pol %.17g is %.3g from pose 0's %.17g (certified: %v)",
						e1.Epol, d, e0.Epol, posed.lists.certified())
				}

				// (c) The chain from uncertified lists, materialising in step 0.
				stepsCold, chainCold, repaired := repairChain(t, sys, pool, codSteps, true)
				if chainCold != g.repair {
					t.Errorf("repair chain from uncertified lists %s, the parent commit's is %s", chainCold, g.repair)
				}

				// (b) The materialised certificate: the parent's, bit for bit,
				// over the same index.
				warm := build()
				warm.Lists(pool)
				certifyLists(t, warm, pool)
				if got := certificateDigest(warm.lists); got != g.certificate || indexDigest(warm.lists) != g.index {
					t.Errorf("certificate digest %s, the parent commit's is %s (index equal: %v)",
						got, g.certificate, indexDigest(warm.lists) == g.index)
				}
				if want := warm.lists.IndexBytes() + warm.lists.CertificateBytes(); warm.lists.MemoryBytes() != want || warm.lists.CertificateBytes() == 0 {
					t.Errorf("MemoryBytes %d, index + certificate is %d", warm.lists.MemoryBytes(), want)
				}
				hot := roundTrip(t, warm)
				if !hot.lists.certified() || certificateDigest(hot.lists) != g.certificate || indexDigest(hot.lists) != g.index {
					t.Error("snapshot of certified lists did not restore them as they were")
				}

				// (c) again, from certified lists: the same chain step for step.
				stepsWarm, chainWarm, _ := repairChain(t, warm, pool, codSteps, false)
				for i := range stepsWarm {
					if stepsWarm[i] != stepsCold[i] {
						t.Fatalf("step %d: chain from certified lists diverges from the chain from uncertified ones", i)
					}
				}
				if chainWarm != g.repair {
					t.Errorf("repair chain from certified lists %s, the parent commit's is %s", chainWarm, g.repair)
				}

				// (d) Both decoded systems take the chain's first step as the
				// live ones did.
				for _, dec := range []*System{cold, hot} {
					steps, _, rep := repairChain(t, dec, pool, 1, false)
					if rep[0] != repaired[0] || steps[0] != stepsCold[0] {
						t.Errorf("decoded system (certified: %v): first repair %v, digest equal %v; live system repaired %v",
							dec == hot, rep[0], steps[0] == stepsCold[0], repaired[0])
					}
				}
				if sys.Mol.NumAtoms() > 100 && !repaired[0] {
					t.Error("the first repair of uncertified lists fell back to a recompile")
				}
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
