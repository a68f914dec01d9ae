package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/wire"
)

// The Born tile (InteractionLists.TileFar, bornTile) against the per-row
// layout the Born lists had before it: the lists merged back into rows, the
// kernels against the per-row sweep of those rows.

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

// perRowLists returns il in the layout without tiles: every row's far run is
// its tile's shared run and its own merged back on visit order of atoms.
// Lists without tiles come back as they are.
func perRowLists(il *InteractionLists, atoms *octree.Tree) *InteractionLists {
	if il.TileFarOff == nil {
		return il
	}
	visit := visitOrder(atoms)
	out := *il
	out.TileFarOff, out.TileFar = nil, nil
	out.FarOff, out.Far = make([]int32, len(il.Rows)+1), nil
	for i := range il.Rows {
		shared := il.tileFar(i / tileLanes)
		own := il.Far[il.FarOff[i]:il.FarOff[i+1]]
		for len(shared)+len(own) > 0 {
			run := &own
			if len(own) == 0 || len(shared) > 0 && visit[shared[0]] < visit[own[0]] {
				run = &shared
			}
			out.Far = append(out.Far, (*run)[0])
			*run = (*run)[1:]
		}
		out.FarOff[i+1] = int32(len(out.Far))
	}
	return &out
}

// bornOracle evaluates every row of the per-row lists il into acc, one
// after the other: the full-set per-row far loop the tile sweep replaced,
// kept here as its oracle (bornRow walks a row's whole far run, which per
// row is all of it).
func bornOracle(sys *System, il *InteractionLists, acc *bornAccum) {
	for row := range il.Rows {
		bornRow(sys, il, row, acc)
	}
}

// sameBits reports the first element of two float64 sums whose bits differ.
func sameBits(name string, got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] %#x (%.17g), the per-row sweep %#x (%.17g)",
				name, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	return nil
}

// sameAccum compares the node sums of two accumulators bit for bit, the
// atom sums too when atoms is set, and their op counts.
func sameAccum(got, want *bornAccum, atoms bool) error {
	if got.ops != want.ops {
		return fmt.Errorf("%v ops, the per-row sweep %v", got.ops, want.ops)
	}
	if err := sameBits("node", got.node, want.node); err != nil {
		return err
	}
	if atoms {
		return sameBits("atom", got.atom, want.atom)
	}
	return nil
}

// The tile sweep — its AVX2 kernel where the host has one, its portable
// loop — against the per-row sweep of the same rows merged back, at one
// worker: every node and atom sum bit for bit, and the op count, under both
// kernels, on both tiers; then the shared sweep alone on tiles of 1 to 8
// rows.
func TestBornTileKernelMatchesRows(t *testing.T) {
	host := useAsmKernels
	defer func() { useAsmKernels = host }()
	for _, kern := range []BornKernel{R6, R4} {
		p := mortonParams()
		p.Kernel = kern
		sys, _, _ := testSystem(t, 700, 40, p)
		il := sys.Lists(nil).Born
		rows := perRowLists(il, sys.Atoms)
		if len(il.TileFar) == 0 || len(il.Rows)%tileLanes == 0 {
			t.Fatalf("kernel %v: %d shared entries over %d rows: no shared run or no short tile", kern, len(il.TileFar), len(il.Rows))
		}
		for _, prec := range []Precision{PrecisionExact, PrecisionLanes} {
			sys.Params.Precision = prec
			var swept []*bornAccum
			for _, asm := range []bool{host, false} {
				useAsmKernels = asm
				want, got := newBornAccum(sys), newBornAccum(sys)
				bornOracle(sys, rows, want)
				for tile := range numTiles(len(il.Rows)) {
					bornTile(sys, il, tile, got)
				}
				if err := sameAccum(got, want, true); err != nil {
					t.Errorf("kernel %v, %v, asm %v: %v", kern, prec, asm, err)
				}
				swept = append(swept, got)
			}
			// The assembly and the portable loop: the far sums agree too
			// (the laned tier's near kernel differs by design).
			if err := sameAccum(swept[0], swept[1], prec == PrecisionExact); err != nil {
				t.Errorf("kernel %v, %v: assembly against portable: %v", kern, prec, err)
			}
		}
	}

	// Every tile length, on rows and nodes drawn from a real list, far
	// enough apart that every term is finite.
	sys, _, _ := testSystem(t, 700, 42, mortonParams())
	il := sys.Lists(nil).Born
	rng := rand.New(rand.NewSource(43))
	for _, kern := range []BornKernel{R6, R4} {
		sys.Params.Kernel = kern
		for n := 1; n <= tileLanes; n++ {
			lo := tileLanes * rng.Intn(len(il.Rows)/tileLanes)
			rows := il.Rows[lo : lo+n]
			shared := il.tileFar(lo / tileLanes)
			for _, asm := range []bool{host, false} {
				useAsmKernels = asm
				want, got := newBornAccum(sys), newBornAccum(sys)
				for _, leaf := range rows {
					bornFar0(sys, leaf, shared, want.node)
				}
				bornFarShared(sys, rows, shared, got.node)
				if err := sameBits("node", got.node, want.node); err != nil {
					t.Errorf("kernel %v, tile of %d rows, asm %v: %v", kern, n, asm, err)
				}
			}
		}
	}
}

// The tiled Born lists are the scalar descent's, rows merged back: each
// row's shared ∪ own on visit order is the oracle's row, each tile's shared
// run is the intersection of its rows' (hoistTiles of the oracle, the
// decoding of a version-2 image), and the output is the same on any pool —
// at every order (orderParams), compiled, and after tracked updates have
// moved atoms and repaired the lists.
func TestBornTileListsMatchOracle(t *testing.T) {
	pools := map[string]*sched.Pool{"serial": nil}
	for _, w := range []int{1, 2, 3, 8} {
		pools[fmt.Sprintf("pool%d", w)] = sched.NewPool(w)
		defer pools[fmt.Sprintf("pool%d", w)].Close()
	}
	for _, mol := range append(listFixtures(), deepCluster()) {
		for order := 0; order < numOrders; order++ {
			t.Run(fmt.Sprintf("%s/order%d", mol.Name, order), func(t *testing.T) {
				sys := fixtureSystem(t, mol.Clone(), order)
				check := func(when string, held *InteractionLists) {
					t.Helper()
					born, _ := sys.listPhases(sys.lists)
					want := born.oracleIndex(nil)
					if err := sameIndex(perRowLists(held, sys.Atoms), want); err != nil {
						t.Errorf("%s: rows merged back: %v", when, err)
					}
					if err := sameIndex(held, hoistTiles(want, len(sys.Atoms.Nodes))); err != nil {
						t.Errorf("%s: against the intersection of each tile's rows: %v", when, err)
					}
					for name, pool := range pools {
						if got := born.index(pool); !reflect.DeepEqual(got, held) {
							t.Errorf("%s: the compile on %s differs", when, name)
						}
					}
					if mol.NumAtoms() > 100 && (len(held.TileFar) == 0 || len(held.Far) == 0) {
						t.Errorf("%s: %d shared and %d own entries: one kind goes untested", when, len(held.TileFar), len(held.Far))
					}
				}
				check("compiled", sys.Lists(nil).Born)
				rng := rand.New(rand.NewSource(44))
				pos := sys.Mol.Positions()
				for step := 0; step < 3; step++ {
					pos = localJiggle(rng, pos, 0.3)
					stats, err := sys.UpdateAtomsRepair(pos, pools["pool2"], nil)
					if err != nil {
						t.Fatal(err)
					}
					if stats.Repaired {
						check(fmt.Sprintf("repaired, step %d", step), sys.lists.Born)
					}
				}
			})
		}
	}
}

// legacyOrders is what the list block of an image written by a build with
// higher far-field orders could carry and this build writes empty: the order
// the lists were compiled under, and the per-entry orders of the Born rows,
// of the Born tile runs (version 3) and of the E_pol rows.
type legacyOrders struct {
	order            uint8
	born, tile, epol []uint8
}

// encodeImage writes sys's snapshot with its lists in the layout of version
// — 3 is EncodeSnapshot's, 2 has per-row Born lists (perRowLists) and no
// tile runs — and the list block's order slots filled from ord.
func encodeImage(sys *System, version uint16, ord legacyOrders) ([]byte, error) {
	lists, err := snapshotLists(sys)
	if err != nil {
		return nil, err
	}
	var w wire.Writer
	w.Raw([]byte(snapshotMagic))
	w.U16(version)
	w.U64(ParamsFingerprint(sys.Params))
	appendParams(&w, sys.Params, 0)
	w.Str(sys.Mol.Name)
	wire.PutF64Records(&w, sys.Mol.Atoms)
	w.I32(int32(sys.Surf.Level))
	w.I32(int32(sys.Surf.Degree))
	w.F64(sys.Surf.Area)
	wire.PutF64Records(&w, sys.Surf.Points)
	sys.Atoms.AppendTo(&w)
	sys.QPts.AppendTo(&w)
	w.Bool(true)
	w.F64(lists.bornMAC)
	w.F64(lists.epolFar)
	w.U8(ord.order)
	appendList := func(il *InteractionLists, orders []uint8) {
		for _, a := range [][]int32{il.Rows, il.FarOff, il.Far, il.NearOff, il.Near, il.SymOff, il.Sym, il.CedeOff, il.Cede} {
			w.I32s(a)
		}
		for range len(oldCertificate{}) {
			w.F64s(nil)
		}
		w.U8s(orders)
	}
	if version == snapshotVersionRows {
		appendList(perRowLists(lists.Born, sys.Atoms), ord.born)
	} else {
		appendList(lists.Born, ord.born)
		w.I32s(lists.Born.TileFarOff)
		w.I32s(lists.Born.TileFar)
		w.U8s(ord.tile)
	}
	appendList(lists.Epol, ord.epol)
	wire.PutF64Records[geom.Vec3](&w, nil)
	w.F64s(nil)
	w.U32(0)
	return restamp(w.Bytes()), nil
}

// encodeRowImage writes sys's snapshot as version 2 did: EncodeSnapshot's
// layout with per-row Born lists (perRowLists) and no tile runs.
func encodeRowImage(sys *System) ([]byte, error) {
	return encodeImage(sys, snapshotVersionRows, legacyOrders{})
}

// A version-2 image — per-row Born lists — decodes to exactly the lists a
// compile gives now: every tile's shared run hoisted out of its rows.
func TestSnapshotHoistsRowImage(t *testing.T) {
	sys, _, _ := testSystem(t, 400, 45, mortonParams())
	cl := sys.Lists(nil)
	image, err := encodeRowImage(sys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.lists.Born.TileFar, cl.Born.TileFar) || diffLists("born", got.lists.Born, cl.Born) != nil ||
		diffLists("epol", got.lists.Epol, cl.Epol) != nil {
		t.Error("the version-2 image decoded to other lists than the compile's")
	}
	if err := got.RecheckLists(nil); err != nil {
		t.Error(err)
	}
	again, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSnapshot(sys)
	if err != nil || !slices.Equal(again, want) {
		t.Errorf("re-encoded, the hoisted image is not the compile's (%v)", err)
	}
	// The test's encoder writes version 3 as EncodeSnapshot does.
	if v3, err := encodeImage(sys, snapshotVersion, legacyOrders{}); err != nil || !slices.Equal(v3, want) {
		t.Errorf("encodeImage at version 3 is not EncodeSnapshot (%v)", err)
	}
}

// A version-3 image whose Born tile runs break their shape — a tile count
// other than ⌈rows/8⌉, offsets that decrease or overrun, an entry past the
// atoms tree, orders an older build kept beside them — is corrupt, as is an
// E_pol list that carries tile runs.
func TestSnapshotRefusesBadTiles(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 46, mortonParams())
	cl := sys.Lists(nil)
	good := *cl.Born
	if len(good.TileFar) < 2 {
		t.Fatal("the fixture has no tile runs")
	}
	for name, mut := range map[string]func(il *InteractionLists){
		"a tile short":       func(il *InteractionLists) { il.TileFarOff = il.TileFarOff[:len(il.TileFarOff)-1] },
		"a tile more":        func(il *InteractionLists) { il.TileFarOff = append(il.TileFarOff, il.TileFarOff[len(il.TileFarOff)-1]) },
		"offsets decrease":   func(il *InteractionLists) { il.TileFarOff[1], il.TileFarOff[2] = il.TileFarOff[2], il.TileFarOff[1] },
		"offsets overrun":    func(il *InteractionLists) { il.TileFar = il.TileFar[:len(il.TileFar)-1] },
		"node out of bounds": func(il *InteractionLists) { il.TileFar[0] = int32(len(sys.Atoms.Nodes)) },
	} {
		t.Run(name, func(t *testing.T) {
			bad := good
			bad.TileFarOff, bad.TileFar = slices.Clone(good.TileFarOff), slices.Clone(good.TileFar)
			mut(&bad)
			cl.Born = &bad
			defer func() { cl.Born = &good }()
			image, err := EncodeSnapshot(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeSnapshot(image); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
	// The per-entry orders the tile runs carried under the retired ladder,
	// one short of the runs or one past its top order, 2: a list block of
	// far-field order 0 holds no orders at all.
	for name, tile := range map[string][]uint8{
		"orders short":      make([]uint8, len(good.TileFar)-1),
		"order past ladder": append([]uint8{3}, make([]uint8, len(good.TileFar)-1)...),
	} {
		t.Run(name, func(t *testing.T) {
			image, err := encodeImage(sys, snapshotVersion, legacyOrders{tile: tile})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeSnapshot(image); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
	epolTiled := *cl.Epol
	epolTiled.TileFarOff = make([]int32, numTiles(len(epolTiled.Rows))+1)
	if err := validateIL("epol", &epolTiled, sys.Atoms, sys.Atoms, false); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("E_pol lists with tile runs: got %v, want ErrSnapshotCorrupt", err)
	}
	if err := validateIL("born", &good, sys.QPts, sys.Atoms, true); err != nil {
		t.Errorf("the compiled Born lists: %v", err)
	}
}

// The list block of an image stamped with far-field order 0 holds lists of
// that order alone: a list block that names another order, or carries
// per-entry orders anywhere — the Born rows, the Born tile runs, the E_pol
// rows, at version 2 or 3 — is corrupt. Without them the same image decodes.
func TestSnapshotRefusesLegacyOrders(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 46, mortonParams())
	cl := sys.Lists(nil)
	zeros := func(n int) []uint8 { return make([]uint8, n) }
	for _, c := range []struct {
		name    string
		version uint16
		ord     legacyOrders
	}{
		{"list order", snapshotVersion, legacyOrders{order: 1}},
		{"born orders", snapshotVersion, legacyOrders{born: zeros(len(cl.Born.Far))}},
		{"tile orders", snapshotVersion, legacyOrders{tile: zeros(len(cl.Born.TileFar))}},
		{"epol orders", snapshotVersion, legacyOrders{epol: zeros(len(cl.Epol.Far))}},
		{"row image orders", snapshotVersionRows, legacyOrders{born: zeros(perRowLists(cl.Born, sys.Atoms).NumFar())}},
	} {
		t.Run(c.name, func(t *testing.T) {
			image, err := encodeImage(sys, c.version, c.ord)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeSnapshot(image); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
			if image, err = encodeImage(sys, c.version, legacyOrders{}); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeSnapshot(image); err != nil {
				t.Fatalf("without the orders: %v", err)
			}
		})
	}
}
