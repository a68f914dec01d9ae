package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
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

// perRowLists returns il in the layout without tiles: every row's run of
// each kind is its tile's shared run and its own merged back on visit
// order of atoms. Lists without tiles come back as they are.
func perRowLists(il *InteractionLists, atoms *octree.Tree) *InteractionLists {
	if il.TileFarOff == nil && il.TileOff == nil {
		return il
	}
	visit := visitOrder(atoms)
	out := &InteractionLists{Rows: il.Rows}
	for _, off := range []*[]int32{&out.NearOff, &out.SymOff, &out.CedeOff, &out.FarOff} {
		*off = make([]int32, len(il.Rows)+1)
	}
	rows := out.rowCSR()
	for t := range il.tiles() {
		shared := il.tileRuns(t)
		lo, hi := il.tileRows(t)
		for i := lo; i < hi; i++ {
			own := il.rowRuns(i)
			for r, c := range rows {
				a, b := shared[r], own[r]
				for len(a)+len(b) > 0 {
					run := &b
					if len(b) == 0 || len(a) > 0 && visit[a[0]] < visit[b[0]] {
						run = &a
					}
					*c.ents = append(*c.ents, (*run)[0])
					*run = (*run)[1:]
				}
				c.off[i+1] = int32(len(*c.ents))
			}
		}
	}
	return out
}

// hoistTiles turns per-row lists into the tiled form a compile gives: a
// tile's shared run of a kind is the entries every one of its rows holds
// in that run, in the first row's order, and each row keeps the rest, in
// its order. tileOff is the cut of E_pol tiles, which share every kind;
// nil cuts the aligned Born tiles, which share far nodes alone. nNodes
// bounds the entries.
func hoistTiles(il *InteractionLists, tileOff []int32, nNodes int) *InteractionLists {
	n := len(il.Rows)
	out := &InteractionLists{Rows: il.Rows, TileOff: tileOff}
	for _, off := range []*[]int32{&out.NearOff, &out.SymOff, &out.CedeOff, &out.FarOff} {
		*off = make([]int32, n+1)
	}
	tiles := out.tiles()
	out.TileFarOff = make([]int32, tiles+1)
	if tileOff != nil {
		out.TileNearOff, out.TileSymOff, out.TileCedeOff = make([]int32, tiles+1), make([]int32, tiles+1), make([]int32, tiles+1)
	}
	from, rows, shared := il.rowCSR(), out.rowCSR(), out.tileCSR()
	// seen[a] counts the tile's rows holding a in the run.
	seen := make([]int32, nNodes)
	for r := range from {
		for t := range tiles {
			lo, hi := out.tileRows(t)
			isShared := func(int32) bool { return false }
			if shared[r].off != nil {
				for i := lo; i < hi; i++ {
					for _, a := range from[r].run(i) {
						if i == lo {
							seen[a] = 1
						} else if seen[a] == int32(i-lo) {
							seen[a]++
						}
					}
				}
				isShared = func(a int32) bool { return seen[a] == int32(hi-lo) }
				for _, a := range from[r].run(lo) {
					if isShared(a) {
						*shared[r].ents = append(*shared[r].ents, a)
					}
				}
				shared[r].off[t+1] = int32(len(*shared[r].ents))
			}
			for i := lo; i < hi; i++ {
				for _, a := range from[r].run(i) {
					if !isShared(a) {
						*rows[r].ents = append(*rows[r].ents, a)
					}
				}
				rows[r].off[i+1] = int32(len(*rows[r].ents))
			}
			for i := lo; i < hi; i++ {
				for _, a := range from[r].run(i) {
					seen[a] = 0
				}
			}
		}
	}
	return out
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
			// The assembly and the portable loop agree too, near sums
			// included: the row kernel is the scalar loop's arithmetic.
			if err := sameAccum(swept[0], swept[1], true); err != nil {
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

// The Born near row kernel (bornNearRow4) against the scalar loop it
// replaced: on every streamBitsCases fixture, fresh and after three repaired
// jiggles, a whole Born sweep with the assembly leaves every atom sum, every
// node sum and the op count bit for bit those of the sweep without it —
// under R6, where the kernel runs, and under R4, which must keep the scalar
// loop (an R6 kernel there would move every sum). Last, a q-point moved
// onto an atom of one of its row's near leaves: the r² = 0 term both sides
// skip, the atom's sum still finite.
func TestBornNearRowKernelMatchesScalar(t *testing.T) {
	if !useAsmKernels {
		t.Skip("no AVX2+FMA assembly kernels in this build or on this host")
	}
	defer func() { useAsmKernels = true }()
	sweep := func(sys *System, asm bool) *bornAccum {
		useAsmKernels = asm
		il := sys.Lists(nil).Born
		acc := newBornAccum(sys)
		for tile := range numTiles(len(il.Rows)) {
			bornTile(sys, il, tile, acc)
		}
		return acc
	}
	var first *System
	for _, c := range streamBitsCases {
		params := mortonParams()
		if c.params != nil {
			c.params(&params)
		}
		mol := c.mol()
		surf, err := surface.ForMolecule(mol, surface.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(mol, surf, params)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			for _, kern := range []BornKernel{R6, R4} {
				sys.Params.Kernel = kern
				if err := sameAccum(sweep(sys, true), sweep(sys, false), true); err != nil {
					t.Errorf("%s/%s/%v: row kernel against the scalar loop: %v", c.name, stage, kern, err)
				}
			}
			sys.Params.Kernel = params.Kernel
		}
		check("fresh")
		rng := rand.New(rand.NewSource(31))
		pos := mol.Positions()
		for step := 0; step < 3; step++ {
			pos = jigglePositions(rng, pos, 0.03)
			if _, err := sys.UpdateAtomsRepair(pos, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		check("repaired")
		if first == nil {
			first = sys
		}
	}

	sys := first
	il := sys.Lists(nil).Born
	row := 0
	for il.NearOff[row+1] == il.NearOff[row] {
		row++
	}
	q := sys.QPts.Nodes[il.Rows[row]].Start
	a := sys.Atoms.Nodes[il.Near[il.NearOff[row]]].Start
	sys.QX[q], sys.QY[q], sys.QZ[q] = sys.AtomX[a], sys.AtomY[a], sys.AtomZ[a]
	got, want := sweep(sys, true), sweep(sys, false)
	if err := sameAccum(got, want, true); err != nil {
		t.Errorf("q-point on an atom: %v", err)
	}
	if v := want.atom[a]; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("q-point on atom slot %d: its sum is %v", a, v)
	}
}

// The tiled Born lists are the scalar descent's, rows merged back: each
// row's shared ∪ own on visit order is the oracle's row, each tile's shared
// run is the intersection of its rows' (hoistTiles of the oracle), and the
// output is the same on any pool —
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
					if err := sameIndex(held, hoistTiles(want, nil, len(sys.Atoms.Nodes))); err != nil {
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

// A Born tile run that breaks its shape — a tile count other than
// ⌈rows/8⌉, offsets that decrease or overrun, an entry past the atoms tree,
// orders an older build kept beside them — is corrupt, and so is an E_pol
// shared run out of the shape of the tiles the rows make.
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
	// one short of the runs or one past its top order, 2, where version 4
	// kept their place: this layout has none.
	image, err := EncodeSnapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	for name, tile := range map[string][]uint8{
		"orders short":      make([]uint8, len(good.TileFar)-1),
		"order past ladder": append([]uint8{3}, make([]uint8, len(good.TileFar)-1)...),
	} {
		t.Run(name, func(t *testing.T) {
			ins := map[int][]byte{slotTileOrders: enc(func(w *wire.Writer) { w.U8s(tile) })}
			if _, err := DecodeSnapshot(withRetired(t, image, snapshotVersion, ins)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
	epol := *cl.Epol
	for name, mut := range map[string]func(il *InteractionLists){
		"shared overrun": func(il *InteractionLists) { il.TileSym = il.TileSym[:len(il.TileSym)-1] },
		"shared missing": func(il *InteractionLists) { il.TileNearOff = nil },
	} {
		bad := epol
		mut(&bad)
		if err := validateIL("epol", &bad, sys.Atoms, sys.Atoms); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("E_pol lists, %s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
	if err := validateIL("born", &good, sys.QPts, sys.Atoms); err != nil {
		t.Errorf("the compiled Born lists: %v", err)
	}
	if err := validateIL("epol", &epol, sys.Atoms, sys.Atoms); err != nil {
		t.Errorf("the compiled E_pol lists: %v", err)
	}
}

// A list block holds the lists' index and nothing else: an image with
// far-field orders where version 4 kept their places — the order the lists
// were compiled under, or per-entry orders behind the Born rows, the Born
// tile runs or the E_pol rows — is corrupt, and without them the same image
// decodes. An image of version 2 is refused by its version either way.
func TestSnapshotRefusesLegacyOrders(t *testing.T) {
	sys, image := snapshotFixture(t, true)
	cl := sys.lists
	orders := func(n int) []byte { return enc(func(w *wire.Writer) { w.U8s(make([]uint8, n)) }) }
	for _, c := range []struct {
		name    string
		version uint16
		ins     map[int][]byte
	}{
		{"list order", snapshotVersion, map[int][]byte{slotListOrder: {1}}},
		{"born orders", snapshotVersion, map[int][]byte{slotBorn: orders(len(cl.Born.Far))}},
		{"tile orders", snapshotVersion, map[int][]byte{slotTileOrders: orders(len(cl.Born.TileFar))}},
		{"epol orders", snapshotVersion, map[int][]byte{slotEpol: orders(len(cl.Epol.Far))}},
		{"row image orders", 2, map[int][]byte{slotBorn: orders(perRowLists(cl.Born, sys.Atoms).NumFar())}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var with, without error = ErrSnapshotCorrupt, nil
			if c.version != snapshotVersion {
				with, without = ErrSnapshotVersion, ErrSnapshotVersion
			}
			if _, err := DecodeSnapshot(withRetired(t, image, c.version, c.ins)); !errors.Is(err, with) {
				t.Fatalf("got %v, want %v", err, with)
			}
			if _, err := DecodeSnapshot(withRetired(t, image, c.version, nil)); !errors.Is(err, without) {
				t.Fatalf("without the orders: got %v, want %v", err, without)
			}
		})
	}
}
