package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/surface"
	"gbpolar/internal/wire"
)

// The Born tile (InteractionLists.TileFar, bornTile) against the per-row
// sweep it replaced: the lists merged back into rows (perRowLists), the
// kernels against the per-row sweep of those rows.

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
				for tile := range il.tiles() {
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
		for tile := range il.tiles() {
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

// A Born tile run that breaks its shape — a tile count other than
// ⌈rows/8⌉ in the far run or in a near one, offsets that decrease or
// overrun, an entry past the atoms tree, orders an older build kept beside
// them — is corrupt, and so is a Born tile that shares a near leaf, which
// bornTile would not sweep, and an E_pol shared run out of the shape of the
// tiles the rows make.
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
		"near offsets short": func(il *InteractionLists) { il.TileNearOff = il.TileNearOff[1:] },
		"sym offsets long":   func(il *InteractionLists) { il.TileSymOff = append(il.TileSymOff, 0) },
		"shared near leaf": func(il *InteractionLists) {
			il.TileNear = []int32{il.Near[0]}
			for k := 1; k < len(il.TileNearOff); k++ {
				il.TileNearOff[k] = 1
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := good
			for _, c := range bad.tileCSR() {
				*c.off, *c.ents = slices.Clone(*c.off), slices.Clone(*c.ents)
			}
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
