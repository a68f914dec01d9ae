package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/obs"
)

// The tests named after the far-field orders that were once compiled. Order
// 0 is the only far field now, and these hold what stays of the others: the
// lists and kernels at the loosened opening tests the list tables also run
// as orders 1 and 2 (orderParams), and images that stamp order 0 alone.

// orderTestParams is DefaultParams at ε = eps for both phases (eps > 0),
// under orderParams.
func orderTestParams(order int, eps float64) Params {
	p := DefaultParams()
	if eps > 0 {
		p.EpsBorn, p.EpsEpol = eps, eps
	}
	return orderParams(p, order)
}

// At orders 1 and 2 the compiled batch kernels reproduce the recursive
// reference traversals as they do at order 0 (TestCompiledMatchesRecursive):
// each order loosens one phase's opening test only, and both paths read it
// from the same parameters.
func TestFarOrderCompiledMatchesRecursive(t *testing.T) {
	for _, order := range []int{1, 2} {
		for _, kern := range []BornKernel{R6, R4} {
			for _, eps := range []float64{0.5, 1.5} {
				t.Run(fmt.Sprintf("p%d/%v/eps=%g", order, kern, eps), func(t *testing.T) {
					p := orderTestParams(order, eps)
					p.Kernel = kern
					sys, _, _ := testSystem(t, 260, 97, p)
					compareCompiledRecursive(t, sys, 1e-12)
				})
			}
		}
	}
}

// Order 0 is all a compile produces: at every order of the tables the
// snapshot holds the lists' index alone — decoded and encoded again, it is
// the same bytes — and the lists hold their index arrays and nothing else.
func TestFarOrderZeroCompilesNoOrders(t *testing.T) {
	for order := 0; order < numOrders; order++ {
		sys, _, _ := testSystem(t, 200, 98, orderTestParams(order, 0))
		cl := sys.Lists(nil)
		image, err := EncodeSnapshot(sys)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(image)
		if err != nil {
			t.Fatal(err)
		}
		again, err := EncodeSnapshot(got)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(image, again) {
			t.Errorf("order %d: the decoded snapshot encodes to other bytes", order)
		}
		if got, want := cl.MemoryBytes(), listFootprint(cl); got != want {
			t.Errorf("order %d: the lists hold %d bytes, their index arrays %d", order, got, want)
		}
	}
}

// The fast tier stays inside its accuracy class at the loosened orders: the
// lanes tier within the approximate-math class (1e-4 relative) of the exact
// tier, on the energy and on every Born radius.
func TestFarOrderPrecisionTiers(t *testing.T) {
	for _, order := range []int{1, 2} {
		sys, _, _ := testSystem(t, 400, 101, orderTestParams(order, 0.5))
		exact := runTier(t, sys, PrecisionExact)
		lanes := runTier(t, sys, PrecisionLanes)
		if e := relErr(lanes.Epol, exact.Epol); !(e <= 1e-4) {
			t.Errorf("order %d: lanes E_pol %v vs exact tier %v (rel %.3g > 1e-4)", order, lanes.Epol, exact.Epol, e)
		}
		for i := range exact.BornRadii {
			if e := relErr(lanes.BornRadii[i], exact.BornRadii[i]); !(e <= 1e-4) {
				t.Fatalf("order %d: atom %d lanes Born radius %v vs exact tier %v (rel %.3g > 1e-4)",
					order, i, lanes.BornRadii[i], exact.BornRadii[i], e)
			}
		}
	}
}

// Repairs at the loosened orders: after every jiggle the patched lists are
// byte for byte what a fresh compile over the moved geometry produces, with
// far entries that start nearer the root than order 0's.
func TestFarOrderRepairByteIdentical(t *testing.T) {
	for _, order := range []int{1, 2} {
		sys, mol, _ := testSystem(t, 500, 103, orderParams(mortonParams(), order))
		sys.Lists(nil)
		rng := rand.New(rand.NewSource(104))
		pos := mol.Positions()
		repairs := 0
		for step := 0; step < 6; step++ {
			pos = jigglePositions(rng, pos, 0.03)
			stats, err := sys.UpdateAtomsRepair(pos, nil, obs.New())
			if err != nil {
				t.Fatalf("order %d, step %d: %v", order, step, err)
			}
			if stats.Repaired {
				repairs++
			}
			if err := sys.RecheckLists(nil); err != nil {
				t.Fatalf("order %d, step %d: repaired lists diverge from fresh compile: %v", order, step, err)
			}
		}
		if repairs == 0 {
			t.Fatalf("order %d: no step repaired the lists; test exercised nothing", order)
		}
	}
}

// A snapshot at a loosened order round-trips: the parameters come back as
// they were, the lists as a fresh compile makes them, and the energy bit
// for bit.
func TestFarOrderSnapshotRoundTrip(t *testing.T) {
	for _, order := range []int{1, 2} {
		sys, _, _ := testSystem(t, 200, 105, orderTestParams(order, 0.5))
		sys.Lists(nil)
		data, err := EncodeSnapshot(sys)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Params != sys.Params {
			t.Fatalf("order %d: parameters restored as %+v, want %+v", order, got.Params, sys.Params)
		}
		if err := got.RecheckLists(nil); err != nil {
			t.Fatalf("order %d: decoded lists differ from a fresh compile: %v", order, err)
		}
		want, err := RunShared(sys, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunShared(got, SharedOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Epol != want.Epol {
			t.Fatalf("order %d: E_pol drifted through the snapshot: %.17g vs %.17g", order, res.Epol, want.Epol)
		}
	}
}
