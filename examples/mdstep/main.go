// MD-step loop — exercises the production MD path (the paper's reference
// [8] dynamic-octree machinery and its Section II "update-efficient"
// claim): atoms jiggle every step, the Morton-built atoms octree takes the
// tracked update, the compiled interaction lists are repaired in place
// instead of recompiled, and the polarization energy is re-evaluated.
//
//	go run ./examples/mdstep
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

const (
	atoms = 4000
	steps = 10
	// sigma moves every atom, so nearly every list row is re-tested: the
	// repair's worst case. A local move (benchmarks' md_step jiggles the
	// atoms near one site) repairs a few percent of the rows.
	sigma   = 0.08 // Å per step, a typical MD displacement
	threads = 2
)

func main() {
	log.SetFlags(0)

	mol := molecule.GenProtein("mdstep", atoms, 21)
	surf, err := surface.ForMolecule(mol, surface.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// The Morton builder keeps the keys the tracked update and the list
	// repair need; a recursive tree would be rebuilt at every step.
	params := core.DefaultParams()
	params.Builder = octree.BuilderMorton
	sys, err := core.NewSystem(mol, surf, params)
	if err != nil {
		log.Fatal(err)
	}
	pool := sched.NewPool(threads)
	defer pool.Close()
	sys.Lists(pool)
	fmt.Printf("molecule: %d atoms, %d q-points, octree %d nodes\n\n",
		atoms, surf.NumPoints(), sys.Atoms.NumNodes())

	rng := rand.New(rand.NewSource(22))
	pos := mol.Positions()

	fmt.Printf("%6s %12s %9s %14s %16s %12s %14s\n",
		"step", "moved atoms", "repaired", "rows repaired", "E_pol (kcal/mol)", "update (ms)", "energy (ms)")
	var updTotal time.Duration
	for step := 1; step <= steps; step++ {
		for i := range pos {
			pos[i] = pos[i].Add(geom.V(
				rng.NormFloat64()*sigma, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma))
		}
		t0 := time.Now()
		stats, err := sys.UpdateAtomsRepair(pos, pool, nil)
		if err != nil {
			log.Fatal(err)
		}
		updDur := time.Since(t0)
		updTotal += updDur

		t0 = time.Now()
		res, err := core.RunShared(sys, core.SharedOptions{Threads: threads, Pool: pool})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %12d %9v %14s %16.2f %12.2f %14.2f\n",
			step, stats.Moved, stats.Repaired,
			fmt.Sprintf("%d/%d", stats.RowsRepaired, stats.RowsTotal), res.Epol,
			float64(updDur.Microseconds())/1000,
			float64(time.Since(t0).Microseconds())/1000)
	}

	// Compare against rebuilding from scratch every step: the same builder,
	// octrees and compiled lists both.
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		fresh, err := core.NewSystem(mol, surf, params)
		if err != nil {
			log.Fatal(err)
		}
		fresh.Lists(pool)
	}
	rebuildEquiv := time.Since(t0)
	fmt.Printf("\nincremental updates: %v total; rebuild-from-scratch equivalent: %v (%.1fx)\n",
		updTotal.Round(time.Millisecond), rebuildEquiv.Round(time.Millisecond),
		float64(rebuildEquiv)/float64(updTotal))
}
