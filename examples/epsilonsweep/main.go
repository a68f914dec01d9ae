// Epsilon sweep — the speed/accuracy trade-off of the paper's Figure 10:
// Born ε fixed at 0.9, E_pol ε swept from 0.1 to 0.9. Error grows and
// work shrinks with ε; unlike cutoff-based packages, the memory use is
// identical at every ε (the paper's "space-independent speed-accuracy
// tradeoff").
//
//	go run ./examples/epsilonsweep
package main

import (
	"context"
	"fmt"
	"log"

	"gbpolar"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	mol := gbpolar.GenerateProtein("sweep", 4000, 3)
	fmt.Printf("molecule: %d atoms\n", mol.NumAtoms())

	// The naive reference is computed once: it does not depend on ε.
	ref, err := gbpolar.NewEngine(mol, gbpolar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	naive, _ := ref.ComputeNaive()
	fmt.Printf("naive E_pol = %.4f kcal/mol\n\n", naive)

	fmt.Printf("%8s %16s %12s %14s\n", "epsEpol", "E_pol (kcal/mol)", "error (%)", "kernel ops")
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		eng, err := gbpolar.NewEngine(mol, gbpolar.Options{EpsBorn: 0.9, EpsEpol: eps})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Compute(ctx, gbpolar.Plan{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8.1f %16.4f %12.4f %14.3g\n",
			eps, res.Epol, 100*(res.Epol-naive)/naive, res.Ops)
	}
}
