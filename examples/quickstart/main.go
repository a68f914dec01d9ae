// Quickstart: generate a protein-like molecule, compute its GB
// polarization energy with the octree algorithm, and compare against the
// exact quadratic reference.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gbpolar"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	// A 3,000-atom synthetic protein (deterministic for the seed).
	mol := gbpolar.GenerateProtein("quickstart", 3000, 42)
	fmt.Printf("molecule: %d atoms, net charge %+.2f e\n", mol.NumAtoms(), mol.TotalCharge())

	// Build the engine: samples the molecular surface and builds the two
	// octrees. This is the one-time preprocessing step.
	eng, err := gbpolar.NewEngine(mol, gbpolar.Options{
		EpsBorn: 0.9, // the paper's headline approximation parameters
		EpsEpol: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("surface: %d quadrature points\n", eng.NumQuadraturePoints())

	// Octree-approximated energy on all cores (OCT_CILK).
	start := time.Now()
	res, err := eng.Compute(ctx, gbpolar.Plan{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("octree E_pol = %.4f kcal/mol   (%.3gs, %.3g kernel ops)\n",
		res.Epol, time.Since(start).Seconds(), res.Ops)

	// Exact reference (Θ(M·N + M²)) for the error.
	start = time.Now()
	naive, _ := eng.ComputeNaive()
	fmt.Printf("naive  E_pol = %.4f kcal/mol   (%.3gs)\n", naive, time.Since(start).Seconds())
	fmt.Printf("error: %.4f%%\n", 100*(res.Epol-naive)/naive)
}
