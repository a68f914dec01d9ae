// Virus-shell scaling — the paper's Section V.F workload: the Cucumber
// Mosaic Virus capsid (509,640 atoms at full scale; reduced here by
// default) computed with the hybrid distributed-shared algorithm,
// compared against pure MPI and against an Amber-like all-pairs
// baseline, including the memory-replication comparison of Section V.B.
//
//	go run ./examples/virusshell            # ~10k-atom analogue
//	go run ./examples/virusshell -scale 0.2 # ~100k atoms (minutes)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gbpolar"
	"gbpolar/internal/baselines"
	"gbpolar/internal/molecule"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.02, "fraction of the paper's 509,640-atom CMV shell")
	flag.Parse()

	mol := molecule.CMVAnalogue(*scale, 1)
	fmt.Printf("molecule: %s (%d atoms)\n", mol.Name, mol.NumAtoms())

	eng, err := gbpolar.NewEngine(mol, gbpolar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("surface: %d quadrature points\n\n", eng.NumQuadraturePoints())

	// OCT_MPI: 12 single-threaded ranks on one modeled node.
	pure, err := eng.Compute(ctx, gbpolar.Plan{Cluster: &gbpolar.Cluster{
		Procs: 12, ThreadsPerProc: 1, RanksPerNode: 12, Modeled: true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	// OCT_MPI+CILK: 2 ranks × 6 threads (one rank per socket).
	hybrid, err := eng.Compute(ctx, gbpolar.Plan{Cluster: &gbpolar.Cluster{
		Procs: 2, ThreadsPerProc: 6, RanksPerNode: 2, Modeled: true,
	}})
	if err != nil {
		log.Fatal(err)
	}
	// Amber-like all-pairs baseline on the same 12 cores.
	amber, err := baselines.Amber.Run(mol, baselines.Options{Cores: 12})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %16s %14s\n", "program", "time (s)", "E_pol (kcal/mol)", "node mem (MB)")
	row := func(name string, secs, e float64, memBytes int64) {
		fmt.Printf("%-22s %12.4g %16.6g %14.1f\n", name, secs, e, float64(memBytes)/(1<<20))
	}
	row("OCT_MPI (12x1)", pure.ModelSeconds, pure.Epol, pure.Report.MaxNodeMemoryBytes)
	row("OCT_MPI+CILK (2x6)", hybrid.ModelSeconds, hybrid.Epol, hybrid.Report.MaxNodeMemoryBytes)
	row("Amber-like (12x1)", amber.ModelSeconds, amber.Epol, amber.Report.MaxNodeMemoryBytes)

	fmt.Printf("\nhybrid speedup vs Amber-like: %.1fx\n", amber.ModelSeconds/hybrid.ModelSeconds)
	fmt.Printf("pure-MPI memory / hybrid memory: %.2fx (paper: 5.86x)\n",
		float64(pure.Report.MaxNodeMemoryBytes)/float64(hybrid.Report.MaxNodeMemoryBytes))
}
