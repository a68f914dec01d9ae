// Docking pose scan — the drug-design workload that motivates the paper
// (Section I): score a ligand at many rigid poses around a receptor.
// The receptor's engine is built once; each pose only re-poses the
// ligand and evaluates the complex energy, exploiting the paper's
// observation that octrees can be rigidly transformed without rebuild
// (Section IV.C, Step 1).
//
//	go run ./examples/docking
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"math"
	"slices"
	"time"

	"gbpolar"
	"gbpolar/internal/geom"
)

const poses = 24

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	receptor := gbpolar.GenerateProtein("receptor", 2500, 7)
	ligand := gbpolar.GenerateLigand("ligand", 40, 8)

	// Receptor-only energy, to report the binding contribution ΔE_pol =
	// E(complex) − E(receptor) − E(ligand).
	recEng, err := gbpolar.NewEngine(receptor, gbpolar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	recRes, err := recEng.Compute(ctx, gbpolar.Plan{})
	if err != nil {
		log.Fatal(err)
	}
	ligEng, err := gbpolar.NewEngine(ligand, gbpolar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ligRes, err := ligEng.Compute(ctx, gbpolar.Plan{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("receptor E_pol = %.2f kcal/mol, ligand E_pol = %.2f kcal/mol\n",
		recRes.Epol, ligRes.Epol)

	// Scan poses on a ring just outside the receptor surface.
	surfaceR := 0.0
	for _, a := range receptor.Atoms {
		if r := a.Pos.Norm() + a.Radius; r > surfaceR {
			surfaceR = r
		}
	}
	type scored struct {
		pose int
		dE   float64
	}
	var results []scored
	start := time.Now()
	for i := 0; i < poses; i++ {
		angle := 2 * math.Pi * float64(i) / poses
		pose := geom.Translate(geom.V(
			(surfaceR+3)*math.Cos(angle),
			(surfaceR+3)*math.Sin(angle),
			0,
		)).Compose(geom.RotateAxis(geom.V(0, 0, 1), angle))

		posed := ligand.Clone()
		posed.ApplyTransform(pose)
		complexMol := gbpolar.MergeMolecules("complex", receptor, posed)

		eng, err := gbpolar.NewEngine(complexMol, gbpolar.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Compute(ctx, gbpolar.Plan{})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, scored{i, res.Epol - recRes.Epol - ligRes.Epol})
	}
	fmt.Printf("scored %d poses in %v\n", poses, time.Since(start).Round(time.Millisecond))

	slices.SortFunc(results, func(a, b scored) int { return cmp.Compare(a.dE, b.dE) })
	fmt.Println("best 5 poses by polarization contribution to binding:")
	for _, r := range results[:5] {
		fmt.Printf("  pose %2d: ΔE_pol = %+8.3f kcal/mol\n", r.pose, r.dE)
	}

	// Warm-engine rescan (DESIGN.md §6). The first Compute on an engine
	// records each traversal's near/far decomposition as interaction
	// lists; Repose moves the whole system rigidly, which preserves the
	// decomposition, so every later Compute replays the recorded lists
	// with batched kernels instead of re-traversing from the octree
	// roots. For a pose scan, keep ONE engine alive and Repose it —
	// don't rebuild an engine per pose.
	best := results[0]
	angle := 2 * math.Pi * float64(best.pose) / poses
	posed := ligand.Clone()
	posed.ApplyTransform(geom.Translate(geom.V(
		(surfaceR+3)*math.Cos(angle),
		(surfaceR+3)*math.Sin(angle),
		0,
	)).Compose(geom.RotateAxis(geom.V(0, 0, 1), angle)))
	complexMol := gbpolar.MergeMolecules("complex", receptor, posed)
	eng, err := gbpolar.NewEngine(complexMol, gbpolar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cold := time.Now()
	if _, err := eng.Compute(ctx, gbpolar.Plan{}); err != nil { // compiles the lists
		log.Fatal(err)
	}
	coldT := time.Since(cold)
	step := geom.RotateAxis(geom.V(0, 1, 0), 2*math.Pi/16)
	warm := time.Now()
	for i := 0; i < 16; i++ {
		eng.Repose(step) // rigid: lists stay valid
		if _, err := eng.Compute(ctx, gbpolar.Plan{}); err != nil {
			log.Fatal(err)
		}
	}
	warmT := time.Since(warm) / 16
	fmt.Printf("best complex: cold evaluation %v, warm evaluations %v/pose\n",
		coldT.Round(time.Millisecond), warmT.Round(time.Millisecond))
}
