// Command gbbench regenerates the tables and figures of the paper's
// evaluation section (Table I, Table II, Figures 5–11).
//
// Usage:
//
//	gbbench -exp fig8                 # one experiment
//	gbbench -exp all                  # everything, paper order
//	gbbench -exp fig11 -scale 0.1     # bigger CMV analogue
//	gbbench -exp fig6 -reps 20        # the paper's repetition count
//	gbbench -exp fig9 -csv            # machine-readable output
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"gbpolar/internal/bench"
	"gbpolar/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gbbench: ")

	var (
		exp    = flag.String("exp", "all", "experiment id (tableI, tableII, fig5..fig11) or 'all'")
		scale  = flag.Float64("scale", 0.02, "virus-shell scale factor (1 = paper's full CMV/BTV)")
		stride = flag.Int("stride", 7, "ZDock-like suite stride (1 = all 84 proteins)")
		reps   = flag.Int("reps", 5, "repetitions for min/max experiments (paper: 20)")
		seed   = flag.Int64("seed", 1, "generator seed")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list   = flag.Bool("list", false, "list available experiments and exit")

		outDir     = flag.String("out", "", "also write BENCH_<id>.json tables, cluster reports and a MANIFEST.json to this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{
		Seed:        *seed,
		Scale:       *scale,
		SuiteStride: *stride,
		Repetitions: *reps,
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			log.Fatal(err)
		}
		exps = []bench.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		man := obs.NewManifest("gbbench", *seed, map[string]any{
			"exp": *exp, "scale": *scale, "stride": *stride, "reps": *reps,
		})
		if err := man.WriteFile(filepath.Join(*outDir, "MANIFEST.json")); err != nil {
			log.Fatal(err)
		}
	}

	for _, e := range exps {
		tables, err := e.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		for _, t := range tables {
			var err error
			if *csv {
				err = t.CSV(os.Stdout)
			} else {
				err = t.Fprint(os.Stdout)
			}
			if err != nil {
				log.Fatal(err)
			}
			if *outDir != "" {
				if err := writeTable(*outDir, t); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// writeTable archives one result table (and, when present, the cluster
// report behind it) under dir.
func writeTable(dir string, t *bench.Table) error {
	f, err := os.Create(filepath.Join(dir, "BENCH_"+t.ID+".json"))
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if t.Report == nil {
		return nil
	}
	rf, err := os.Create(filepath.Join(dir, "BENCH_"+t.ID+".report.json"))
	if err != nil {
		return err
	}
	if err := t.Report.WriteJSON(rf); err != nil {
		rf.Close()
		return err
	}
	return rf.Close()
}
