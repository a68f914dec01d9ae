// Command benchmarks is gbpolar's performance ledger: five closed-loop
// workloads that time calls into the library's public functions from
// outside, check every output, and print end-to-end metrics (untraced)
// or per-layer metrics (traced). See README.md.
//
//	benchmarks -workload pose_scan -seed 1 -seconds 15 -trace 0
//	benchmarks -workload all -seed 1 -out results/BENCH_n.json
//	benchmarks -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	name := flag.String("workload", "", "workload name, or all (with -out)")
	seed := flag.Int64("seed", 1, "seed of every op's input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	tmpdir := flag.String("tmpdir", ".bench_build", "directory for the PQR and checkpoint files")
	out := flag.String("out", "", "write a ledger of untraced + traced runs to this file")
	compare := flag.Bool("compare", false, "compare two ledgers given as arguments")
	flag.Parse()

	if err := dispatch(*name, *seed, *seconds, *trace == 1, *tmpdir, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed int64, seconds float64, traced bool, tmpdir, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two ledger files")
		}
		return compareLedgers(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	// Wall metrics of a 2-thread pool on fewer than two CPUs measure the
	// scheduler, not the library.
	if runtime.NumCPU() < threads {
		return fmt.Errorf("%d CPU(s); the workloads need %d to report wall metrics", runtime.NumCPU(), threads)
	}
	runtime.GOMAXPROCS(threads)
	if err := os.MkdirAll(tmpdir, 0o755); err != nil {
		return err
	}
	if out != "" {
		return writeLedger(out, name, seed, seconds, tmpdir)
	}
	spec, err := findWorkload(name)
	if err != nil {
		return err
	}
	r, err := runWorkload(spec, fullSize(seed, seconds, traced, tmpdir))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "benchmarks: failed", f)
	}
	return printResult(r, traced)
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the one-line result the benchmark contract reads.
func printResult(r *run, traced bool) error {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range decls {
		metrics[d.Name] = metricValue{r.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
