package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"

	"gbpolar/internal/baselines"
	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/stats"
)

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// Registry returns every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"tableI", "Simulation environment (modeled topology + cost model)", tableI},
		{"tableII", "Packages with GB models and types of parallelism", tableII},
		{"fig5", "Speedup w.r.t. running time on one node (BTV analogue)", fig5},
		{"fig6", "Scalability with increasing number of cores (min/max of repeated runs)", fig6},
		{"fig7", "Performance comparison of octree-based algorithms (ZDock-like suite)", fig7},
		{"fig8", "Performance comparison of all algorithms (times + speedup vs Amber)", fig8},
		{"fig9", "Energy value computed by different algorithms", fig9},
		{"fig10", "Error and running time vs E_pol approximation parameter", fig10},
		{"fig11", "Scalability on a large molecule (CMV analogue)", fig11},
		{"extensions", "Beyond the paper: inter-rank work stealing + dynamic octree updates", extensions},
		{"obs", "Observability overhead: tracing+metrics on vs off", obsOverhead},
		{"coldstart", "Cold-path performance: Morton vs recursive build + incremental list repair", coldstart},
		{"lanes", "Kernel ablation: scalar vs laned x exact vs approx precision tiers", lanes},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have tableI, tableII, fig5..fig11, extensions, obs, coldstart, lanes)", id)
}

// tableI reports the modeled environment — the analogue of the paper's
// Table I, plus the host actually executing the replay.
func tableI(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	cm := cluster.DefaultCostModel()
	t := &Table{
		ID:      "tableI",
		Title:   "Simulation environment",
		Columns: []string{"Attribute", "Property"},
	}
	t.AddRow("Modeled node", "2 sockets x 6 cores (Lonestar4-like, paper Table I)")
	t.AddRow("Cores/node", coresPerNode)
	t.AddRow("Interconnect model (inter-node)",
		fmt.Sprintf("t_s=%v, t_w=%.3g s/word", cm.InterNode.Latency, cm.InterNode.SecPerWord))
	t.AddRow("Interconnect model (intra-node)",
		fmt.Sprintf("t_s=%v, t_w=%.3g s/word", cm.IntraNode.Latency, cm.IntraNode.SecPerWord))
	t.AddRow("Interconnect model (intra-socket)",
		fmt.Sprintf("t_s=%v, t_w=%.3g s/word", cm.IntraSocket.Latency, cm.IntraSocket.SecPerWord))
	t.AddRow("Parallelism platform", "internal/sched (cilk-like work stealing) + internal/cluster (MPI-like)")
	t.AddRow("Calibrated kernel rate", fmt.Sprintf("%.3g f_GB evals/s/core", cfg.OpsPerSecond))
	t.AddRow("Host executing the replay", fmt.Sprintf("%s/%s, %d CPUs, %s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()))
	t.Notes = append(t.Notes,
		"communication is charged by the Grama et al. formulas the paper's Section IV.C analysis uses")
	return []*Table{t}, nil
}

// tableII reproduces the paper's Table II roster.
func tableII(Config) ([]*Table, error) {
	t := &Table{
		ID:      "tableII",
		Title:   "Packages with GB models and types of parallelism used",
		Columns: []string{"Package", "GB-Model", "Parallelism"},
	}
	for _, p := range baselines.All() {
		t.AddRow(p.Spec.Name, p.Spec.GBModel, p.Spec.Parallelism)
	}
	t.AddRow("OCT_CILK", "STILL (surface r6)", "Shared (work-stealing)")
	t.AddRow("OCT_MPI", "STILL (surface r6)", "Distributed (message passing)")
	t.AddRow("OCT_MPI+CILK", "STILL (surface r6)", "Distributed + shared (hybrid)")
	t.AddRow("Naive", "STILL (surface r6)", "Serial")
	return []*Table{t}, nil
}

// coreCounts is the sweep of Figures 5/6 (the paper plots 12..~300).
func coreCounts() []int { return []int{12, 24, 48, 96, 144, 192, 240, 288} }

// fig5: speedup of OCT_MPI and OCT_MPI+CILK relative to their own
// one-node (12-core) time, on the BTV analogue.
func fig5(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	mol := molecule.BTVAnalogue(cfg.Scale/10, cfg.Seed) // BTV is 12x CMV; keep the default run light
	prep, err := prepare(mol, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5",
		Title:   fmt.Sprintf("Speedup vs one node (molecule %s, %d atoms, %d q-points)", mol.Name, mol.NumAtoms(), prep.surf.NumPoints()),
		Columns: []string{"Cores", "OCT_MPI time (s)", "OCT_MPI speedup", "OCT_MPI+CILK time (s)", "OCT_MPI+CILK speedup"},
	}
	var base [2]float64
	for _, cores := range coreCounts() {
		pure, err := runOctMPI(prep, cores, false, cfg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		hyb, err := runOctMPI(prep, cores, true, cfg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if cores == coresPerNode {
			base[0], base[1] = pure.ModelSeconds, hyb.ModelSeconds
		}
		t.AddRow(cores, pure.ModelSeconds, speedup(base[0], pure.ModelSeconds),
			hyb.ModelSeconds, speedup(base[1], hyb.ModelSeconds))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("BTV analogue at scale %.4g of the paper's 6M atoms; modeled virtual time", cfg.Scale/10))
	return []*Table{t}, nil
}

// fig6: min and max times over Repetitions noisy runs, OCT_MPI vs
// OCT_MPI+CILK, plus the memory comparison of Section V.B.
func fig6(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	mol := molecule.BTVAnalogue(cfg.Scale/10, cfg.Seed)
	prep, err := prepare(mol, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig6",
		Title: fmt.Sprintf("Scalability with cores: min/max of %d runs (%s)", cfg.Repetitions, mol.Name),
		Columns: []string{"Cores", "OCT_MPI min (s)", "OCT_MPI max (s)",
			"OCT_MPI+CILK min (s)", "OCT_MPI+CILK max (s)"},
	}
	mem := &Table{
		ID:      "fig6-memory",
		Title:   "Per-node memory of the two configurations (Section V.B)",
		Columns: []string{"Cores", "OCT_MPI node mem (MB)", "OCT_MPI+CILK node mem (MB)", "Ratio"},
	}
	for _, cores := range coreCounts() {
		var pure, hyb stats.Summary
		var pureMem, hybMem int64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			seed := cfg.Seed + int64(rep)*7919
			rp, err := runOctMPI(prep, cores, false, cfg, seed)
			if err != nil {
				return nil, err
			}
			rh, err := runOctMPI(prep, cores, true, cfg, seed)
			if err != nil {
				return nil, err
			}
			pure.Add(rp.ModelSeconds)
			hyb.Add(rh.ModelSeconds)
			pureMem = rp.Report.MaxNodeMemoryBytes
			hybMem = rh.Report.MaxNodeMemoryBytes
		}
		t.AddRow(cores, pure.Min(), pure.Max(), hyb.Min(), hyb.Max())
		mem.AddRow(cores, float64(pureMem)/(1<<20), float64(hybMem)/(1<<20),
			float64(pureMem)/float64(hybMem))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("compute jitter sigma=%.3g models OS noise; hybrid variance additionally reflects real work-stealing imbalance", cfg.NoiseSigma))
	return []*Table{t, mem}, nil
}

// sortRowsByFloatColumn sorts table rows ascending by a numeric column.
func sortRowsByFloatColumn(t *Table, col int) {
	slices.SortStableFunc(t.Rows, func(ri, rj []string) int {
		var a, b float64
		fmt.Sscanf(ri[col], "%g", &a)
		fmt.Sscanf(rj[col], "%g", &b)
		return cmp.Compare(a, b)
	})
}
