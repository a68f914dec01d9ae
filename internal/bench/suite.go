package bench

import (
	"errors"
	"fmt"
	"sync"

	"gbpolar/internal/baselines"
	"gbpolar/internal/core"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/stats"
	"gbpolar/internal/surface"
)

// suiteMolecules returns the subsampled ZDock-like suite.
func suiteMolecules(cfg Config) []*molecule.Molecule {
	sizes := molecule.ZDockLikeSizes()
	var out []*molecule.Molecule
	for i := 0; i < len(sizes); i += cfg.SuiteStride {
		out = append(out, molecule.GenProtein(sizes[i].Name, sizes[i].Atoms, cfg.Seed+int64(i)*7919))
	}
	// Always include the largest (16,301 atoms — the size Figure 8(b)
	// quotes), unless the stride already caught it.
	last := sizes[len(sizes)-1]
	if out[len(out)-1].NumAtoms() != last.Atoms {
		out = append(out, molecule.GenProtein(last.Name, last.Atoms, cfg.Seed+int64(len(sizes)-1)*7919))
	}
	return out
}

// suiteRow is the full measurement of one suite molecule.
type suiteRow struct {
	name  string
	atoms int
	// seconds and energies per program name; missing = failed (OOM).
	seconds  map[string]float64
	energies map[string]float64
	failures map[string]string
	naive    float64
}

const (
	progNaive   = "Naive"
	progOctCILK = "OCT_CILK"
	progOctMPI  = "OCT_MPI"
	progOctHyb  = "OCT_MPI+CILK"
)

// suiteCache memoizes the expensive full-suite sweep so fig8a/fig8b/fig9
// share one computation.
var suiteCache struct {
	sync.Mutex
	key  string
	rows []suiteRow
}

func suiteKey(cfg Config) string {
	return fmt.Sprintf("%d/%d/%d/%g", cfg.Seed, cfg.SuiteStride, cfg.Repetitions, cfg.OpsPerSecond)
}

// computeSuite runs every program of Table II over the suite at 12 cores
// (one modeled node), the setting of Figures 8 and 9.
func computeSuite(cfg Config) ([]suiteRow, error) {
	suiteCache.Lock()
	defer suiteCache.Unlock()
	if suiteCache.key == suiteKey(cfg) {
		return suiteCache.rows, nil
	}
	var rows []suiteRow
	for _, mol := range suiteMolecules(cfg) {
		row := suiteRow{
			name:     mol.Name,
			atoms:    mol.NumAtoms(),
			seconds:  map[string]float64{},
			energies: map[string]float64{},
			failures: map[string]string{},
		}
		// Octree programs share one prepared system (approximate math ON,
		// as in the paper's Figure 7/8 runs: the laned tier).
		params := core.DefaultParams()
		params.Precision = core.PrecisionLanes
		prep, err := prepare(mol, params)
		if err != nil {
			return nil, err
		}
		// Naive reference (exact math, the accuracy baseline).
		naiveE, naiveR := core.NaiveEnergy(mol, prep.surf, 80, mathx.Exact)
		_ = naiveR
		row.naive = naiveE
		row.energies[progNaive] = naiveE
		// Naive modeled time: M·N + M² kernel evaluations on one core.
		m := float64(mol.NumAtoms())
		row.seconds[progNaive] = (m*float64(prep.surf.NumPoints()) + m*m) / cfg.OpsPerSecond

		if res, err := runOctCILK(prep, coresPerNode, cfg); err == nil {
			row.seconds[progOctCILK] = res.ModelSeconds
			row.energies[progOctCILK] = res.Epol
		} else {
			row.failures[progOctCILK] = err.Error()
		}
		if res, err := runOctMPI(prep, coresPerNode, false, cfg, cfg.Seed); err == nil {
			row.seconds[progOctMPI] = res.ModelSeconds
			row.energies[progOctMPI] = res.Epol
		} else {
			row.failures[progOctMPI] = err.Error()
		}
		if res, err := runOctMPI(prep, coresPerNode, true, cfg, cfg.Seed); err == nil {
			row.seconds[progOctHyb] = res.ModelSeconds
			row.energies[progOctHyb] = res.Epol
		} else {
			row.failures[progOctHyb] = err.Error()
		}

		for _, p := range baselines.All() {
			cores := coresPerNode
			if p.Spec.Serial {
				cores = 1
			}
			res, err := p.Run(mol, baselines.Options{
				Cores:        cores,
				OpsPerSecond: cfg.OpsPerSecond,
			})
			if err != nil {
				if errors.Is(err, baselines.ErrAtomLimit) {
					row.failures[p.Spec.Name] = "out of memory"
					continue
				}
				return nil, err
			}
			row.seconds[p.Spec.Name] = res.ModelSeconds
			row.energies[p.Spec.Name] = res.Epol
		}
		rows = append(rows, row)
	}
	suiteCache.key = suiteKey(cfg)
	suiteCache.rows = rows
	return rows, nil
}

// fig7: the three octree programs across the suite, sorted by OCT_CILK
// time (the paper's presentation).
func fig7(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	rows, err := computeSuite(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Octree-based algorithms on one node, 12 cores (approximate math ON)",
		Columns: []string{"Molecule", "Atoms", "OCT_CILK (s)", "OCT_MPI (s)", "OCT_MPI+CILK (s)"},
	}
	for _, r := range rows {
		t.AddRow(r.name, r.atoms, r.seconds[progOctCILK], r.seconds[progOctMPI], r.seconds[progOctHyb])
	}
	sortRowsByFloatColumn(t, 2)
	t.Notes = append(t.Notes, "rows sorted by OCT_CILK time, as in the paper's Figure 7")
	return []*Table{t}, nil
}

// suiteProgramOrder is the Figure 8/9 program roster.
func suiteProgramOrder() []string {
	out := []string{progNaive}
	for _, p := range baselines.All() {
		out = append(out, p.Spec.Name)
	}
	return append(out, progOctCILK, progOctMPI, progOctHyb)
}

// fig8: running times of all programs sorted by molecule size (8a) and
// speedups w.r.t. Amber (8b).
func fig8(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	rows, err := computeSuite(cfg)
	if err != nil {
		return nil, err
	}
	progs := suiteProgramOrder()
	ta := &Table{
		ID:      "fig8a",
		Title:   "Running time (s) of all programs, 12 cores (GBr6 serial), sorted by size",
		Columns: append([]string{"Molecule", "Atoms"}, progs...),
	}
	tb := &Table{
		ID:      "fig8b",
		Title:   "Speedup w.r.t. Amber 12 on 12 cores",
		Columns: append([]string{"Molecule", "Atoms"}, progs[1:]...),
	}
	for _, r := range rows {
		cells := []any{r.name, r.atoms}
		for _, p := range progs {
			if msg, bad := r.failures[p]; bad {
				cells = append(cells, "FAIL("+msg+")")
			} else {
				cells = append(cells, r.seconds[p])
			}
		}
		ta.AddRow(cells...)
		amber := r.seconds["Amber 12"]
		cells = []any{r.name, r.atoms}
		for _, p := range progs[1:] {
			if _, bad := r.failures[p]; bad {
				cells = append(cells, "-")
			} else {
				cells = append(cells, speedup(amber, r.seconds[p]))
			}
		}
		tb.AddRow(cells...)
	}
	return []*Table{ta, tb}, nil
}

// fig9: energy values per program (the paper's Figure 9: all r⁶-based
// codes track the naive value; other GB flavors deviate; Tinker/GBr6 run
// out of memory beyond ≈12–13k atoms).
func fig9(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	rows, err := computeSuite(cfg)
	if err != nil {
		return nil, err
	}
	progs := suiteProgramOrder()
	t := &Table{
		ID:      "fig9",
		Title:   "GB-energy (kcal/mol) computed by different algorithms",
		Columns: append([]string{"Molecule", "Atoms"}, progs...),
	}
	for _, r := range rows {
		cells := []any{r.name, r.atoms}
		for _, p := range progs {
			if _, bad := r.failures[p]; bad {
				cells = append(cells, "OOM")
			} else {
				cells = append(cells, r.energies[p])
			}
		}
		t.AddRow(cells...)
	}
	return []*Table{t}, nil
}

// fig10: % error (avg ± std over the suite) and average running time as
// the E_pol ε sweeps 0.1..0.9 with Born ε fixed at 0.9, approximate math
// OFF — the paper's Figure 10 protocol.
func fig10(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	mols := suiteMolecules(cfg)
	// Naive references, computed once per molecule (exact math).
	type ref struct {
		prepBySweep map[float64]*core.System
		surf        *surface.Surface
		naive       float64
	}
	refs := make([]ref, len(mols))
	for i, mol := range mols {
		surf, err := surface.ForMolecule(mol, surface.Options{})
		if err != nil {
			return nil, err
		}
		naiveE, _ := core.NaiveEnergy(mol, surf, 80, mathx.Exact)
		refs[i] = ref{surf: surf, naive: naiveE}
	}
	t := &Table{
		ID:      "fig10",
		Title:   "OCT_MPI+CILK error and time vs E_pol epsilon (Born epsilon fixed at 0.9, approximate math OFF)",
		Columns: []string{"EpsEpol", "Avg %error", "Std %error", "Avg time (s)"},
	}
	for _, eps := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		var errStat, timeStat stats.Summary
		for i, mol := range mols {
			params := core.Params{EpsBorn: 0.9, EpsEpol: eps, EpsSolv: 80}
			sys, err := core.NewSystem(mol, refs[i].surf, params)
			if err != nil {
				return nil, err
			}
			prep := &prepared{mol: mol, surf: refs[i].surf, sys: sys}
			res, err := runOctMPI(prep, coresPerNode, true, cfg, cfg.Seed)
			if err != nil {
				return nil, err
			}
			errStat.Add(stats.PercentError(res.Epol, refs[i].naive))
			timeStat.Add(res.ModelSeconds)
		}
		t.AddRow(eps, errStat.Mean(), errStat.Std(), timeStat.Mean())
	}
	t.Notes = append(t.Notes,
		"paper: error grows and time falls with epsilon; approximate math ON shifts error by 4-5% and speeds up ~1.42x (see fig7/fig8 runs)")
	return []*Table{t}, nil
}
