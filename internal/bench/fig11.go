package bench

import (
	"errors"
	"fmt"

	"gbpolar/internal/baselines"
	"gbpolar/internal/core"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/stats"
)

// fig11 reproduces the paper's Figure 11 table: the CMV shell on 12 and
// 144 cores for OCT_CILK / Amber / OCT_MPI+CILK / OCT_MPI, with speedups
// w.r.t. Amber and % difference from the naive energy. Tinker and GBr⁶
// are also attempted to reproduce their out-of-memory failures
// (Section V.F).
func fig11(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	mol := molecule.CMVAnalogue(cfg.Scale, cfg.Seed)
	prep, err := prepare(mol, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	naiveE, _ := core.NaiveEnergy(mol, prep.surf, 80, mathx.Exact)
	m := float64(mol.NumAtoms())
	naiveOps := m*float64(prep.surf.NumPoints()) + m*m

	t := &Table{
		ID: "fig11",
		Title: fmt.Sprintf("Scalability on a large molecule: %s (%d atoms, %d q-points)",
			mol.Name, mol.NumAtoms(), prep.surf.NumPoints()),
		Columns: []string{"Program", "12 cores (s)", "144 cores (s)",
			"Speedup vs Amber (12)", "Speedup vs Amber (144)",
			"Energy (kcal/mol)", "% diff with Naive"},
	}

	amber12, err := baselines.Amber.Run(mol, baselines.Options{Cores: 12, OpsPerSecond: cfg.OpsPerSecond})
	if err != nil {
		return nil, err
	}
	amber144, err := baselines.Amber.Run(mol, baselines.Options{Cores: 144, OpsPerSecond: cfg.OpsPerSecond})
	if err != nil {
		return nil, err
	}

	cilk, err := runOctCILK(prep, coresPerNode, cfg)
	if err != nil {
		return nil, err
	}
	t.AddRow(progOctCILK, cilk.ModelSeconds, "X",
		speedup(amber12.ModelSeconds, cilk.ModelSeconds), "X",
		cilk.Epol, stats.PercentError(cilk.Epol, naiveE))

	t.AddRow("Amber 12", amber12.ModelSeconds, amber144.ModelSeconds, 1.0, 1.0,
		amber12.Epol, stats.PercentError(amber12.Epol, naiveE))

	for _, hy := range []bool{true, false} {
		name := progOctMPI
		if hy {
			name = progOctHyb
		}
		r12, err := runOctMPI(prep, 12, hy, cfg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		r144, err := runOctMPI(prep, 144, hy, cfg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, r12.ModelSeconds, r144.ModelSeconds,
			speedup(amber12.ModelSeconds, r12.ModelSeconds),
			speedup(amber144.ModelSeconds, r144.ModelSeconds),
			r12.Epol, stats.PercentError(r12.Epol, naiveE))
	}

	t.AddRow("Naive (1 core)", naiveOps/cfg.OpsPerSecond, "X", "-", "-", naiveE, 0.0)

	// The paper: GBr6 and Tinker run out of memory on CMV; Gromacs/NAMD
	// only run with unreasonably small cutoffs.
	for _, p := range []*baselines.Pkg{baselines.Tinker, baselines.GBr6} {
		if _, err := p.Run(mol, baselines.Options{Cores: 12, OpsPerSecond: cfg.OpsPerSecond}); err != nil {
			if errors.Is(err, baselines.ErrAtomLimit) {
				t.Notes = append(t.Notes, fmt.Sprintf("%s: out of memory on %d atoms (as in the paper)",
					p.Spec.Name, mol.NumAtoms()))
				continue
			}
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: ran (molecule below its capacity at scale %.3g)",
			p.Spec.Name, cfg.Scale))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"CMV analogue at scale %.4g of the paper's 509,640 atoms; use -scale 1 for the full size", cfg.Scale))
	return []*Table{t}, nil
}
