package bench

import (
	"fmt"
	"math"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
)

// lanes is the kernel ablation (`gbbench -exp lanes`): the warm pose
// scan measured under both precision tiers of the compiled batch kernels
// — exact (the baseline) and the laned approximate-math tier (the paper's
// Section V.E comparison, which bought 1.42× standalone). One table,
// paper-style: energy, relative error against the exact tier at a fixed
// pose, best-of-reps ms per pose, and speedup over exact.
func lanes(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()
	n := int(40000 * cfg.Scale / 0.02)
	if n < 500 {
		n = 500
	}
	mol := molecule.GenProtein("lanes-ablation", n, cfg.Seed)
	prep, err := prepare(mol, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	sys := prep.sys
	pool := sched.NewPool(0)
	defer pool.Close()
	opts := core.SharedOptions{Pool: pool}
	if _, err := core.RunShared(sys, opts); err != nil { // compile lists
		return nil, err
	}

	tiers := []struct {
		label string
		prec  core.Precision
	}{
		{"exact (baseline)", core.PrecisionExact},
		{"laned approx f64 (paper V.E)", core.PrecisionLanes},
	}
	saved := sys.Params
	defer func() { sys.Params = saved }()

	// Energies for the error column are all taken at the SAME fixed pose;
	// the timing loop below re-poses freely (rigid motion preserves the
	// lists and the work, so it cannot skew the comparison).
	energies := make([]float64, len(tiers))
	for i, tr := range tiers {
		sys.Params.Precision = tr.prec
		res, err := core.RunShared(sys, opts)
		if err != nil {
			return nil, err
		}
		energies[i] = res.Epol
	}

	t := &Table{
		ID: "lanes",
		Title: fmt.Sprintf("Kernel ablation: precision tiers on the warm pose scan (%d atoms, %d q-points)",
			mol.NumAtoms(), prep.surf.NumPoints()),
		Columns: []string{"Kernel tier", "E_pol (kcal/mol)", "Rel err vs exact", "ms/pose (best)", "Speedup"},
	}
	step := geom.Translate(geom.V(1.5, -0.7, 0.9)).Compose(geom.RotateAxis(geom.V(0, 0, 1), 0.05))
	reps := cfg.Repetitions
	if reps < 3 {
		reps = 3
	}
	var baseMS float64
	for i, tr := range tiers {
		sys.Params.Precision = tr.prec
		best := math.Inf(1)
		for rep := 0; rep < reps; rep++ {
			sys.ApplyRigidTransform(step)
			t0 := time.Now()
			if _, err := core.RunShared(sys, opts); err != nil {
				return nil, err
			}
			if ms := float64(time.Since(t0).Microseconds()) / 1000; ms < best {
				best = ms
			}
		}
		if i == 0 {
			baseMS = best
		}
		relE := math.Abs(energies[i]-energies[0]) / math.Abs(energies[0])
		t.AddRow(tr.label, fmt.Sprintf("%.6f", energies[i]), fmt.Sprintf("%.2e", relE),
			fmt.Sprintf("%.3f", best), fmt.Sprintf("%.2fx", baseMS/best))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("kernel ISA: %s (runtime-detected; portable fallback elsewhere)", core.KernelISA()),
		"ms/pose includes the rigid transform, the SoA refresh and both energy phases",
		"the portable laned-f64 rows are bit-identical to a scalar approximate-math sweep (TestLanesTierBitCompatible); the assembly lanes kernels — epolStreamLanes4 on avx2+fma, epolStreamLanes8 on avx512f, the same bits — are pinned to it at ~1e-11 (TestAsmKernelsMatchPortable)",
		"paper Section V.E reports 1.42× from approximate math alone; GOAMD64=v3 (make bench-lanes GOAMD64=v3) additionally lifts the compiled Go code to the AVX2 baseline")
	return []*Table{t}, nil
}
