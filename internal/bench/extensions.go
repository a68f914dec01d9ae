package bench

import (
	"fmt"
	"math/rand"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/nblist"
	"gbpolar/internal/octree"
)

// extensions regenerates the measurements for the features built beyond
// the paper (its Section VI future work; see DESIGN.md "Extensions"):
// inter-rank work stealing under heterogeneous-node stragglers, and the
// tracked octree update vs a rebuild with the same (Morton) builder.
func extensions(cfg Config) ([]*Table, error) {
	cfg = cfg.WithDefaults()

	// --- Extension 1: inter-rank work stealing vs static division -----
	// 5k atoms so each of the 12 ranks owns ≈50 leaves — enough
	// granularity for balanced grants (stealing cannot help when a
	// segment is only a handful of grant quanta).
	mol := molecule.GenProtein("ext-steal", 5000, cfg.Seed)
	prep, err := prepare(mol, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	t1 := &Table{
		ID:    "extA-stealing",
		Title: "Static vs work-stealing energy phase under heterogeneous nodes (12 ranks, hetero sigma)",
		Columns: []string{"Hetero sigma", "Static (s)", "Dynamic (s)", "Improvement",
			"Steals", "Leaves migrated"},
	}
	for _, sigma := range []float64{0, 0.5, 1.0, 2.0} {
		var statSum, dynSum float64
		var steals, migrated int
		for rep := 0; rep < cfg.Repetitions; rep++ {
			cc := octClusterConfig(coresPerNode, false, cfg, cfg.Seed+int64(rep)*101)
			cc.NoiseSigma = 0
			cc.HeteroSigma = sigma
			static, err := core.RunDistributed(prep.sys, cc)
			if err != nil {
				return nil, err
			}
			dyn, stats, err := core.RunDistributedDynamic(prep.sys, cc)
			if err != nil {
				return nil, err
			}
			statSum += static.ModelSeconds
			dynSum += dyn.ModelSeconds
			steals += stats.Steals
			migrated += stats.LeavesMigrated
		}
		t1.AddRow(sigma, statSum/float64(cfg.Repetitions), dynSum/float64(cfg.Repetitions),
			fmt.Sprintf("%.1f%%", 100*(1-dynSum/statSum)),
			steals/cfg.Repetitions, migrated/cfg.Repetitions)
	}
	t1.Notes = append(t1.Notes,
		"the paper's Section VI future work; static pays the slowest rank's whole segment, stealing migrates it")

	// --- Extension 2: incremental octree update vs rebuild ------------
	big := molecule.GenProtein("ext-upd", 20000, cfg.Seed+1)
	pts := big.Positions()
	opts := octree.Options{LeafCap: 8, Builder: octree.BuilderMorton}
	tree, err := octree.Build(pts, opts)
	if err != nil {
		return nil, err
	}
	t2 := &Table{
		ID:    "extB-octree-update",
		Title: "Structure maintenance after motion: octree vs nonbonded list (20k atoms)",
		Columns: []string{"Displacement (Å)", "Moved points", "Octree update (ms)",
			"Octree rebuild (ms)", "Nblist rebuild 16Å (ms)", "Octree vs nblist"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	for _, disp := range []float64{0.05, 0.2, 1.0, 4.0} {
		jig := make([]geom.Vec3, len(pts))
		for i, p := range pts {
			jig[i] = p.Add(geom.V(
				(rng.Float64()*2-1)*disp, (rng.Float64()*2-1)*disp, (rng.Float64()*2-1)*disp))
		}
		t0 := time.Now()
		upd, err := tree.UpdateTracked(jig)
		if err != nil {
			return nil, err
		}
		updMS := float64(time.Since(t0).Microseconds()) / 1000

		t0 = time.Now()
		if _, err := octree.Build(jig, opts); err != nil {
			return nil, err
		}
		rebMS := float64(time.Since(t0).Microseconds()) / 1000

		t0 = time.Now()
		if _, err := nblist.Build(jig, 16, nblist.Options{}); err != nil {
			return nil, err
		}
		nbMS := float64(time.Since(t0).Microseconds()) / 1000
		t2.AddRow(disp, upd.Moved, updMS, rebMS, nbMS, fmt.Sprintf("%.0fx", nbMS/updMS))
		pts = jig
	}
	t2.Notes = append(t2.Notes,
		"Section II's update-efficiency claim: after motion, the octree is repaired (or even rebuilt) orders of magnitude cheaper than the cutoff pair list the baseline packages must refresh",
		"the update is the tracked (Morton-keyed) one the MD path runs, the rebuild the same Morton builder; displacements accumulate from row to row")
	return []*Table{t1, t2}, nil
}
