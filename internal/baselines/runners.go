package baselines

import (
	"gbpolar/internal/cluster"
	"gbpolar/internal/gbmodels"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
)

func segment(n, p, i int) (int, int) { return n * i / p, n * (i + 1) / p }

// runMPI executes the package under atom-based MPI division: rows of the
// pairwise sums are split across ranks, radii are allgathered, energies
// reduced — the parallel structure of Amber/Gromacs/NAMD GB.
func (p *Pkg) runMPI(mol *molecule.Molecule, opts Options) (*Result, error) {
	nodes := (opts.Cores + opts.RanksPerNode - 1) / opts.RanksPerNode
	cfg := cluster.Config{
		Procs:        opts.Cores,
		RanksPerNode: opts.RanksPerNode,
		Topology:     cluster.Lonestar4(nodes),
		Mode:         opts.Mode,
		OpsPerSecond: p.rate(opts),
		StartupCost:  opts.MPIStartup,
	}
	M := mol.NumAtoms()
	radiiOut := make([]float64, M)
	var epolOut float64
	var totalOps float64
	overhead := p.measureOverhead()

	rep, err := cluster.Run(cfg, func(c *cluster.Comm) error {
		P, rank := c.Size(), c.Rank()
		c.TrackMemory(mol.MemoryBytes())
		lo, hi := segment(M, P, rank)
		radii, ops := p.radiiRows(mol, lo, hi)
		c.ChargeOps(ops * overhead)

		counts := make([]int, P)
		for r := 0; r < P; r++ {
			l, h := segment(M, P, r)
			counts[r] = h - l
		}
		all, err := c.Allgatherv(radii, counts)
		if err != nil {
			return err
		}
		raw, eops := energyRows(mol, all, lo, hi)
		c.ChargeOps(eops * overhead)

		total, err := c.Allreduce([]float64{raw, ops + eops}, cluster.Sum)
		if err != nil {
			return err
		}
		if rank == 0 {
			copy(radiiOut, all)
			epolOut = -0.5 * gbmodels.Tau(opts.EpsSolv) * total[0]
			totalOps = total[1]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Epol:         epolOut,
		BornRadii:    radiiOut,
		ModelSeconds: rep.VirtualSeconds,
		Ops:          totalOps,
		Report:       rep,
	}, nil
}

// runShared executes the package with OpenMP-style static loop
// partitioning over threads (Tinker): no work stealing, so the modeled
// time is the maximum statically-assigned chunk.
func (p *Pkg) runShared(mol *molecule.Molecule, opts Options) (*Result, error) {
	M := mol.NumAtoms()
	threads := opts.Cores
	pool := sched.NewPool(threads)
	defer pool.Close()

	radii := make([]float64, M)
	chunkOps := make([]float64, threads)
	// Static partition: thread t gets exactly segment t (no stealing).
	done := make(chan int, threads)
	pool.Run(func(w *sched.Worker) {
		for t := 0; t < threads; t++ {
			t := t
			w.Spawn(func(*sched.Worker) {
				lo, hi := segment(M, threads, t)
				rows, ops := p.radiiRows(mol, lo, hi)
				copy(radii[lo:hi], rows)
				chunkOps[t] = ops
				done <- t
			})
		}
	})
	for t := 0; t < threads; t++ {
		<-done
	}
	var raw float64
	rawParts := make([]float64, threads)
	pool.Run(func(w *sched.Worker) {
		for t := 0; t < threads; t++ {
			t := t
			w.Spawn(func(*sched.Worker) {
				lo, hi := segment(M, threads, t)
				e, ops := energyRows(mol, radii, lo, hi)
				rawParts[t] = e
				chunkOps[t] += ops
				done <- t
			})
		}
	})
	var maxChunk, totalOps float64
	for t := 0; t < threads; t++ {
		<-done
	}
	for t := 0; t < threads; t++ {
		raw += rawParts[t]
		totalOps += chunkOps[t]
		if chunkOps[t] > maxChunk {
			maxChunk = chunkOps[t]
		}
	}
	return &Result{
		Epol:         -0.5 * gbmodels.Tau(opts.EpsSolv) * raw,
		BornRadii:    radii,
		ModelSeconds: maxChunk * p.measureOverhead() / p.rate(opts),
		Ops:          totalOps,
	}, nil
}

// runSerial executes single-core packages (GBr⁶).
func (p *Pkg) runSerial(mol *molecule.Molecule, opts Options) (*Result, error) {
	M := mol.NumAtoms()
	radii, ops := p.radiiRows(mol, 0, M)
	raw, eops := energyRows(mol, radii, 0, M)
	total := ops + eops
	return &Result{
		Epol:         -0.5 * gbmodels.Tau(opts.EpsSolv) * raw,
		BornRadii:    radii,
		ModelSeconds: total * p.measureOverhead() / p.rate(opts),
		Ops:          total,
	}, nil
}
