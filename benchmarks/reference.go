package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"gbpolar/internal/core"
	"gbpolar/internal/mathx"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// knownReference caches core.NaiveEnergy (Θ(M·N + M²), 8 s at 20 000
// atoms on this host) for the two molecules the workloads use, keyed by
// a fingerprint of the exact inputs it was computed from. A generator or
// surface change alters the fingerprint, and the reference is then
// recomputed rather than trusted; the self-test recomputes both entries.
var knownReference = map[uint64]float64{
	0x39769823b8e53383: -11107.523438313247, // largeProtein, default surface
	0x77622f282193c2c9: -9547.9838474739754, // smallProtein, default surface
}

// fingerprint hashes every number the naive reference reads.
func fingerprint(mol *molecule.Molecule, surf *surface.Surface) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, a := range mol.Atoms {
		put(a.Pos.X, a.Pos.Y, a.Pos.Z, a.Radius, a.Charge)
	}
	for _, q := range surf.Points {
		put(q.Pos.X, q.Pos.Y, q.Pos.Z, q.Normal.X, q.Normal.Y, q.Normal.Z, q.Weight)
	}
	return h.Sum64()
}

// referenceEnergy is the naive E_pol of mol/surf at the default solvent
// dielectric: the cached value when the inputs are the known ones,
// core's naive sums otherwise. It is invariant under rigid motion, so
// one value serves every pose of the molecule.
func referenceEnergy(mol *molecule.Molecule, surf *surface.Surface) float64 {
	if e, ok := knownReference[fingerprint(mol, surf)]; ok {
		return e
	}
	return naiveEnergy(mol, surf)
}

// naiveEnergy is core.NaiveEnergy with the Born-radius sum — independent
// per atom — split over two goroutines.
func naiveEnergy(mol *molecule.Molecule, surf *surface.Surface) float64 {
	half := mol.NumAtoms() / 2
	parts := [2]*molecule.Molecule{{Atoms: mol.Atoms[:half]}, {Atoms: mol.Atoms[half:]}}
	var radii [2][]float64
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			radii[i] = core.NaiveBornRadii(parts[i], surf, mathx.Exact)
		}(i)
	}
	wg.Wait()
	eps := core.DefaultParams().EpsSolv
	return core.NaiveEpol(mol, append(radii[0], radii[1]...), eps, mathx.Exact)
}
