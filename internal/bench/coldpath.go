package bench

import (
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// ColdStage is one stage of the cold path: its wall time and the CPU time
// the whole process spent during it. CPU ÷ wall is the number of cores the
// stage kept busy — 1.00 marks a serial stage.
type ColdStage struct {
	Name      string
	Wall, CPU time.Duration
}

// ColdPath takes the PQR file at path to a first E_pol through the five
// calls a user makes — molecule.LoadFile, surface.ForMolecule,
// core.NewSystem, System.Lists, core.RunShared — and times each. It returns
// the system the path ends with.
func ColdPath(path string, pool *sched.Pool) ([]ColdStage, *core.System, error) {
	var stages []ColdStage
	var err error
	stage := func(name string, fn func()) {
		if err != nil {
			return
		}
		c0, t0 := processCPU(), time.Now()
		fn()
		stages = append(stages, ColdStage{Name: name, Wall: time.Since(t0), CPU: processCPU() - c0})
	}
	var mol *molecule.Molecule
	var surf *surface.Surface
	var sys *core.System
	params := core.DefaultParams()
	params.Builder = octree.BuilderMorton
	stage("LoadFile", func() { mol, err = molecule.LoadFile(path) })
	stage("ForMolecule", func() { surf, err = surface.ForMolecule(mol, surface.Options{}) })
	stage("NewSystem", func() { sys, err = core.NewSystem(mol, surf, params) })
	stage("Lists", func() { sys.Lists(pool) })
	stage("RunShared", func() { _, err = core.RunShared(sys, core.SharedOptions{Pool: pool}) })
	return stages, sys, err
}
