package gbpolar

import (
	"path/filepath"
	"testing"

	"gbpolar/internal/bench"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
)

// BenchmarkColdPath20k is the benchmark's cold_start op at its fixture
// (20 000 atoms, 2 workers), stage by stage: wall ms per op and the cores
// each stage kept busy (process CPU ÷ wall), so a serial stage reads 1.00.
func BenchmarkColdPath20k(b *testing.B) {
	path := filepath.Join(b.TempDir(), "cold.pqr")
	if err := molecule.SaveFile(path, molecule.GenProtein("bench", 20000, 1)); err != nil {
		b.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	var total []bench.ColdStage
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stages, _, err := bench.ColdPath(path, pool)
		if err != nil {
			b.Fatal(err)
		}
		if total == nil {
			total = make([]bench.ColdStage, len(stages))
		}
		for k, s := range stages {
			total[k].Name = s.Name
			total[k].Wall += s.Wall
			total[k].CPU += s.CPU
		}
	}
	for _, s := range total {
		b.ReportMetric(s.Wall.Seconds()*1e3/float64(b.N), s.Name+"-ms")
		b.ReportMetric(s.CPU.Seconds()/s.Wall.Seconds(), s.Name+"-cpu/wall")
	}
}
