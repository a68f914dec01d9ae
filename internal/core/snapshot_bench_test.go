package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gbpolar/internal/sched"
)

// The checkpoint codec at the ledger's two fixtures: the 4 000-atom
// molecule net_run ships (4.1 MB; 4.3 MB encoded in 3.3–4.3 ms on a 2-vCPU
// Xeon) and the 20 000-atom one (24.5 MB; 26.2 MB in 20–26 ms), Morton trees,
// compiled lists embedded. Run with `make bench-snapshot`; MB/s is snapshot
// bytes per second.

var snapshotBenchSink any

func snapshotBench(b *testing.B, run func(b *testing.B, sys *System, data []byte, path string)) {
	for _, atoms := range []int{4000, 20000} {
		b.Run(fmt.Sprintf("%dk", atoms/1000), func(b *testing.B) {
			sys, _, _ := testSystem(b, atoms, 2, mortonParams())
			pool := sched.NewPool(2)
			sys.Lists(pool)
			pool.Close()
			data, err := EncodeSnapshot(sys)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "sys.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			run(b, sys, data, path)
		})
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	snapshotBench(b, func(b *testing.B, sys *System, _ []byte, _ string) {
		for i := 0; i < b.N; i++ {
			out, err := EncodeSnapshot(sys)
			if err != nil {
				b.Fatal(err)
			}
			snapshotBenchSink = out
		}
	})
}

func BenchmarkSnapshotSave(b *testing.B) {
	snapshotBench(b, func(b *testing.B, sys *System, _ []byte, path string) {
		for i := 0; i < b.N; i++ {
			if err := SaveSnapshot(path, sys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotDecode times the full decode and a TCP run worker's
// (decodeWorkerSnapshot: the E_pol side, the rest stepped over), each in
// MB/s of the whole snapshot, whose CRC both check.
func BenchmarkSnapshotDecode(b *testing.B) {
	for _, dec := range []struct {
		name   string
		decode func([]byte) (*System, error)
	}{{"full", DecodeSnapshot}, {"worker", decodeWorkerSnapshot}} {
		b.Run(dec.name, func(b *testing.B) {
			snapshotBench(b, func(b *testing.B, _ *System, data []byte, _ string) {
				for i := 0; i < b.N; i++ {
					sys, err := dec.decode(data)
					if err != nil {
						b.Fatal(err)
					}
					snapshotBenchSink = sys
				}
			})
		})
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	snapshotBench(b, func(b *testing.B, _ *System, _ []byte, path string) {
		for i := 0; i < b.N; i++ {
			sys, err := LoadSnapshotAnyParams(path)
			if err != nil {
				b.Fatal(err)
			}
			snapshotBenchSink = sys
		}
	})
}
