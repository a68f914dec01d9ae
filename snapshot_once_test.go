//go:build unix

package gbpolar

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"gbpolar/internal/core"
)

// NewEngineFromSnapshot reads and decodes the file once. The snapshot is
// served through a FIFO whose writer delivers the bytes a single time: a
// loader that opened the file twice (as the facade did for every stamp
// other than the all-zero Params{}) would block on the second open.
func TestSnapshotLoadedOnce(t *testing.T) {
	eng, err := NewEngine(GenerateProtein("once", 200, 16), Options{EpsEpol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Compute(ctx, Plan{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "eng.snap")
	if err := eng.SaveSnapshot(file); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}

	load := func(payload []byte) (*Engine, error) {
		fifo := filepath.Join(dir, "fifo")
		os.Remove(fifo)
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		go func() {
			if w, err := os.OpenFile(fifo, os.O_WRONLY, 0); err == nil {
				w.Write(payload) // the reader's error, if any, is the test's subject
				w.Close()
			}
		}()
		type loaded struct {
			eng *Engine
			err error
		}
		done := make(chan loaded, 1)
		go func() {
			e, err := NewEngineFromSnapshot(fifo)
			done <- loaded{e, err}
		}()
		select {
		case l := <-done:
			return l.eng, l.err
		case <-time.After(30 * time.Second):
			t.Fatal("NewEngineFromSnapshot opened the snapshot a second time")
			return nil, nil
		}
	}

	restored, err := load(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Compute(ctx, Plan{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Epol != want.Epol {
		t.Errorf("restored E_pol %v, want %v", got.Epol, want.Epol)
	}
	// The typed error comes back unchanged, also after one read.
	data[len(data)/2] ^= 0x40
	if _, err := load(data); !errors.Is(err, core.ErrSnapshotCorrupt) {
		t.Errorf("corrupt snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
}
