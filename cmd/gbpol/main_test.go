package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gbpolar"
)

// A net run whose watchdog baseline names a missing trace fails before
// its cluster exists: Compute refuses the plan, no worker is spawned, no
// membership file is written, and neither the cluster's line nor the
// watchdog's is printed.
func TestNetRunAnnouncesOnlyAcceptedPlan(t *testing.T) {
	eng, err := gbpolar.NewEngine(gbpolar.GenerateProtein("announce", 200, 5), gbpolar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	membership := filepath.Join(dir, "cluster.json")
	var out bytes.Buffer
	nr, err := netRun(&out, 2, 1, membership, filepath.Join(dir, "sys.ckpt"),
		time.Minute, false, 0, 0, false, "", "", filepath.Join(dir, "missing.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	spawned, spawn := 0, nr.Spawn
	nr.Spawn = func(rank int) error {
		spawned++
		return spawn(rank)
	}
	if _, err := eng.Compute(context.Background(), gbpolar.Plan{Net: nr}); err == nil || !strings.Contains(err.Error(), "watch baseline") {
		t.Fatalf("Compute = %v, want a watch baseline error", err)
	}
	if spawned != 0 || out.Len() != 0 {
		t.Errorf("a refused plan spawned %d workers and printed %q", spawned, out.String())
	}
	if _, err := os.Stat(membership); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("membership file written for a refused plan (%v)", err)
	}
}
