package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// tinyCfg keeps the experiment tests fast: ≈1k-atom shells, 3-molecule
// suite, 2 repetitions.
func tinyCfg() Config {
	return Config{Seed: 5, Scale: 0.002, SuiteStride: 40, Repetitions: 2}
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{"tableI", "tableII", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "extensions", "obs", "lanes"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "test", Columns: []string{"A", "B"}}
	tab.AddRow("hello", 3.14159)
	tab.AddRow(42, "with,comma")
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hello") || !strings.Contains(out, "3.1416") {
		t.Errorf("text output missing cells:\n%s", out)
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"with,comma"`) {
		t.Errorf("CSV did not quote comma cell:\n%s", buf.String())
	}
}

func TestTablesIAndII(t *testing.T) {
	for _, id := range []string{"tableI", "tableII"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tabs, err := e.Run(tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(tabs) != 1 || len(tabs[0].Rows) == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestFig5SpeedupMonotone(t *testing.T) {
	tabs, err := fig5(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != len(coreCounts()) {
		t.Fatalf("fig5 has %d rows", len(rows))
	}
	// First row is the 12-core baseline: speedup 1.
	var s0 float64
	fmt.Sscanf(rows[0][2], "%g", &s0)
	if s0 != 1 {
		t.Errorf("12-core speedup %v, want 1", s0)
	}
	// Speedup at 144 cores exceeds speedup at 12.
	var s144 float64
	fmt.Sscanf(rows[4][2], "%g", &s144)
	if s144 <= 1.5 {
		t.Errorf("144-core OCT_MPI speedup %v, want > 1.5", s144)
	}
}

func TestFig6MinLEMaxAndMemoryRatio(t *testing.T) {
	tabs, err := fig6(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("fig6 returned %d tables", len(tabs))
	}
	for _, row := range tabs[0].Rows {
		var mn, mx float64
		fmt.Sscanf(row[1], "%g", &mn)
		fmt.Sscanf(row[2], "%g", &mx)
		if mn > mx {
			t.Errorf("OCT_MPI min %v > max %v", mn, mx)
		}
	}
	// Memory ratio ≈ 6 on every row (12 ranks/node vs 2 ranks/node).
	for _, row := range tabs[1].Rows {
		var ratio float64
		fmt.Sscanf(row[3], "%g", &ratio)
		if ratio < 5.5 || ratio > 6.5 {
			t.Errorf("memory ratio %v, want ≈6", ratio)
		}
	}
}

func TestFig7RowsSorted(t *testing.T) {
	tabs, err := fig7(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) < 3 {
		t.Fatalf("fig7 has %d rows", len(rows))
	}
	prev := -1.0
	for _, r := range rows {
		var v float64
		fmt.Sscanf(r[2], "%g", &v)
		if v < prev {
			t.Fatalf("fig7 rows not sorted by OCT_CILK time")
		}
		prev = v
	}
}

func TestFig8OctreeBeatsBaselines(t *testing.T) {
	tabs, err := fig8(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[1] // speedups vs Amber
	// Columns: Molecule, Atoms, Gromacs, NAMD, Amber, Tinker, GBr6,
	// OCT_CILK, OCT_MPI, OCT_MPI+CILK.
	hdr := tb.Columns
	col := func(name string) int {
		for i, c := range hdr {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	var prev float64
	for _, row := range tb.Rows {
		var octMPI, amber, atoms float64
		fmt.Sscanf(row[1], "%g", &atoms)
		fmt.Sscanf(row[col("OCT_MPI")], "%g", &octMPI)
		fmt.Sscanf(row[col("Amber 12")], "%g", &amber)
		if amber != 1 {
			t.Errorf("Amber speedup vs itself = %v", amber)
		}
		// The paper's Figure 8(b) shape: the octree's advantage grows
		// with molecule size; above a few thousand atoms it clearly wins.
		if atoms >= 2500 && octMPI <= 1 {
			t.Errorf("OCT_MPI speedup %v not above 1 at %v atoms (%s)", octMPI, atoms, row[0])
		}
		if octMPI < prev*0.5 {
			t.Errorf("OCT_MPI speedup collapsed with size: %v after %v", octMPI, prev)
		}
		prev = octMPI
	}
}

func TestFig9EnergiesTrackNaiveForOctree(t *testing.T) {
	tabs, err := fig9(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	hdr := tabs[0].Columns
	col := func(name string) int {
		for i, c := range hdr {
			if c == name {
				return i
			}
		}
		return -1
	}
	for _, row := range tabs[0].Rows {
		var naive, oct float64
		fmt.Sscanf(row[col("Naive")], "%g", &naive)
		fmt.Sscanf(row[col("OCT_MPI")], "%g", &oct)
		if naive >= 0 {
			t.Errorf("naive energy %v not negative", naive)
		}
		if rel := (oct - naive) / naive; rel > 0.08 || rel < -0.08 {
			t.Errorf("OCT_MPI energy %v deviates >8%% from naive %v", oct, naive)
		}
	}
}

func TestFig10ErrorGrowsTimeFalls(t *testing.T) {
	cfg := tinyCfg()
	tabs, err := fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 9 {
		t.Fatalf("fig10 has %d rows", len(rows))
	}
	var err01, err09, t01, t09 float64
	fmt.Sscanf(rows[0][1], "%g", &err01)
	fmt.Sscanf(rows[8][1], "%g", &err09)
	fmt.Sscanf(rows[0][3], "%g", &t01)
	fmt.Sscanf(rows[8][3], "%g", &t09)
	if abs(err01) > abs(err09)+0.5 {
		t.Errorf("error at eps=0.1 (%v%%) larger than at 0.9 (%v%%)", err01, err09)
	}
	if t09 > t01 {
		t.Errorf("time at eps=0.9 (%v) above time at 0.1 (%v)", t09, t01)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	// Below ~2k atoms the 1 ms MPI startup dominates every program and
	// the octree's advantage vanishes (the paper's own small-molecule
	// regime); test the shape at a size where the algorithms matter.
	cfg := tinyCfg()
	cfg.Scale = 0.008 // ≈4k-atom CMV analogue
	tabs, err := fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	byProg := map[string][]string{}
	for _, row := range tab.Rows {
		byProg[row[0]] = row
	}
	var amber12, oct12, oct144 float64
	fmt.Sscanf(byProg["Amber 12"][1], "%g", &amber12)
	fmt.Sscanf(byProg["OCT_MPI"][1], "%g", &oct12)
	fmt.Sscanf(byProg["OCT_MPI"][2], "%g", &oct144)
	if !(oct12 < amber12) {
		t.Errorf("OCT_MPI (%v) not faster than Amber (%v) at 12 cores", oct12, amber12)
	}
	if !(oct144 < oct12) {
		t.Errorf("OCT_MPI at 144 cores (%v) not faster than at 12 (%v)", oct144, oct12)
	}
	// Octree error vs naive below 1% in magnitude (paper: <1%).
	var diff float64
	fmt.Sscanf(byProg["OCT_MPI"][6], "%g", &diff)
	if abs(diff) > 2.0 {
		t.Errorf("OCT_MPI %% diff with naive = %v, want within ±2", diff)
	}
}

func TestTableWriteJSON(t *testing.T) {
	tab := &Table{ID: "x", Title: "test", Columns: []string{"A", "B"}, Notes: []string{"n"}}
	tab.AddRow("hello", 1.5)
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "x" || len(got.Columns) != 2 || len(got.Rows) != 1 || len(got.Notes) != 1 {
		t.Errorf("bad JSON round-trip: %+v", got)
	}
}

func TestObsOverheadExperiment(t *testing.T) {
	cfg := tinyCfg()
	cfg.Repetitions = 1
	tabs, err := obsOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 4 {
		t.Fatalf("obs experiment shape: %d tables", len(tabs))
	}
	if tabs[0].Report == nil {
		t.Error("obs experiment did not attach the cluster report")
	}
	// The enabled resilient run must have captured the injected crash.
	var events int
	fmt.Sscanf(tabs[0].Rows[1][4], "%d", &events)
	if events < 10 {
		t.Errorf("resilient timeline captured only %d events", events)
	}
}

func TestExtensionsExperiment(t *testing.T) {
	cfg := tinyCfg()
	cfg.Repetitions = 1
	tabs, err := extensions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("extensions returned %d tables", len(tabs))
	}
	if len(tabs[0].Rows) != 4 || len(tabs[1].Rows) != 4 {
		t.Errorf("row counts: %d, %d", len(tabs[0].Rows), len(tabs[1].Rows))
	}
}
