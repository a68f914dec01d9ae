package bench

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"gbpolar/internal/bench/gate"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
)

// TestGateReportReconciliation is the issue's acceptance run: `gbtrace
// report` on a traced 4-rank resilient 5k-atom run must print per-phase
// wall/virtual breakdowns whose totals reconcile with the raw span sums,
// and must name the dominant phase and a max/mean imbalance factor per
// phase. The analysis is driven through the same JSONL round-trip the
// CLI uses.
func TestGateReportReconciliation(t *testing.T) {
	p, err := gatePrepare(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	if err := gateRun(p, 1, o); err != nil {
		t.Fatal(err)
	}

	// Re-ingest through the JSONL round-trip, exactly as cmd/gbtrace does.
	var jsonl strings.Builder
	if err := o.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	a := analyze.FromTrace(back)

	// Independent raw span sums straight off the event list.
	type sums struct{ wall, virt float64 }
	raw := map[string]*sums{}
	for _, ev := range back.Events() {
		if ev.Cat != "phase" || ev.Ph != "X" {
			continue
		}
		s := raw[ev.Name]
		if s == nil {
			s = &sums{}
			raw[ev.Name] = s
		}
		s.wall += ev.WallDurUS
		if ev.HasVirt && ev.Args["truncated"] == 0 {
			s.virt += ev.VirtDurUS
		}
	}
	if len(raw) == 0 {
		t.Fatal("traced run produced no phase spans")
	}
	for _, want := range []string{"build", "born", "push", "epol"} {
		if raw[want] == nil {
			t.Fatalf("no %q phase in trace; have %v", want, raw)
		}
	}
	for name, s := range raw {
		ps := a.Phase(name)
		if ps == nil {
			t.Fatalf("analysis dropped phase %q", name)
		}
		if e := relDiff(ps.Wall.TotalUS, s.wall); e > 1e-9 {
			t.Errorf("phase %s wall total %g != raw span sum %g", name, ps.Wall.TotalUS, s.wall)
		}
		if e := relDiff(ps.Virt.TotalUS, s.virt); e > 1e-9 {
			t.Errorf("phase %s virt total %g != raw span sum %g", name, ps.Virt.TotalUS, s.virt)
		}
		// A max/mean imbalance factor per phase, λ ≥ 1 by construction.
		if ps.Virt.TotalUS > 0 && ps.Virt.Imbalance < 1 {
			t.Errorf("phase %s imbalance %g < 1", name, ps.Virt.Imbalance)
		}
	}

	// The printed report names the dominant phase and the imbalance table.
	var buf strings.Builder
	if err := a.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dominant phase: "+a.DominantPhase) || a.DominantPhase == "" {
		t.Errorf("report does not name the dominant phase:\n%s", out)
	}
	for _, want := range []string{"w-imb", "v-imb", "born", "push", "epol", "straggler: rank"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// The crash shows up as recovery attribution (rank 1, 2nd collective).
	if a.Recovery.Crashes != 1 || a.Recovery.RecomputedRows <= 0 {
		t.Errorf("recovery attribution = %+v, want 1 crash with recomputed rows", a.Recovery)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

// TestGateSelfCompare: the gate must pass when a run is compared against
// its own freshly measured baseline — the deterministic virtual stats
// match exactly and the wall stats sit inside the noise-aware tolerance.
// The two baselines come from two separately prepared systems whose
// repetitions alternate, so a load change on the host during the test
// reaches both sides alike instead of shifting one side's medians. Each
// side takes the median of five, as gbbench's -gate-reps default does:
// the collective retry counts after the crash spread over a few values,
// and three samples can all land on one of them.
func TestGateSelfCompare(t *testing.T) {
	const atoms, reps = 2000, 5
	var sides [2]*gateSampler
	for i := range sides {
		g, err := newGateSampler(atoms, 1)
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = g
	}
	var first, second []map[string]float64
	for rep := 0; rep < reps; rep++ {
		a, err := sides[0].sample()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sides[1].sample()
		if err != nil {
			t.Fatal(err)
		}
		first, second = append(first, a), append(second, b)
	}
	base := BuildBaseline(first, atoms, 1)
	cur := BuildBaseline(second, atoms, 1)
	if len(base.Stats) == 0 {
		t.Fatal("baseline tracked no stats")
	}
	rows, ok := CompareBaselines(base, cur)
	if !ok {
		var bad []GateRow
		for _, r := range rows {
			if r.Status == "REGRESSED" {
				bad = append(bad, r)
			}
		}
		t.Fatalf("self-compare failed the gate: %+v", bad)
	}
	// The virtual axis is pinned: identical medians, zero spread. (Event
	// counts are NOT in this list — collective retry attempts after the
	// crash depend on goroutine interleaving, so a loaded host can shift
	// the trace by a few events; the gate's gate.SchedFloor absorbs that.)
	for _, key := range []string{"critical.virt_ms", "makespan.virt_ms"} {
		b, c := base.Stats[key], cur.Stats[key]
		if b.Median != c.Median || b.Spread != 0 || c.Spread != 0 {
			t.Errorf("%s not deterministic: base %+v cur %+v", key, b, c)
		}
	}
	if _, ok := base.Stats["events"]; !ok {
		t.Error("events not tracked in the baseline")
	}
}

// TestGateRegressionDetected: a synthetic stat table with one phase
// slowed 2x must fail the gate with that stat flagged, on both axes;
// the same-sized improvement must not fail it.
func TestGateRegressionDetected(t *testing.T) {
	mk := func(epolVirt, epolWall float64) []map[string]float64 {
		var out []map[string]float64
		for i := 0; i < 3; i++ {
			jitter := 1 + 0.02*float64(i) // ±2% wall noise across reps
			out = append(out, map[string]float64{
				"phase.epol.virt_ms":        epolVirt,
				"phase.epol.wall_ms":        epolWall * jitter,
				"phase.born.virt_ms":        40,
				"critical.virt_ms":          epolVirt + 40,
				"makespan.wall_ms":          (epolWall + 30) * jitter,
				"events":                    100,
				"phase.epol.virt_imbalance": 1.2,
			})
		}
		return out
	}
	base := BuildBaseline(mk(100, 80), 2000, 1)

	slowed := BuildBaseline(mk(200, 160), 2000, 1)
	rows, ok := CompareBaselines(base, slowed)
	if ok {
		t.Fatal("gate passed a 2x phase slowdown")
	}
	flagged := map[string]bool{}
	for _, r := range rows {
		if r.Status == "REGRESSED" {
			flagged[r.Stat] = true
		}
	}
	for _, want := range []string{"phase.epol.virt_ms", "phase.epol.wall_ms", "critical.virt_ms"} {
		if !flagged[want] {
			t.Errorf("2x slowdown did not flag %s (flagged: %v)", want, flagged)
		}
	}
	if flagged["phase.born.virt_ms"] || flagged["events"] {
		t.Errorf("untouched stats flagged: %v", flagged)
	}
	// Regressions sort to the top of the printed table.
	if rows[0].Status != "REGRESSED" {
		t.Errorf("rows[0] = %+v, want a regression first", rows[0])
	}

	improved, ok := CompareBaselines(base, BuildBaseline(mk(50, 40), 2000, 1))
	if !ok {
		t.Fatalf("gate failed on an improvement: %+v", improved)
	}
}

// TestGateTolerancePolicy pins the noise-aware tolerance: wall stats get
// the generous floor, scheduling-sensitive counts the middle one,
// everything else the strict one, and the observed spread widens all.
func TestGateTolerancePolicy(t *testing.T) {
	if got := gate.Tolerance("phase.epol.wall_ms", GateStat{}, GateStat{}); got != gate.WallFloor {
		t.Errorf("wall floor = %v, want %v", got, gate.WallFloor)
	}
	for _, stat := range []string{"events", "collective.allreduce.count", "collective.allreduce.wait_ms"} {
		if got := gate.Tolerance(stat, GateStat{}, GateStat{}); got != gate.SchedFloor {
			t.Errorf("%s floor = %v, want %v", stat, got, gate.SchedFloor)
		}
	}
	if got := gate.Tolerance("phase.epol.virt_ms", GateStat{}, GateStat{}); got != gate.StrictFloor {
		t.Errorf("strict floor = %v, want %v", got, gate.StrictFloor)
	}
	wide := gate.Tolerance("phase.epol.virt_ms", GateStat{Spread: 0.1}, GateStat{Spread: 0.05})
	if want := gate.SpreadMult * 0.15; math.Abs(wide-want) > 1e-12 {
		t.Errorf("spread-widened tolerance = %v, want %v", wide, want)
	}
}

// TestBaselineRoundTrip: WriteFile/ReadBaseline preserve the stats and
// reject schema drift.
func TestBaselineRoundTrip(t *testing.T) {
	b := BuildBaseline([]map[string]float64{
		{"phase.epol.virt_ms": 10, "events": 5},
		{"phase.epol.virt_ms": 12, "events": 5},
	}, 2000, 7)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Atoms != 2000 || back.Seed != 7 || back.Reps != 2 {
		t.Fatalf("baseline header lost: %+v", back)
	}
	if got := back.Stats["phase.epol.virt_ms"].Median; got != 11 {
		t.Fatalf("median = %v, want 11 (even-count midpoint)", got)
	}
	if back.Created == "" || back.Git == "" {
		t.Fatalf("missing provenance stamps: %+v", back)
	}

	bad := &Baseline{Schema: 99, Stats: map[string]GateStat{}}
	raw := filepath.Join(t.TempDir(), "bad.json")
	if err := bad.WriteFile(raw); err != nil {
		t.Fatal(err)
	}
	// WriteFile stamps the stale schema as-is; ReadBaseline must refuse it.
	bad.Schema = 99
	if _, err := ReadBaseline(raw); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}
