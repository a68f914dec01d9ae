package watch

import (
	"testing"
	"time"

	"gbpolar/internal/obs"
)

func phaseEv(rank int, name string, durUS float64) obs.Event {
	return obs.Event{Name: name, Cat: "phase", Ph: "X", Rank: rank, WallDurUS: durUS}
}

func testBaseline() map[string]float64 {
	return map[string]float64{
		"phase.epol.wall_imbalance":  1.05,
		"phase.build.wall_imbalance": 1.0,
	}
}

// newTestWatchdog builds a watchdog without the ticker goroutine so
// tests drive evaluate deterministically.
func newTestWatchdog(o *obs.Obs, cfg Config) *Watchdog {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Sustain <= 0 {
		cfg.Sustain = DefaultSustain
	}
	if cfg.MinPhaseWallUS <= 0 {
		cfg.MinPhaseWallUS = DefaultMinPhaseWallUS
	}
	return &Watchdog{
		o: o, cfg: cfg,
		stop: make(chan struct{}), done: make(chan struct{}),
		streaks: map[string]int{}, fired: map[string]bool{},
		gaugeSeen:  map[string]*gaugeState{},
		phaseTotal: map[string]float64{},
	}
}

// A balanced run must produce zero verdicts no matter how many windows
// pass — even as balanced rounds keep accumulating.
func TestWatchdogNominal(t *testing.T) {
	o := obs.New()
	for r := 0; r < 4; r++ {
		o.Trace.Adopt(phaseEv(r, "epol", 70_000))
	}
	w := newTestWatchdog(o, Config{Baseline: testBaseline()})
	for i := 0; i < 10; i++ {
		w.evaluate()
		for r := 0; r < 4; r++ { // another balanced round closes
			o.Trace.Adopt(phaseEv(r, "epol", 70_000))
		}
	}
	if w.Anomalous() || len(w.Verdicts()) != 0 {
		t.Fatalf("nominal run flagged: %+v", w.Verdicts())
	}
}

// A 2× slowdown on one rank must yield exactly one verdict naming the
// phase and rank, after exactly Sustain windows, and never a duplicate.
func TestWatchdogSustainedBreach(t *testing.T) {
	o := obs.New()
	for r := 0; r < 4; r++ {
		dur := 70_000.0
		if r == 1 {
			dur = 140_000 // λ = 140/87.5 = 1.6 > 1.05 × 1.30
		}
		o.Trace.Adopt(phaseEv(r, "epol", dur))
	}
	var cb []Verdict
	w := newTestWatchdog(o, Config{
		Baseline: testBaseline(),
		Sustain:  3,
		OnAnomaly: func(v Verdict) {
			cb = append(cb, v)
		},
	})
	// The dragging rank keeps accumulating between windows — the activity
	// guard requires movement for a phase to stay in scope.
	w.evaluate()
	o.Trace.Adopt(phaseEv(1, "epol", 10_000))
	w.evaluate()
	if w.Anomalous() {
		t.Fatalf("verdict before Sustain windows")
	}
	o.Trace.Adopt(phaseEv(1, "epol", 10_000))
	w.evaluate()
	vs := w.Verdicts()
	if len(vs) != 1 {
		t.Fatalf("verdicts = %+v, want exactly 1", vs)
	}
	v := vs[0]
	if v.Phase != "epol" || v.Rank != 1 || v.Stat != "phase.epol.wall_imbalance" {
		t.Errorf("verdict localization wrong: %+v", v)
	}
	if v.Windows != 3 {
		t.Errorf("verdict windows = %d, want 3", v.Windows)
	}
	if len(cb) != 1 || cb[0].Rank != 1 {
		t.Errorf("OnAnomaly calls = %+v", cb)
	}

	// More breaching windows must not re-fire the same stat.
	o.Trace.Adopt(phaseEv(1, "epol", 10_000))
	w.evaluate()
	o.Trace.Adopt(phaseEv(1, "epol", 10_000))
	w.evaluate()
	if n := len(w.Verdicts()); n != 1 {
		t.Errorf("verdicts after re-evaluation = %d, want 1", n)
	}
	if got := o.Counter("watch.anomalies").Value(); got != 1 {
		t.Errorf("watch.anomalies = %d, want 1", got)
	}
	// The verdict also lands in the trace as an instant.
	found := false
	for _, ev := range o.Trace.Events() {
		if ev.Cat == "watch" && ev.Name == "watch.anomaly" && ev.Rank == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("watch.anomaly instant missing from trace")
	}
}

// A rank stuck mid-phase is only visible through its shipped open-span
// age gauge; the watchdog must overlay it onto the closed walls.
func TestWatchdogOpenGaugeOverlay(t *testing.T) {
	o := obs.New()
	for r := 0; r < 4; r++ {
		o.Trace.Adopt(phaseEv(r, "epol", 70_000))
	}
	// Rank 2 is 80ms deep into a second epol span it has not closed; the
	// age keeps growing with every sampler tick, which is also what keeps
	// the phase "active" for the watchdog.
	o.Gauge("rank2.health.open.phase.epol_us").Set(80_000)
	w := newTestWatchdog(o, Config{Baseline: testBaseline(), Sustain: 2})
	w.evaluate()
	o.Gauge("rank2.health.open.phase.epol_us").Set(95_000)
	w.evaluate()
	vs := w.Verdicts()
	if len(vs) != 1 || vs[0].Rank != 2 || vs[0].Phase != "epol" {
		t.Fatalf("overlay verdict = %+v, want epol rank 2", vs)
	}
	// λ = 165/93.75 = 1.76
	if vs[0].Cur < 1.7 || vs[0].Cur > 1.8 {
		t.Errorf("overlaid imbalance = %v, want ≈1.76", vs[0].Cur)
	}
}

// A frozen open-span gauge is a ghost (the span closed but the zeroing
// sample lost the race with the worker's last flush): it may inflate at
// most staleAfterEvals windows, fewer than Sustain, so no verdict.
func TestWatchdogStaleGaugeIgnored(t *testing.T) {
	o := obs.New()
	for r := 0; r < 4; r++ {
		o.Trace.Adopt(phaseEv(r, "epol", 70_000))
	}
	o.Gauge("rank3.health.open.phase.epol_us").Set(80_000) // never changes again
	w := newTestWatchdog(o, Config{Baseline: testBaseline(), Sustain: 3})
	for i := 0; i < 8; i++ {
		w.evaluate()
	}
	if w.Anomalous() {
		t.Fatalf("stale gauge produced a verdict: %+v", w.Verdicts())
	}
}

// A phase is not judged until every known rank has contributed: worker
// spans lag behind the coordinator's own by a telemetry flush, and that
// absence must read as "no data yet", not imbalance.
func TestWatchdogPartialArrival(t *testing.T) {
	o := obs.New()
	// Rank 1..3 are known (they have born spans) but only rank 0's epol
	// span has arrived so far — epol looks infinitely imbalanced.
	for r := 0; r < 4; r++ {
		o.Trace.Adopt(phaseEv(r, "born", 1_000))
	}
	o.Trace.Adopt(phaseEv(0, "epol", 200_000))
	w := newTestWatchdog(o, Config{Baseline: testBaseline(), Sustain: 1})
	for i := 0; i < 5; i++ {
		w.evaluate()
	}
	if w.Anomalous() {
		t.Fatalf("partial arrival flagged: %+v", w.Verdicts())
	}
	// Once the rest arrive balanced, still quiet.
	for r := 1; r < 4; r++ {
		o.Trace.Adopt(phaseEv(r, "epol", 200_000))
	}
	w.evaluate()
	if w.Anomalous() {
		t.Fatalf("balanced arrival flagged: %+v", w.Verdicts())
	}
}

// A one-shot startup phase whose skew froze into history must never
// sustain a breach: rank 0 computes born while the workers are still
// joining, the workers' spans arrive, and then the phase stops moving —
// the activity guard caps its breach streak below Sustain no matter how
// many windows pass.
func TestWatchdogFrozenPhaseNeverSustains(t *testing.T) {
	o := obs.New()
	// Heavily imbalanced born: rank 0 took 4× the others, all ranks
	// present (coverage satisfied), well over MinPhaseWall.
	o.Trace.Adopt(phaseEv(0, "build", 200_000))
	for r := 1; r < 4; r++ {
		o.Trace.Adopt(phaseEv(r, "build", 50_000))
	}
	w := newTestWatchdog(o, Config{Baseline: testBaseline(), Sustain: 3})
	for i := 0; i < 20; i++ {
		w.evaluate()
	}
	if w.Anomalous() {
		t.Fatalf("frozen startup phase sustained a verdict: %+v", w.Verdicts())
	}
	// The same shape that RESUMES dragging does fire: growth re-enters
	// the phase into scope and the streak continues.
	for i := 0; i < 3; i++ {
		o.Trace.Adopt(phaseEv(0, "build", 50_000))
		w.evaluate()
	}
	if !w.Anomalous() {
		t.Fatal("resumed drag never fired")
	}
}

// Micro-phases stay out of scope: huge imbalance on a 2ms phase is
// scheduler noise, not an anomaly.
func TestWatchdogMinPhaseWall(t *testing.T) {
	o := obs.New()
	o.Trace.Adopt(phaseEv(0, "build", 2_000))
	o.Trace.Adopt(phaseEv(1, "build", 100))
	o.Trace.Adopt(phaseEv(2, "build", 100))
	o.Trace.Adopt(phaseEv(3, "build", 100))
	w := newTestWatchdog(o, Config{Baseline: testBaseline(), Sustain: 1})
	for i := 0; i < 5; i++ {
		w.evaluate()
	}
	if w.Anomalous() {
		t.Fatalf("micro-phase flagged: %+v", w.Verdicts())
	}
}

// The full lifecycle through Start/Stop: the ticker loop must fire the
// verdict on its own, and Stop must be idempotent and leak-free.
func TestWatchdogStartStop(t *testing.T) {
	o := obs.New()
	for r := 0; r < 4; r++ {
		dur := 70_000.0
		if r == 3 {
			dur = 200_000
		}
		o.Trace.Adopt(phaseEv(r, "epol", dur))
	}
	got := make(chan Verdict, 1)
	// Keep the dragging phase growing so the activity guard sees live
	// data, the way a real straggler's spans and age gauges would.
	feedStop := make(chan struct{})
	defer close(feedStop)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-feedStop:
				return
			case <-tick.C:
				o.Trace.Adopt(phaseEv(3, "epol", 5_000))
			}
		}
	}()
	w := Start(o, Config{
		Baseline: testBaseline(),
		Window:   2 * time.Millisecond,
		Sustain:  3,
		OnAnomaly: func(v Verdict) {
			select {
			case got <- v:
			default:
			}
		},
	})
	select {
	case v := <-got:
		if v.Rank != 3 || v.Phase != "epol" {
			t.Errorf("live verdict = %+v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
	w.Stop()
	w.Stop()

	// Disabled paths: nil observer or missing baseline watch nothing.
	if Start(nil, Config{Baseline: testBaseline()}) != nil {
		t.Error("watchdog on disabled observer")
	}
	if Start(o, Config{}) != nil {
		t.Error("watchdog without baseline")
	}
	var nilW *Watchdog
	nilW.Stop()
	if nilW.Anomalous() || nilW.Verdicts() != nil {
		t.Error("nil watchdog not inert")
	}
}

func TestBaselineFromSummary(t *testing.T) {
	b := BaselineFromSummary(map[string]float64{
		"phase.epol.wall_imbalance": 1.1,
		"phase.epol.virt_imbalance": 1.2,
		"phase.epol.wall_ms":        70,
		"makespan.wall_ms":          300,
	})
	if len(b) != 2 {
		t.Fatalf("baseline = %+v, want only the two imbalances", b)
	}
	if got := b["phase.epol.wall_imbalance"]; got != 1.1 {
		t.Fatalf("nominal = %v", got)
	}

	// The envelope: a wall imbalance may rise 30 % over nominal, a virtual
	// one 0.5 %; only a rise past that breaches.
	for _, c := range []struct {
		stat   string
		rise   float64
		breach bool
	}{
		{"phase.epol.wall_imbalance", 0.29, false},
		{"phase.epol.wall_imbalance", 0.31, true},
		{"phase.epol.wall_imbalance", -0.5, false},
		{"phase.epol.virt_imbalance", 0.004, false},
		{"phase.epol.virt_imbalance", 0.006, true},
	} {
		base := b[c.stat]
		delta, tol, breach := judge(c.stat, base, base*(1+c.rise))
		if breach != c.breach {
			t.Errorf("%s %+.1f%% over nominal: breach = %v (delta %.2f%%, tol %.2f%%), want %v",
				c.stat, 100*c.rise, breach, delta, tol, c.breach)
		}
	}
}
