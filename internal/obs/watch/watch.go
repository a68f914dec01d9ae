// Package watch is the coordinator's anomaly watchdog: a single ticker
// goroutine that re-analyzes the merged run timeline on every window,
// compares the per-phase imbalance stats against a baseline of nominal
// imbalances — cut from a trace of a nominal run of the same workload
// (BaselineFromSummary) — and raises a verdict when a stat stays above
// its envelope for Sustain consecutive windows. The envelope is this
// package's own rule: a rise of more than 30 % over nominal for a
// phase's wall imbalance, 0.5 % for its virtual-clock one. One sustained
// breach means a specific phase on a specific rank is running hot
// relative to the recorded nominal shape.
//
// The trace alone cannot see a straggler mid-phase: telemetry ships only
// closed spans, so a remote rank stuck inside epol contributes nothing
// to the merged timeline until it finishes — exactly when detection is
// too late. The health sampler closes that gap by publishing open-span
// age gauges (health.open.phase.<name>_us) which arrive rank-prefixed
// with every telemetry frame; the watchdog overlays those ages onto each
// rank's closed wall sums before computing imbalance, so the envelope is
// judged against where every rank is *now*. See DESIGN.md §14.
package watch

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gbpolar/internal/obs"
	"gbpolar/internal/obs/analyze"
)

// Config shapes a watchdog.
type Config struct {
	// Baseline maps phase.<name>.wall_imbalance / .virt_imbalance to
	// their nominal values (BaselineFromSummary); only the stats it names
	// are watched. Required.
	Baseline map[string]float64
	// Window is the evaluation cadence (<= 0: DefaultWindow).
	Window time.Duration
	// Sustain is how many consecutive breaching windows arm a verdict
	// (<= 0: DefaultSustain). Values below 2 admit one-window blips —
	// scheduler noise, a stale open-span gauge between sampler ticks.
	Sustain int
	// MinPhaseWallUS excludes micro-phases: a phase is judged only once
	// its slowest rank has accumulated this much wall time (<= 0:
	// DefaultMinPhaseWallUS). Imbalance on microsecond-long spans is
	// dominated by scheduler jitter, not by computation skew.
	MinPhaseWallUS float64
	// OnAnomaly, when non-nil, runs synchronously on the watchdog
	// goroutine for each verdict — the coordinator uses it to dump the
	// flight recorder tagged with the offending phase and rank.
	OnAnomaly func(Verdict)
}

// The envelope: how far a watched stat may rise over its nominal value,
// relative to it, before a window counts as a breach. Wall imbalance is
// real timing with scheduler noise — a generous floor; the virtual
// clock is deterministic for a pinned cost model — a floor that only
// absorbs fp jitter.
const (
	wallTolerance = 0.30
	virtTolerance = 0.005
)

// Defaults for Config zero values.
const (
	DefaultWindow         = 250 * time.Millisecond
	DefaultSustain        = 3
	DefaultMinPhaseWallUS = 25_000
)

// Verdict is one sustained anomaly.
type Verdict struct {
	// Stat is the breached stat (e.g. "phase.epol.wall_imbalance").
	Stat string `json:"stat"`
	// Phase and Rank localize the anomaly: the phase the stat tracks and
	// the rank carrying the maximum overlaid wall time when it fired.
	Phase string `json:"phase"`
	Rank  int    `json:"rank"`
	// Base/Cur/DeltaPct/TolPct are the breach: nominal value, live
	// value, their relative difference and the allowed one, in percent.
	Base     float64 `json:"base"`
	Cur      float64 `json:"cur"`
	DeltaPct float64 `json:"delta_pct"`
	TolPct   float64 `json:"tol_pct"`
	// Windows is the sustained breach length, in evaluation windows.
	Windows int `json:"windows"`
	// WallMS is when the verdict fired, on the coordinator's trace clock.
	WallMS float64 `json:"wall_ms"`
}

func (v Verdict) String() string {
	return fmt.Sprintf("%s rank %d: %s %.3f vs baseline %.3f (%+.1f%% > tol %.1f%%, %d windows)",
		v.Phase, v.Rank, v.Stat, v.Cur, v.Base, v.DeltaPct, v.TolPct, v.Windows)
}

// Watchdog is a running anomaly monitor. Start one per coordinator.
type Watchdog struct {
	o   *obs.Obs
	cfg Config

	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	streaks  map[string]int
	fired    map[string]bool
	verdicts []Verdict

	// gaugeSeen tracks each overlay gauge's last value and how many
	// consecutive evaluations it has been frozen — the staleness filter
	// (only the watchdog goroutine touches it).
	gaugeSeen map[string]*gaugeState
	// phaseTotal remembers each phase's overlaid wall sum from the
	// previous evaluation — the activity guard (watchdog goroutine only).
	phaseTotal map[string]float64
}

type gaugeState struct {
	val       float64
	unchanged int
}

// staleAfterEvals is how many consecutive unchanged evaluations mark an
// overlay gauge stale. A genuinely stuck rank's open-span age grows with
// every sampler tick, so its gauge keeps changing; a gauge frozen this
// long belongs to a span that already closed (the zeroing sample lost a
// race with the worker's last telemetry flush) and must not be overlaid.
// Two evals of slack tolerate a sampler cadence up to ~2× the window.
const staleAfterEvals = 2

// openGaugeRE matches the rank-prefixed open-span age gauges absorbed
// from worker telemetry: rank<r>.health.open.phase.<name>_us.
var openGaugeRE = regexp.MustCompile(`^rank(\d+)\.health\.open\.phase\.(.+)_us$`)

// Start launches the watchdog against the coordinator's observer.
// Returns nil (Stop-safe) when the observer is disabled or no baseline
// was given — watching nothing is not an error, it is the obs-off path.
func Start(o *obs.Obs, cfg Config) *Watchdog {
	if !o.Enabled() || len(cfg.Baseline) == 0 {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Sustain <= 0 {
		cfg.Sustain = DefaultSustain
	}
	if cfg.MinPhaseWallUS <= 0 {
		cfg.MinPhaseWallUS = DefaultMinPhaseWallUS
	}
	w := &Watchdog{
		o:          o,
		cfg:        cfg,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		streaks:    map[string]int{},
		fired:      map[string]bool{},
		gaugeSeen:  map[string]*gaugeState{},
		phaseTotal: map[string]float64{},
	}
	go w.loop()
	return w
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Window)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			w.evaluate() // final pass so a breach at teardown still lands
			return
		case <-tick.C:
			w.evaluate()
		}
	}
}

// Stop halts the watchdog after one final evaluation and blocks until
// its goroutine exits. Idempotent and nil-safe.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

// Anomalous reports whether any verdict has fired. Nil-safe.
func (w *Watchdog) Anomalous() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.verdicts) > 0
}

// Verdicts returns a copy of the verdicts fired so far, oldest first.
// Nil-safe.
func (w *Watchdog) Verdicts() []Verdict {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Verdict(nil), w.verdicts...)
}

// evaluate runs one watchdog window: overlay, summarize, compare, count.
func (w *Watchdog) evaluate() {
	rep := analyze.Analyze(w.o.Trace.Events())
	open := w.openOverlay()
	ranks := map[int]bool{}
	for _, rs := range rep.Ranks {
		ranks[rs.Rank] = true
	}

	// Live stats for the watched subset, plus the offending rank per stat.
	stats := map[string]float64{}
	rankOf := map[string]int{}
	phaseOf := map[string]string{}
	for _, p := range rep.Phases {
		per := map[int]float64{}
		for r, us := range p.PerRankWallUS {
			per[r] = us
		}
		for r, age := range open[p.Name] {
			per[r] += age
		}
		// Judge a phase only once every known rank has contributed to it
		// (a closed span, a truncated local one, or a live open-span
		// gauge). Worker spans arrive via telemetry with flush-interval
		// lag, so right after the coordinator's own span lands the phase
		// looks wildly imbalanced — absence of data, not an anomaly.
		if len(per) < len(ranks) {
			continue
		}
		// Judge a phase only while its data is still moving: a phase whose
		// overlaid wall sum is identical to the previous evaluation has
		// finished (or its telemetry has gone quiet), and a finished
		// phase's shape is not a live anomaly. This keeps one-shot startup
		// phases (born, build) from sustaining a breach forever on real runs, where rank 0 computes them while the
		// workers are still joining and the skew freezes into history; a
		// genuinely dragging phase keeps growing every window, through
		// closed spans or the straggler's open-span age gauge. Streaks are
		// preserved across skipped windows, so a breach that resumes
		// growing continues its count rather than restarting.
		var total float64
		for _, us := range per {
			total += us
		}
		if prev, seen := w.phaseTotal[p.Name]; seen && total == prev {
			continue
		}
		w.phaseTotal[p.Name] = total
		maxUS, maxRank, mean := axis(per)
		if maxUS < w.cfg.MinPhaseWallUS || mean <= 0 {
			continue
		}
		key := "phase." + p.Name + ".wall_imbalance"
		stats[key] = maxUS / mean
		rankOf[key] = maxRank
		phaseOf[key] = p.Name
		if p.HasVirt && p.Virt.MeanUS > 0 {
			vkey := "phase." + p.Name + ".virt_imbalance"
			stats[vkey] = p.Virt.Imbalance
			rankOf[vkey] = p.Virt.MaxRank
			phaseOf[vkey] = p.Name
		}
	}

	// Judge only the stats both sides know: the baseline may carry phases
	// the live run never reaches and the live run may have phases the
	// baseline never saw — neither is an anomaly. Sorted, so verdicts
	// fired in one window land in a fixed order.
	keys := make([]string, 0, len(stats))
	for k := range stats {
		if _, ok := w.cfg.Baseline[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	w.mu.Lock()
	var fired []Verdict
	for _, k := range keys {
		base, cur := w.cfg.Baseline[k], stats[k]
		delta, tol, breach := judge(k, base, cur)
		if !breach {
			w.streaks[k] = 0
			continue
		}
		w.streaks[k]++
		if w.streaks[k] < w.cfg.Sustain || w.fired[k] {
			continue
		}
		w.fired[k] = true
		v := Verdict{
			Stat:  k,
			Phase: phaseOf[k],
			Rank:  rankOf[k],
			Base:  base, Cur: cur,
			DeltaPct: delta, TolPct: tol,
			Windows: w.streaks[k],
			WallMS:  w.o.Trace.NowUS() / 1e3,
		}
		w.verdicts = append(w.verdicts, v)
		fired = append(fired, v)
	}
	w.mu.Unlock()

	// Side effects outside the lock: the callback may dump the flight
	// recorder or poke the health endpoint, neither of which should
	// serialize against Verdicts readers.
	for _, v := range fired {
		w.o.Counter("watch.anomalies").Inc()
		w.o.Instant(v.Rank, "watch", "watch.anomaly", obs.NoVirtual,
			obs.F("rank", float64(v.Rank)),
			obs.F("cur", v.Cur), obs.F("base", v.Base))
		if w.cfg.OnAnomaly != nil {
			w.cfg.OnAnomaly(v)
		}
	}
}

// judge compares one watched stat's live value against its nominal one:
// the rise over nominal and the allowed rise, both in percent, and
// whether the first exceeds the second. Only a rise breaches — every
// watched stat is an imbalance, where higher is worse — and a stat with
// no positive nominal value never does.
func judge(stat string, base, cur float64) (deltaPct, tolPct float64, breach bool) {
	if base <= 0 {
		return 0, 0, false
	}
	tol := virtTolerance
	if strings.HasSuffix(stat, ".wall_imbalance") {
		tol = wallTolerance
	}
	deltaPct, tolPct = 100*(cur-base)/base, 100*tol
	return deltaPct, tolPct, deltaPct > tolPct
}

// openOverlay reads the rank-prefixed open-span age gauges shipped by
// worker health samplers: phase name → rank → open span age (µs). Local
// open spans are not included — Trace.Events already exports them as
// truncated spans, so overlaying them too would double-count. A gauge
// frozen for staleAfterEvals consecutive evaluations is dropped: a live
// straggler's age grows every sampler tick, while a frozen positive age
// is the ghost of a span that closed after the worker's last flush.
func (w *Watchdog) openOverlay() map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	if w.o.Metrics == nil {
		return out
	}
	snap := w.o.Metrics.Snapshot()
	for name, v := range snap.Gauges {
		m := openGaugeRE.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		g := w.gaugeSeen[name]
		switch {
		case g == nil:
			g = &gaugeState{val: v}
			w.gaugeSeen[name] = g
		case v != g.val:
			g.val, g.unchanged = v, 0
		default:
			g.unchanged++
		}
		if v <= 0 || g.unchanged >= staleAfterEvals {
			continue
		}
		rank, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		phase := m[2]
		if out[phase] == nil {
			out[phase] = map[int]float64{}
		}
		out[phase][rank] = v
	}
	return out
}

// axis reduces a per-rank wall map to (max, argmax, mean).
func axis(per map[int]float64) (maxUS float64, maxRank int, mean float64) {
	if len(per) == 0 {
		return 0, 0, 0
	}
	maxUS = math.Inf(-1)
	var sum float64
	for r, us := range per {
		sum += us
		if us > maxUS || (us == maxUS && r < maxRank) {
			maxUS, maxRank = us, r
		}
	}
	return maxUS, maxRank, sum / float64(len(per))
}

// BaselineFromSummary keeps, of one run's analyzer summary
// (analyze.Analysis.Summary), the stats the watchdog judges: each phase's
// wall and virtual imbalance, as the nominal values of Config.Baseline.
func BaselineFromSummary(summary map[string]float64) map[string]float64 {
	b := map[string]float64{}
	for k, v := range summary {
		if strings.HasSuffix(k, ".wall_imbalance") || strings.HasSuffix(k, ".virt_imbalance") {
			b[k] = v
		}
	}
	return b
}
