package main

import (
	"time"

	"gbpolar/internal/obs"
)

// span is one timed call from the harness into a layer's public
// function, or a phase span read back from the program's own observer.
// Spans of one op share its index; set-up spans carry op -1.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Op      int     `json:"op"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// sample is what one scope (one set-up or one traced op) recorded:
// milliseconds per span name and the counts taken at the same boundaries,
// under names of their own.
type sample map[string]float64

// recorder keeps a traced run's spans in memory; nothing is written
// until the run ends. A nil recorder (untraced run) and a recorder with
// no open scope (the untraced control ops of a traced run) record
// nothing, and time adds only the closure call.
type recorder struct {
	origin time.Time
	spans  []span
	setups []sample
	ops    []sample
	cur    sample
	curOp  int
	// onClock is set while the op itself runs; top-level spans recorded
	// then sum to the part of the op's time the layers account for.
	onClock bool
}

const accounted = "harness.accounted"

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) active() bool { return r != nil && r.cur != nil }

// open starts a scope; op is the measured op's index or -1 for set-up.
func (r *recorder) open(op int) {
	if r == nil {
		return
	}
	r.cur = sample{}
	r.curOp = op
}

func (r *recorder) close() {
	if !r.active() {
		return
	}
	if r.curOp < 0 {
		r.setups = append(r.setups, r.cur)
	} else {
		r.ops = append(r.ops, r.cur)
	}
	r.cur = nil
}

// time runs fn as the span name under parent "op" (or "setup").
func (r *recorder) time(name string, fn func()) {
	if !r.active() {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	parent := "op"
	if r.curOp < 0 {
		parent = "setup"
	}
	r.add(name, parent, t0, time.Since(t0))
}

func (r *recorder) add(name, parent string, start time.Time, d time.Duration) {
	if !r.active() {
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	r.cur[name] += ms
	if parent == "op" && r.onClock {
		r.cur[accounted] += ms
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Op: r.curOp,
		StartMS: float64(start.Sub(r.origin)) / float64(time.Millisecond), DurMS: ms,
	})
}

// count records a count at the boundary where the work happens.
func (r *recorder) count(name string, v float64) {
	if r.active() {
		r.cur[name] += v
	}
}

// phases copies rank 0's phase spans of the program's own observer (the
// four existing build/born/push/epol spans) under parent, as core.<name>.
func (r *recorder) phases(o *obs.Obs, parent string, start time.Time) {
	if !r.active() || o == nil {
		return
	}
	for _, ev := range o.Trace.Events() {
		if ev.Ph != "X" || ev.Cat != "phase" || ev.Rank != 0 {
			continue
		}
		at := start.Add(time.Duration(ev.WallUS * float64(time.Microsecond)))
		r.add("core."+ev.Name, parent, at, time.Duration(ev.WallDurUS*float64(time.Microsecond)))
	}
}

// value is the median over traced ops of the per-op total under name; a
// name that only set-up recorded (list compilation on a warm workload)
// reads the median over set-ups instead, and one nobody recorded 0.
func (r *recorder) value(name string) float64 {
	for _, scopes := range [][]sample{r.ops, r.setups} {
		var xs []float64
		seen := false
		for _, s := range scopes {
			v, ok := s[name]
			seen = seen || ok
			xs = append(xs, v)
		}
		if seen {
			return median(xs)
		}
	}
	return 0
}
