package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/sched"
)

// config is one run of one workload.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	tmpdir  string
	// large and small are the two molecules (the self-test shrinks them).
	large, small protein
	// maxOps caps the measured ops (0 = until the window is full).
	maxOps int
	// refs caches naive references across the runs of one invocation.
	refs map[protein]float64
}

func fullSize(seed int64, seconds float64, traced bool, tmpdir string) config {
	return config{seed: seed, seconds: seconds, traced: traced, tmpdir: tmpdir,
		large: largeProtein, small: smallProtein, refs: map[protein]float64{}}
}

// run is what one run of one workload measured.
type run struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// OpMS are the measured ops' wall times: every op of an untraced run,
	// the untraced control ops of a traced one.
	OpMS    []float64          `json:"op_ms"`
	SetupS  []float64          `json:"setup_s"`
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans,omitempty"`
}

const (
	// Set-up repeats at least minSetups times and, when it is cheap, until
	// minSetupTotal has passed: a 40 ms set-up needs more repeats than a
	// 1.5 s one for its median to hold still.
	minSetups     = 5
	maxSetups     = 25
	minSetupTotal = time.Second
	// minOps keeps a median meaningful on a host too slow to fit more
	// into the window; a traced run needs that many of each kind.
	minOps = 3
)

// runWorkload drives one closed-loop client through set-up, warm-up and
// the measured window.
func runWorkload(spec workloadSpec, cfg config) (*run, error) {
	tmp, err := os.MkdirTemp(cfg.tmpdir, "gbbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	pool := sched.NewPool(threads)
	defer pool.Close()
	e := &env{cfg: cfg, pool: pool, tmp: tmp, protein: cfg.large}
	if spec.small {
		e.protein = cfg.small
	}
	if cfg.traced {
		e.rec = newRecorder()
	}
	ref, ok := cfg.refs[e.protein]
	if !ok {
		if ref, err = e.protein.reference(); err != nil {
			return nil, err
		}
		cfg.refs[e.protein] = ref
	}
	e.ref = ref

	// Set-up, repeated: the median is the metric, the last build is used.
	out := &run{Metrics: map[string]float64{}}
	var w workload
	for start := time.Now(); len(out.SetupS) < minSetups ||
		(time.Since(start) < minSetupTotal && len(out.SetupS) < maxSetups); {
		w = nil
		runtime.GC()
		w = spec.make()
		e.rec.open(-1)
		t0 := time.Now()
		err := w.setup(e)
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		e.rec.close()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	// Warm-up ops fill caches and finish lazy set-up; a failure here means
	// the workload is broken, not that an op was slow.
	for i := -spec.warmup; i < 0; i++ {
		_, failure, err := step(e, w, i, false, false)
		if err == nil {
			err = failure
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / 1e6

	// The window: op times only; preparation, the forced GC and the checks
	// are off the clock. In a traced run even ops are traced and odd ops
	// are untraced controls, so the two medians come from one run.
	var tracedMS []float64
	var window time.Duration
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 0
		// last is decided before the op, so that its checks know: the op
		// expected to fill the window, once each median has its samples.
		last := i+1 == cfg.maxOps
		if cfg.maxOps == 0 && i+1 >= minOps && (!cfg.traced || i+1 >= 2*minOps) {
			last = (window + window/time.Duration(i)).Seconds() >= cfg.seconds
		}
		d, failure, err := step(e, w, i, traced, last)
		if err != nil {
			return nil, err
		}
		window += d
		out.Attempted++
		if failure != nil {
			out.Failed++
			if len(out.Failures) < 5 {
				out.Failures = append(out.Failures, fmt.Sprintf("op %d: %v", i, failure))
			}
		}
		ms := float64(d) / float64(time.Millisecond)
		if traced {
			tracedMS = append(tracedMS, ms)
		} else {
			out.OpMS = append(out.OpMS, ms)
		}
		if last {
			break
		}
	}

	if !cfg.traced {
		out.Metrics["op_ms_p25"] = quantile(out.OpMS, 0.25)
		out.Metrics["setup_s"] = median(out.SetupS)
		out.Metrics["live_heap_mb"] = liveHeapMB
		out.Metrics["epol_rel_err"] = relDiff(w.engine().e0, e.ref)
		return out, nil
	}
	serial, err := serialEval(w)
	if err != nil {
		return nil, err
	}
	layerMetrics(out, e.rec, tracedMS, serial)
	out.Spans = e.rec.spans
	return out, nil
}

// step runs op i: prepare, forced GC, the timed op, the checks. The
// returned duration is the op alone; failure is why the op counts as
// failed, err why the run cannot go on.
func step(e *env, w workload, i int, traced, last bool) (d time.Duration, failure, err error) {
	if err := w.prepare(e, i); err != nil {
		return 0, nil, fmt.Errorf("prepare op %d: %w", i, err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	if traced {
		e.rec.open(i)
		defer e.rec.close()
		runtime.ReadMemStats(&m0)
		e.rec.onClock = true
	}
	t0 := time.Now()
	failure = w.op(e, i)
	d = time.Since(t0)
	if traced {
		e.rec.onClock = false
		runtime.ReadMemStats(&m1)
		e.rec.count("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		e.rec.count("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	}
	if failure == nil {
		failure = w.check(e, i, last)
	}
	return d, failure, nil
}

// serialEval is the plain single-threaded baseline: the median of two
// RunShared calls on a one-worker pool over the workload's final system.
func serialEval(w workload) (float64, error) {
	pool := sched.NewPool(1)
	defer pool.Close()
	var ms []float64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := core.RunShared(w.engine().sys, core.SharedOptions{Pool: pool}); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms), nil
}

// layerMetrics derives every per-layer metric from the recorder. Times
// are medians over the traced ops (over the set-ups for a span only
// set-up ran); counts repeat exactly from op to op.
func layerMetrics(out *run, r *recorder, tracedMS []float64, serialMS float64) {
	m := out.Metrics
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, name := range []string{
		"molecule.load", "surface.sample", "octree.build_atoms", "octree.build_qpts",
		"core.system.new", "core.system.repose", "core.lists.compile", "core.repair.update",
		"core.snapshot.encode", "core.snapshot.decode",
		"cluster.net.run", "cluster.net.checkpoint", "cluster.net.worker_load",
	} {
		m[name+"_ms"] = r.value(name)
	}
	for _, name := range []string{"core.born", "core.push", "core.epol", "core.eval"} {
		m[name+".ms"] = r.value(name)
	}
	for _, name := range []string{
		"surface.qpoints", "octree.nodes",
		"core.lists.born_near", "core.lists.born_far", "core.lists.epol_near", "core.lists.epol_sym", "core.lists.epol_far",
		"core.lists.bytes", "core.lists.alloc_mb", "core.lists.allocs", "core.eval.ops",
		"core.repair.keys_moved", "core.repair.rows_repaired", "core.repair.rows_total", "core.repair.fallbacks",
		"core.snapshot.bytes", "cluster.net.degraded", "cluster.net.worker_errors",
		"cluster.collective.count", "cluster.collective.wait_ms", "cluster.collective.xfer_ms",
		"runtime.gc_cycles",
	} {
		m[name] = r.value(name)
	}
	m["core.system.self_ms"] = m["core.system.new_ms"] - m["octree.build_atoms_ms"] - m["octree.build_qpts_ms"]

	bornEntries := m["core.lists.born_near"] + m["core.lists.born_far"]
	epolEntries := m["core.lists.epol_near"] + m["core.lists.epol_sym"] + m["core.lists.epol_far"]
	m["core.lists.bytes_per_entry"] = div(m["core.lists.bytes"], bornEntries+epolEntries)
	m["core.lists.compile_ns_per_entry"] = div(m["core.lists.compile_ms"]*1e6, bornEntries+epolEntries)
	m["core.born.ns_per_entry"] = div(m["core.born.ms"]*1e6, bornEntries)
	m["core.epol.ns_per_entry"] = div(m["core.epol.ms"]*1e6, epolEntries)
	m["core.eval.ops_per_s"] = div(m["core.eval.ops"], m["core.eval.ms"]/1e3)
	m["core.eval.frac_calibrated_peak"] = m["core.eval.ops_per_s"] / (threads * core.CalibratedOpsPerSecond())
	m["core.eval.alloc_kb_per_op"] = r.value("core.eval.alloc_kb")

	m["core.repair.row_frac"] = div(m["core.repair.rows_repaired"], m["core.repair.rows_total"])
	m["core.repair.vs_compile"] = div(m["core.repair.update_ms"], m["core.lists.compile_ms"])
	m["core.snapshot.encode_mb_per_s"] = div(m["core.snapshot.bytes"]/1e6, m["core.snapshot.encode_ms"]/1e3)

	m["sched.steals_per_op"] = r.value("sched.steals")
	m["sched.speedup_vs_1thread"] = div(serialMS, m["core.eval.ms"])
	m["cluster.net.protocol_ms"] = 0
	if run := m["cluster.net.run_ms"]; run > 0 {
		m["cluster.net.protocol_ms"] = run - m["cluster.net.checkpoint_ms"] - m["core.born.ms"] - m["core.push.ms"] - m["core.epol.ms"]
	}
	m["runtime.gc_pause_ms_per_op"] = r.value("runtime.gc_pause_ms")

	p50 := median(tracedMS)
	m["obs.trace_overhead_pct"] = 100 * div(p50-median(out.OpMS), median(out.OpMS))
	m["harness.samples"] = float64(len(tracedMS))
	m["harness.op_ms_p50"] = p50
	m["harness.tail_pct"], m["harness.op_ms_tail"] = tail(tracedMS)
	m["harness.op_ms_iqr"] = quantile(tracedMS, 0.75) - quantile(tracedMS, 0.25)
	m["harness.accounted_pct"] = 100 * div(r.value(accounted), p50)
}
