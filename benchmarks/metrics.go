package main

import (
	"math"
	"sort"
)

// metricDecl is one row of BENCHMARK.json. The declarations below are
// the source the harness emits from; the self-test asserts the file
// matches them, so a name cannot be emitted undeclared or declared
// unemitted.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the library waits on or pays for.
// Bound is the share of the parent's median by which the metric may
// worsen before a change is a regression.
var endToEnd = []metricDecl{
	// The lower quartile of the ops' wall times is the one bounded time.
	// This shared 2-core host slows by 10–40 % for 10–20 s at a time, a
	// fifth of the time: over ten runs the median's spread reached 21 %
	// and the lower quartile's 17 %, and the largest bound a benchmark may
	// declare is 25 %. The fastest quarter of a run's ops is what a burst
	// shorter than three quarters of the window leaves alone.
	{"op_ms_p25", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"epol_rel_err", "ratio", "lower", 0.10},
}

// perLayer are single-layer numbers read from the traced run. A layer
// is a module of the repository; a metric a workload does not exercise
// reads 0 there.
var perLayer = []metricDecl{
	{Name: "molecule.load_ms", Unit: "ms", Better: "lower"},
	{Name: "surface.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "surface.qpoints", Unit: "count", Better: "lower"},
	{Name: "octree.build_atoms_ms", Unit: "ms", Better: "lower"},
	{Name: "octree.build_qpts_ms", Unit: "ms", Better: "lower"},
	{Name: "octree.nodes", Unit: "count", Better: "lower"},
	{Name: "core.system.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.system.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.system.repose_ms", Unit: "ms", Better: "lower"},
	{Name: "core.lists.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.lists.born_near", Unit: "count", Better: "lower"},
	{Name: "core.lists.born_far", Unit: "count", Better: "lower"},
	{Name: "core.lists.epol_near", Unit: "count", Better: "lower"},
	{Name: "core.lists.epol_sym", Unit: "count", Better: "lower"},
	{Name: "core.lists.epol_far", Unit: "count", Better: "lower"},
	{Name: "core.lists.bytes", Unit: "B", Better: "lower"},
	{Name: "core.lists.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "core.lists.compile_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "core.lists.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.lists.allocs", Unit: "count", Better: "lower"},
	{Name: "core.born.ms", Unit: "ms", Better: "lower"},
	{Name: "core.push.ms", Unit: "ms", Better: "lower"},
	{Name: "core.epol.ms", Unit: "ms", Better: "lower"},
	{Name: "core.born.ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "core.epol.ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "core.eval.ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval.ops", Unit: "count", Better: "lower"},
	{Name: "core.eval.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.eval.frac_calibrated_peak", Unit: "ratio", Better: "higher"},
	{Name: "core.eval.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "core.repair.update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.repair.keys_moved", Unit: "count", Better: "lower"},
	{Name: "core.repair.rows_repaired", Unit: "count", Better: "lower"},
	{Name: "core.repair.rows_total", Unit: "count", Better: "lower"},
	{Name: "core.repair.row_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.repair.fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.repair.vs_compile", Unit: "ratio", Better: "lower"},
	{Name: "core.snapshot.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "core.snapshot.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "sched.steals_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.speedup_vs_1thread", Unit: "ratio", Better: "higher"},
	{Name: "cluster.net.run_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.net.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.net.worker_load_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.net.protocol_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.net.degraded", Unit: "count", Better: "lower"},
	{Name: "cluster.net.worker_errors", Unit: "count", Better: "lower"},
	{Name: "cluster.collective.count", Unit: "count", Better: "lower"},
	{Name: "cluster.collective.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.collective.xfer_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.samples", Unit: "count", Better: "higher"},
	{Name: "harness.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "harness.op_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "harness.tail_pct", Unit: "%", Better: "higher"},
	{Name: "harness.op_ms_iqr", Unit: "ms", Better: "lower"},
	{Name: "harness.accounted_pct", Unit: "%", Better: "higher"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// relIQR is the interquartile range as a share of the median — the
// spread `-compare` holds against a metric's bound.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// tail returns the highest percentile with at least ten samples beyond
// it and the value there; with fewer than twenty samples no percentile
// above the median has that support, so it reports the median.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 20 {
		return 50, median(xs)
	}
	pct = 100 * (1 - 10/float64(n))
	return pct, quantile(xs, pct/100)
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}
