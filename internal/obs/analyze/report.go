package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Fprint renders the analysis as the `gbtrace report` breakdown: the
// per-phase wall/virtual table with imbalance factors, the dominant
// phase and straggler lines, collective wait attribution, the per-rank
// computing-vs-blocked decomposition, and recovery cost attribution.
func (a *Analysis) Fprint(w io.Writer) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "timeline: %d events, %d ranks, %d phases, %d collective kinds\n",
		a.Events, len(a.Ranks), len(a.Phases), len(a.Collectives))
	axis := "wall"
	if a.HasVirt {
		axis = "virtual"
	}
	fmt.Fprintf(bw, "makespan: wall %.3f ms, virtual %.3f ms (authoritative axis: %s)\n",
		a.WallMakespanUS/1e3, a.VirtMakespanUS/1e3, axis)
	fmt.Fprintf(bw, "critical path (sum of per-phase slowest ranks): wall %.3f ms, virtual %.3f ms\n\n",
		a.WallCriticalUS/1e3, a.VirtCriticalUS/1e3)

	fmt.Fprintf(bw, "%-10s %6s %12s %12s %7s %12s %12s %7s %5s\n",
		"phase", "spans", "wall sum", "wall max", "w-imb", "virt sum", "virt max", "v-imb", "rank")
	fmt.Fprintf(bw, "%-10s %6s %12s %12s %7s %12s %12s %7s %5s\n",
		"", "", "(ms)", "(ms)", "", "(ms)", "(ms)", "", "")
	for _, ps := range a.Phases {
		name := ps.Name
		if ps.Truncated > 0 {
			name += "*"
		}
		fmt.Fprintf(bw, "%-10s %6d %12.3f %12.3f %7.3f %12.3f %12.3f %7.3f %5d\n",
			name, ps.Spans,
			ps.Wall.TotalUS/1e3, ps.Wall.MaxUS/1e3, ps.Wall.Imbalance,
			ps.Virt.TotalUS/1e3, ps.Virt.MaxUS/1e3, ps.Virt.Imbalance,
			a.axisOf(ps).MaxRank)
	}
	if a.DominantPhase != "" {
		fmt.Fprintf(bw, "\ndominant phase: %s — %.1f%% of the %s critical path\n",
			a.DominantPhase, 100*a.DominantShare, axis)
	}
	if len(a.Ranks) > 1 {
		fmt.Fprintf(bw, "straggler: rank %d at %.3fx the mean per-rank phase time\n",
			a.Straggler, a.StragglerShare)
	}

	if len(a.Collectives) > 0 {
		fmt.Fprintf(bw, "\n%-12s %6s %10s %12s %12s %6s %10s\n",
			"collective", "spans", "bytes", "wait (ms)", "xfer (ms)", "errs", "max waiter")
		for _, cs := range a.Collectives {
			fmt.Fprintf(bw, "%-12s %6d %10.0f %12.3f %12.3f %6d %10s\n",
				cs.Name, cs.Count, cs.Bytes, cs.WaitUS/1e3, cs.XferUS/1e3, cs.Errors,
				fmt.Sprintf("rank %d", cs.MaxWaitRank))
		}
	}

	if len(a.Ranks) > 1 {
		fmt.Fprintf(bw, "\n%-5s %14s %14s %14s %9s\n",
			"rank", "compute (ms)", "blocked (ms)", "collect. (ms)", "blocked%")
		for _, rs := range a.Ranks {
			compute := rs.PhaseVirtUS
			if !a.HasVirt {
				compute = rs.PhaseWallUS
			}
			busy := compute + rs.CollVirtUS
			pct := 0.0
			if busy > 0 {
				pct = 100 * rs.WaitUS / busy
			}
			fmt.Fprintf(bw, "%-5d %14.3f %14.3f %14.3f %9.1f\n",
				rs.Rank, compute/1e3, rs.WaitUS/1e3, rs.CollVirtUS/1e3, pct)
		}
	}

	rec := a.Recovery
	if rec.Crashes+rec.Drops+rec.Delays+rec.Detections+rec.RecomputedRows > 0 {
		fmt.Fprintf(bw, "\nfaults: %d crashes, %d drops, %d delays; %d detections (%.3f ms latency)\n",
			rec.Crashes, rec.Drops, rec.Delays, rec.Detections, rec.DetectionUS/1e3)
		fmt.Fprintf(bw, "recovery: %d rows recomputed costing %.3f ms virtual; total attributed %.3f ms\n",
			rec.RecomputedRows, rec.RecomputeSecs*1e3, rec.Seconds()*1e3)
	}
	hasTrunc := false
	for _, ps := range a.Phases {
		hasTrunc = hasTrunc || ps.Truncated > 0
	}
	if hasTrunc {
		fmt.Fprintf(bw, "\n* phase includes spans truncated at export (virtual duration unknown)\n")
	}
	return bw.Flush()
}

// WriteJSON emits the full analysis as indented JSON.
func (a *Analysis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Summary flattens the analysis into named scalar stats — what `gbtrace
// diff` compares and the anomaly watchdog's baseline is cut from
// (watch.BaselineFromSummary). Durations are in milliseconds. Keys are stable across runs of the same workload.
func (a *Analysis) Summary() map[string]float64 {
	s := map[string]float64{
		"events":           float64(a.Events),
		"ranks":            float64(len(a.Ranks)),
		"makespan.wall_ms": a.WallMakespanUS / 1e3,
		"critical.wall_ms": a.WallCriticalUS / 1e3,
	}
	if a.HasVirt {
		s["makespan.virt_ms"] = a.VirtMakespanUS / 1e3
		s["critical.virt_ms"] = a.VirtCriticalUS / 1e3
	}
	for _, ps := range a.Phases {
		p := "phase." + ps.Name
		s[p+".wall_ms"] = ps.Wall.TotalUS / 1e3
		s[p+".wall_imbalance"] = ps.Wall.Imbalance
		if ps.HasVirt {
			s[p+".virt_ms"] = ps.Virt.TotalUS / 1e3
			s[p+".virt_max_ms"] = ps.Virt.MaxUS / 1e3
			s[p+".virt_imbalance"] = ps.Virt.Imbalance
		}
	}
	for _, cs := range a.Collectives {
		c := "collective." + cs.Name
		s[c+".count"] = float64(cs.Count)
		s[c+".wait_ms"] = cs.WaitUS / 1e3
		s[c+".xfer_ms"] = cs.XferUS / 1e3
	}
	if rec := a.Recovery; rec.Crashes+rec.RecomputedRows > 0 {
		s["recovery.rows"] = float64(rec.RecomputedRows)
		s["recovery.ms"] = rec.Seconds() * 1e3
		s["faults.crashes"] = float64(rec.Crashes)
		s["faults.detections"] = float64(rec.Detections)
	}
	return s
}

// SortedKeys returns the summary's keys in lexical order.
func SortedKeys(s map[string]float64) []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
