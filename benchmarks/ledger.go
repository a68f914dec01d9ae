package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"

	"gbpolar/internal/core"
)

// ledger is one full set: every workload, untraced and traced, with the
// machine it ran on. Files under results/ are ledgers.
type ledger struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Machine   machine          `json:"machine"`
	Workloads []ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Name      string                  `json:"name"`
	Why       string                  `json:"why"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	EndToEnd  map[string]ledgerMetric `json:"end_to_end"`
	OpMS      []float64               `json:"op_ms"`
	SetupS    []float64               `json:"setup_s"`
	// Traced is the separate traced run the per-layer metrics come from.
	Traced   *run                   `json:"traced"`
	PerLayer map[string]metricValue `json:"per_layer"`
}

type ledgerMetric struct {
	metricDecl
	Value float64 `json:"value"`
	// Spread is the interquartile range of the samples behind the value
	// as a share of their median (0 for a value that repeats exactly).
	Spread float64 `json:"spread"`
}

// machine is what a reader needs to judge whether two ledgers compare.
type machine struct {
	NProc           int     `json:"nproc"`
	CPU             string  `json:"cpu"`
	KernelISA       string  `json:"kernel_isa"`
	Go              string  `json:"go"`
	Git             string  `json:"git"`
	CalibratedOpsPS float64 `json:"calibrated_ops_per_s"`
	L3              string  `json:"l3"`
	ListBytes       float64 `json:"list_bytes"`
	Threads         int     `json:"threads"`
	Large           protein `json:"large_protein"`
	Small           protein `json:"small_protein"`
}

func describeMachine(cfg config) machine {
	m := machine{
		NProc: runtime.NumCPU(), KernelISA: core.KernelISA(), Go: runtime.Version(),
		CalibratedOpsPS: core.CalibratedOpsPerSecond(), Threads: threads,
		Large: cfg.large, Small: cfg.small,
		CPU: "unknown", Git: "unknown", L3: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		m.L3 = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		m.Git = strings.TrimSpace(string(b))
	}
	return m
}

// writeLedger runs the named workload (or all) untraced then traced and
// writes the set to path.
func writeLedger(path, name string, seed int64, seconds float64, tmpdir string) error {
	specs := workloads
	if name != "all" {
		spec, err := findWorkload(name)
		if err != nil {
			return err
		}
		specs = []workloadSpec{spec}
	}
	cfg := fullSize(seed, seconds, false, tmpdir)
	l := ledger{Seed: seed, Seconds: seconds, Machine: describeMachine(cfg)}
	for _, spec := range specs {
		fmt.Fprintf(os.Stderr, "%s: untraced, traced\n", spec.name)
		r, err := runWorkload(spec, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		tcfg := cfg
		tcfg.traced = true
		t, err := runWorkload(spec, tcfg)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", spec.name, err)
		}
		l.Workloads = append(l.Workloads, newLedgerWorkload(spec, r, t))
		if b := t.Metrics["core.lists.bytes"]; b > l.Machine.ListBytes {
			l.Machine.ListBytes = b
		}
	}
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return l.print(os.Stdout)
}

func newLedgerWorkload(spec workloadSpec, r, t *run) ledgerWorkload {
	w := ledgerWorkload{
		Name: spec.name, Why: spec.why,
		Attempted: r.Attempted, Failed: r.Failed, Failures: r.Failures,
		OpMS: r.OpMS, SetupS: r.SetupS, Traced: t,
		EndToEnd: map[string]ledgerMetric{}, PerLayer: map[string]metricValue{},
	}
	spread := map[string]float64{
		"op_ms_p25": relIQR(r.OpMS), "setup_s": relIQR(r.SetupS),
	}
	for _, d := range endToEnd {
		w.EndToEnd[d.Name] = ledgerMetric{d, r.Metrics[d.Name], spread[d.Name]}
	}
	for _, d := range perLayer {
		w.PerLayer[d.Name] = metricValue{t.Metrics[d.Name], d.Unit}
	}
	return w
}

// print writes every metric by name with its unit.
func (l *ledger) print(out io.Writer) error {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range l.Workloads {
		fmt.Fprintf(tw, "%s\tops %d\tfailed %d\t\n", w.Name, w.Attempted, w.Failed+w.Traced.Failed)
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, w.EndToEnd[d.Name].Value, d.Unit)
		}
		for _, d := range perLayer {
			if v := w.PerLayer[d.Name].Value; v != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, v, d.Unit)
			}
		}
	}
	return tw.Flush()
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// compareLedgers holds b (the change) against a (the parent): one row per
// workload and end-to-end metric, and an error if any row is worse or a
// workload fails a larger share of its ops.
func compareLedgers(out io.Writer, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	byName := map[string]ledgerWorkload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\tbound\tverdict\t")
	worse := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v, by := verdict(ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\t\n",
				wa.Name, d.Name, ma.Value, mb.Value, 100*by, 100*ma.Bound, v)
		}
		fa := float64(wa.Failed+wa.Traced.Failed) / float64(wa.Attempted+wa.Traced.Attempted)
		fb := float64(wb.Failed+wb.Traced.Failed) / float64(wb.Attempted+wb.Traced.Attempted)
		v := "ok"
		if fb > fa {
			v = "worse"
			worse++
		}
		fmt.Fprintf(tw, "%s\tfailed_ops/ops\t%.4g\t%.4g\t\t\t%s\t\n", wa.Name, fa, fb, v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d row(s) worse than the bound allows", worse)
	}
	return nil
}

// verdict applies the parent's bound to one metric: how much worse the
// change reads as a share of the parent's value, and whether that is ok,
// worse, or — when either side's own spread exceeds the bound, so that
// one set cannot tell — unresolved.
func verdict(a, b ledgerMetric) (string, float64) {
	by := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		by = -by
	}
	switch {
	case by <= a.Bound:
		return "ok", by
	case a.Spread > a.Bound || b.Spread > a.Bound:
		return "unresolved", by
	}
	return "worse", by
}
