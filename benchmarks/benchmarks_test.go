package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"gbpolar/internal/surface"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// The file the driver reads and the declarations the harness emits from
// must be the same list.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: file %+v, harness %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs: file has %d, harness %d", len(m.PerLayer), len(perLayer))
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in file, %d in harness", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, harness {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload, small, untraced and traced: each declared metric is
// emitted exactly once and nothing undeclared is, every output check
// passes, and the end-to-end metrics are never 0.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	runtime.GOMAXPROCS(threads)
	cfg := config{seed: 7, tmpdir: t.TempDir(),
		large: protein{300, 1}, small: protein{300, 1}, refs: map[protein]float64{}}
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.traced, cfg.maxOps = traced, 2
			if traced {
				cfg.maxOps = 4 // two traced ops, two controls
			}
			r, err := runWorkload(spec, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted != cfg.maxOps {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", spec.name, traced, r.Failed, r.Attempted, r.Failures)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(r.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", spec.name, traced, len(r.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", spec.name, traced, d.Name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", spec.name, d.Name, v)
				}
			}
		}
	}
}

// The cached references must be what core's naive sums give today; the
// 20 000-atom one takes 8 s and is skipped under -short.
func TestKnownReferences(t *testing.T) {
	for _, p := range []protein{smallProtein, largeProtein} {
		if p == largeProtein && testing.Short() {
			continue
		}
		mol := p.generate()
		surf, err := surface.ForMolecule(mol, surface.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(mol, surf)
		want, ok := knownReference[fp]
		got := naiveEnergy(mol, surf)
		if !ok || relDiff(got, want) > 1e-13 {
			t.Errorf("%+v: fingerprint %#x naive %.17g; table has %.17g (present %v)", p, fp, got, want, ok)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS float64, failed int) string {
		w := ledgerWorkload{Name: "w", Attempted: 10, Failed: failed, Traced: &run{Attempted: 4},
			EndToEnd: map[string]ledgerMetric{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = ledgerMetric{metricDecl: d, Value: 1}
		}
		w.EndToEnd["op_ms_p25"] = ledgerMetric{metricDecl: endToEnd[0], Value: opMS}
		data, err := json.Marshal(ledger{Workloads: []ledgerWorkload{w}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 0)
	var out strings.Builder
	if err := compareLedgers(&out, base, write("same.json", 105, 0)); err != nil {
		t.Errorf("5%% slower within a 25%% bound: %v\n%s", err, out.String())
	}
	if err := compareLedgers(&out, base, write("slow.json", 130, 0)); err == nil {
		t.Error("30% slower passed a 25% bound")
	}
	if err := compareLedgers(&out, base, write("fail.json", 100, 1)); err == nil {
		t.Error("a newly failing op passed")
	}
	if v, _ := verdict(ledgerMetric{metricDecl: endToEnd[0], Value: 100, Spread: 0.3},
		ledgerMetric{Value: 130}); v != "unresolved" {
		t.Errorf("spread above the bound gave %q, want unresolved", v)
	}
}
