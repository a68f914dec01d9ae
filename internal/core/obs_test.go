package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// TestSharedRunTraceAndMetrics checks the shared runner's timeline: one
// build/born/push/epol span each, phase spans on the virtual clock with
// the same decomposition ModelSeconds reports, and the static
// interaction-list metrics recorded once.
func TestSharedRunTraceAndMetrics(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, Params{})
	o := obs.New()
	res, err := RunShared(sys, SharedOptions{Threads: 2, Obs: o})
	if err != nil {
		t.Fatal(err)
	}

	phases := map[string]obs.Event{}
	for _, ev := range o.Trace.Events() {
		if ev.Cat == "phase" && ev.Ph == "X" {
			if _, dup := phases[ev.Name]; dup {
				t.Errorf("phase %q recorded twice", ev.Name)
			}
			phases[ev.Name] = ev
		}
	}
	for _, want := range []string{"build", "born", "push", "epol"} {
		if _, ok := phases[want]; !ok {
			t.Fatalf("no %q phase span; have %v", want, phases)
		}
	}
	if phases["build"].HasVirt {
		t.Error("build span should be wall-only (preprocessing is untimed)")
	}
	// born ∪ push ∪ epol tile [0, ModelSeconds] on the virtual axis.
	virtSum := phases["born"].VirtDurUS + phases["push"].VirtDurUS + phases["epol"].VirtDurUS
	if e := relErr(virtSum/1e6, res.ModelSeconds); e > 1e-9 {
		t.Errorf("phase virtual durations sum to %g s, ModelSeconds %g", virtSum/1e6, res.ModelSeconds)
	}
	if phases["born"].VirtUS != 0 || !phases["epol"].HasVirt {
		t.Error("virtual phase clocks misattached")
	}

	rows := o.Metrics.Counter("ilist.born.rows").Value()
	if rows <= 0 {
		t.Fatal("no ilist.born.rows recorded")
	}
	if got := o.Metrics.Counter("kernel.born.batches").Value(); got != rows {
		t.Errorf("kernel.born.batches = %d, want %d (one batch per compiled row)", got, rows)
	}
	if o.Metrics.Counter("ilist.epol.near_pairs").Value() <= 0 {
		t.Error("no ilist.epol.near_pairs recorded")
	}
}

// The far-entry counters at every order of the list tables (orderParams):
// far_entries is each phase's (row, node) terms; what a phase stores once a
// tile it counts by where it is stored — <run>_shared, each tile's shared
// run once, and <run>_own, every row's own run, for every run of both
// phases, and no Cede run, which no list stores — and no split by far-field
// order is recorded, order 0 being the only one.
func TestFarEntriesMetricsSplitByOrder(t *testing.T) {
	for order := 0; order < numOrders; order++ {
		sys, _, _ := testSystem(t, 400, 7, orderTestParams(order, 0.5))
		o := obs.New()
		if _, err := RunShared(sys, SharedOptions{Threads: 2, Obs: o}); err != nil {
			t.Fatal(err)
		}
		counters := o.Metrics.Snapshot().Counters
		cl := sys.Lists(nil)
		for _, p := range []struct {
			phase string
			il    *InteractionLists
		}{{"born", cl.Born}, {"epol", cl.Epol}} {
			prefix := "ilist." + p.phase + ".far_entries"
			if got := counters[prefix]; got <= 0 || got != int64(p.il.NumFar()) {
				t.Errorf("order %d: %s = %d, the lists hold %d far terms", order, prefix, got, p.il.NumFar())
			}
			for name := range counters {
				if strings.HasPrefix(name, prefix+".") {
					t.Errorf("order %d: %s recorded: far entries split by far-field order", order, name)
				}
			}
		}
		for _, p := range []struct {
			phase string
			il    *InteractionLists
		}{{"born", cl.Born}, {"epol", cl.Epol}} {
			own, tiles, rows := p.il.ownCSR(), p.il.tileCSR(), ownRows(p.il, sys.Atoms).rowCSR()
			for r, name := range runNames {
				prefix := "ilist." + p.phase + "." + name
				shared, stored, lanes := counters[prefix+"_shared"], counters[prefix+"_own"], counters[prefix+"_own_lanes"]
				if shared != int64(len(*tiles[r].ents)) || stored != int64(len(*own[r].ents)) {
					t.Errorf("order %d: %s_shared %d, %s_own %d; the lists store %d shared and %d own",
						order, prefix, shared, prefix, stored, len(*tiles[r].ents), len(*own[r].ents))
				}
				// The own runs merged back into their rows.
				if lanes != int64(len(*rows[r].ents)) || lanes < stored {
					t.Errorf("order %d: %s_own_lanes %d; the rows' own runs hold %d entries, the tiles store %d",
						order, prefix, lanes, len(*rows[r].ents), stored)
				}
			}
		}
		for name := range counters {
			if strings.Contains(name, "cede") {
				t.Errorf("order %d: %s recorded: the lists store no Cede run", order, name)
			}
		}
		if counters["ilist.born.far_shared"] <= 0 || counters["ilist.epol.far_shared"] <= 0 || counters["ilist.epol.sym_shared"] <= 0 {
			t.Errorf("order %d: a phase shares no far entries, or the E_pol tiles no Sym entries", order)
		}
	}
}

// TestResilientTraceTimeline is the issue's acceptance run: a resilient
// 4-rank run with an injected crash must produce a timeline holding the
// per-rank phase spans, per-collective spans with byte counts, and the
// fault-detection + recovery events — exportable as both JSONL and a
// chrome://tracing file.
func TestResilientTraceTimeline(t *testing.T) {
	sys, _, _ := testSystem(t, 200, 7, Params{})
	o := obs.New()
	cfg := resilientCfg(&cluster.FaultPlan{Faults: []cluster.Fault{
		{Kind: cluster.CrashAtCollective, Rank: 1, Nth: 2},
	}})
	cfg.Obs = o
	res := runResilient(t, sys, cfg)
	if res.Report.Faults == nil || res.Report.Faults.Crashes != 1 {
		t.Fatalf("expected exactly one crash, report: %+v", res.Report.Faults)
	}

	events := o.Trace.Events()
	phasesByRank := map[int]map[string]bool{}
	instants := map[string]int{}
	collectives := 0
	var collectiveBytes float64
	for _, ev := range events {
		switch {
		case ev.Cat == "phase" && ev.Ph == "X":
			if phasesByRank[ev.Rank] == nil {
				phasesByRank[ev.Rank] = map[string]bool{}
			}
			phasesByRank[ev.Rank][ev.Name] = true
		case ev.Cat == "collective" && ev.Ph == "X":
			collectives++
			collectiveBytes += ev.Args["bytes"]
			if !ev.HasVirt {
				t.Errorf("collective span %q without virtual clock", ev.Name)
			}
		case ev.Ph == "i":
			instants[ev.Name]++
		}
	}
	for r := 0; r < cfg.Procs; r++ {
		if res.Report.PerRank[r].Died {
			continue
		}
		for _, want := range []string{"build", "born", "push", "epol"} {
			if !phasesByRank[r][want] {
				t.Errorf("surviving rank %d missing %q phase span; has %v", r, want, phasesByRank[r])
			}
		}
	}
	if collectives < cfg.Procs {
		t.Errorf("only %d collective spans for %d ranks", collectives, cfg.Procs)
	}
	if collectiveBytes <= 0 {
		t.Error("collective spans carry no byte counts")
	}
	for _, want := range []string{"rank.crash", "death.detect", "rows.recomputed"} {
		if instants[want] == 0 {
			t.Errorf("no %q instant in timeline; have %v", want, instants)
		}
	}

	// Events() is rank-major and time-ordered within a rank.
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		if b.Rank < a.Rank {
			t.Fatal("events not rank-major")
		}
	}

	// Counters agree with the authoritative fault report.
	if got := o.Metrics.Counter("cluster.fault.crashes").Value(); got != 1 {
		t.Errorf("cluster.fault.crashes = %d, want 1", got)
	}
	if o.Metrics.Counter("cluster.fault.detections").Value() <= 0 {
		t.Error("no death detections counted")
	}
	if got := o.Metrics.Counter("cluster.recovered_rows").Value(); got != int64(res.Report.Faults.RecomputedRows) {
		t.Errorf("cluster.recovered_rows = %d, report says %d", got, res.Report.Faults.RecomputedRows)
	}
	if o.Metrics.Counter("cluster.collectives").Value() <= 0 {
		t.Error("no collectives counted")
	}

	// Both exports must round-trip: one JSON object per JSONL line, and a
	// well-formed Trace Event Format envelope.
	var buf bytes.Buffer
	if err := o.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != o.Trace.NumEvents() {
		t.Fatalf("JSONL has %d lines, trace %d events", len(lines), o.Trace.NumEvents())
	}
	for _, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("bad JSONL line %s: %v", ln, err)
		}
	}
	buf.Reset()
	if err := o.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(chrome.TraceEvents) < o.Trace.NumEvents() {
		t.Errorf("chrome trace has %d events, want >= %d", len(chrome.TraceEvents), o.Trace.NumEvents())
	}
}

// TestKernelHotLoopZeroAllocs pins the hot loops: the SoA batch kernels
// must not allocate, instrumented build or not — observability derives
// its pair counts from the compiled lists, never from inside these
// loops.
func TestKernelHotLoopZeroAllocs(t *testing.T) {
	sys, _, _ := testSystem(t, 300, 9, Params{})
	pool := sched.NewPool(1)
	defer pool.Close()
	lists := sys.Lists(pool)

	acc := newBornAccum(sys)
	// The R6 rows take the Born near row kernel where the host has one, on
	// either tier.
	tiles := lists.Born.tiles()
	if len(lists.Born.TileFar) == 0 || len(lists.Born.Rows)%tileLanes == 0 {
		t.Fatal("the fixture has no shared far entries or no short tile: the tile sweep's paths go untested")
	}
	saved := sys.Params
	defer func() { sys.Params = saved }()
	for _, tier := range []Precision{PrecisionExact, PrecisionLanes} {
		sys.Params.Precision = tier
		tile := 0
		if a := testing.AllocsPerRun(2*tiles, func() {
			bornTile(sys, lists.Born, tile%tiles, acc)
			tile++
		}); a != 0 {
			t.Errorf("%v: bornTile allocates %.1f objects per call, want 0", tier, a)
		}
	}
	sys.Params = saved
	acc = newBornAccum(sys)

	for tile := range tiles {
		bornTile(sys, lists.Born, tile, acc)
	}
	slotRadii := make([]float64, sys.Mol.NumAtoms())
	PushIntegralsToAtoms(sys, acc, 0, len(slotRadii), slotRadii)
	// The gather scratch is sized once per evaluation from the lists; a
	// sweep over every tile — its shared runs against all of its rows, then
	// each row's own — on every tier then allocates nothing.
	if ep := lists.Epol; len(ep.TileNear)+len(ep.TileSym)+len(ep.TileFar) == 0 {
		t.Fatal("the fixture's E_pol tiles share no entries: the tile sweep's shared path goes untested")
	}
	for _, tier := range []Precision{PrecisionExact, PrecisionLanes} {
		sys.Params.Precision = tier
		ctx := NewEpolContext(sys, slotRadii)
		scratch := listScratch(ctx, lists.Epol, 1)
		var eacc epolAccum
		tiles, tile := lists.Epol.tiles(), 0
		if a := testing.AllocsPerRun(2*tiles, func() {
			epolTile(ctx, lists.Epol, tile%tiles, &scratch[0], &eacc)
			tile++
		}); a != 0 {
			t.Errorf("%v: epolTile allocates %.1f objects per call, want 0", tier, a)
		}
	}
}

// TestDisabledObsOverhead is the overhead guard: attaching the
// observability layer to the 5k-atom shared energy path, and to the list
// repair (whose spans open per call, never per row), must cost under 2% —
// and with Obs=nil the instrumented code pays one pointer test per phase
// boundary, so the nil path can only be cheaper still. Interleaved
// min-of-N absorbs scheduler and thermal noise; a small absolute floor
// keeps sub-millisecond jitter from failing the ratio on fast machines.
func TestDisabledObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sys, _, _ := testSystem(t, 5000, 11, Params{})
	run := func(o *obs.Obs) float64 {
		res, err := RunShared(sys, SharedOptions{Threads: 4, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return res.WallSeconds
	}
	run(nil) // warm lists, pools, caches
	guardObsOverhead(t, "shared run", func() (off, on float64) { return run(nil), run(obs.New()) })

	// Two copies of one system walk the same trajectory, one observed.
	pool := sched.NewPool(4)
	defer pool.Close()
	plain, mol, _ := testSystem(t, 5000, 11, mortonParams())
	traced, _, _ := testSystem(t, 5000, 11, mortonParams())
	plain.Lists(pool)
	traced.Lists(pool)
	rng := rand.New(rand.NewSource(12))
	pos := mol.Positions()
	repair := func(s *System, o *obs.Obs) float64 {
		start := time.Now()
		if stats, err := s.UpdateAtomsRepair(pos, pool, o); err != nil || !stats.Repaired {
			t.Fatalf("repair: %+v %v", stats, err)
		}
		return time.Since(start).Seconds()
	}
	guardObsOverhead(t, "list repair", func() (off, on float64) {
		pos = localJiggle(rng, pos, 0.05)
		return repair(plain, nil), repair(traced, obs.New())
	})
}

// guardObsOverhead times interleaved (unobserved, observed) pairs and
// fails unless, in one of three attempts, the fastest observed run is
// within 2% — or 10 ms — of the fastest unobserved one.
func guardObsOverhead(t *testing.T, what string, pair func() (off, on float64)) {
	t.Helper()
	const (
		reps     = 3
		attempts = 3
		bound    = 0.02
		floorSec = 0.010 // absolute noise floor
	)
	var off, on float64
	for attempt := 0; attempt < attempts; attempt++ {
		off, on = time.Hour.Seconds(), time.Hour.Seconds()
		for rep := 0; rep < reps; rep++ {
			a, b := pair()
			off, on = min(off, a), min(on, b)
		}
		if on-off < floorSec || on/off-1 < bound {
			return
		}
	}
	t.Errorf("%s: observability overhead %.2f%% (off %.4fs, on %.4fs), want < %.0f%%",
		what, 100*(on/off-1), off, on, 100*bound)
}

// TestRepairSpans: an observed repair decomposes into its sub-phases — the
// walk that finds what moved once, then retest / classify / assemble per
// phase — with a span count that does not depend on the number of rows,
// and says how much it did: the hot nodes, the rows re-tested, changed and
// re-split, and the descents that classified them — every changed row in
// one of them, a tile of one to eight lanes each, with the nodes they
// visited.
func TestRepairSpans(t *testing.T) {
	for _, atoms := range []int{300, 1200} {
		sys, mol, _ := testSystem(t, atoms, 13, mortonParams())
		sys.Lists(nil)
		rng := rand.New(rand.NewSource(14))
		pos := mol.Positions()
		want := map[string]int{"ilist.repair.delta": 1, "ilist.repair.retest": 2,
			"ilist.repair.classify": 2, "ilist.repair.assemble": 2}
		for step := 0; step < 2; step++ {
			o := obs.New()
			pos = localJiggle(rng, pos, 0.05)
			stats, err := sys.UpdateAtomsRepair(pos, nil, o)
			if err != nil || !stats.Repaired {
				t.Fatalf("%d atoms, step %d: %+v %v", atoms, step, stats, err)
			}
			got := map[string]int{}
			for _, ev := range o.Trace.Events() {
				if ev.Cat == "ilist" && ev.Ph == "X" {
					got[ev.Name]++
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d atoms, step %d: repair spans %v, want %v", atoms, step, got, want)
			}
			count := func(name string) int { return int(o.Counter(name).Value()) }
			hot, retested, resplit := count("ilist.repair.hot_nodes"), count("ilist.repair.rows_retested"), count("ilist.repair.rows_resplit")
			if hot == 0 || hot > len(sys.Atoms.Nodes) || retested == 0 || retested > stats.RowsTotal ||
				resplit > stats.RowsTotal-stats.RowsRepaired || count("ilist.rows.repaired") != stats.RowsRepaired {
				t.Errorf("%d atoms, step %d: %d hot nodes of %d, %d rows re-tested and %d re-split of %+v",
					atoms, step, hot, len(sys.Atoms.Nodes), retested, resplit, stats)
			}
			tiles, lanes, visits := count("ilist.repair.tiles_classified"), count("ilist.repair.lanes_classified"), count("ilist.repair.node_visits")
			if lanes < stats.RowsRepaired || lanes > tileLanes*tiles || tiles > lanes || visits < tiles {
				t.Errorf("%d atoms, step %d: %d tiles, %d lanes and %d node visits classified for %d rows changed",
					atoms, step, tiles, lanes, visits, stats.RowsRepaired)
			}
			if count("ilist.repair.fallbacks") != 0 {
				t.Errorf("%d atoms, step %d: a repair metered a fallback", atoms, step)
			}
		}
	}
}

// TestCompileSpans: an observed compile decomposes into classify and
// assemble per phase, and says what classifying cost — tiles, the nodes
// their descents visited, near leaves tested against a tile's ancestors —
// in counters it publishes once, after the descents, on the timeline of the
// rank that compiled; a second call compiles nothing and reports nothing.
func TestCompileSpans(t *testing.T) {
	sys, _, _ := testSystem(t, 1200, 13, mortonParams())
	o := obs.New()
	cl := sys.ListsObserved(nil, o, 3)
	if sys.ListsObserved(nil, o, 3) != cl {
		t.Fatal("a second call compiled again")
	}
	got := map[string]int{}
	for _, ev := range o.Trace.Events() {
		if ev.Cat == "ilist" && ev.Ph == "X" {
			got[ev.Name]++
			if ev.Rank != 3 {
				t.Errorf("span %s on rank %d's timeline, compiled by rank 3", ev.Name, ev.Rank)
			}
		}
	}
	if want := map[string]int{"ilist.compile.classify": 2, "ilist.compile.assemble": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("compile spans %v, want %v", got, want)
	}
	count := func(name string) int { return int(o.Counter(name).Value()) }
	rows := len(cl.Born.Rows) + len(cl.Epol.Rows)
	tiles, visits, chains := count("ilist.compile.tiles"), count("ilist.compile.node_visits"), count("ilist.compile.chain_tests")
	// A tile holds at most eight rows and at least one; every E_pol near
	// (row, leaf) term — a tile's shared entry once for each of its rows —
	// was one lane of a chain test, and a test serves at most eight.
	nearEpol := cl.Epol.NumNear() + 2*cl.Epol.NumSym()
	if tiles < rows/tileLanes || tiles > rows+rows/8 || visits < tiles || chains < nearEpol/tileLanes || chains > nearEpol+nearEpol/8 {
		t.Errorf("%d tiles, %d node visits, %d chain tests for %d rows and %d E_pol near entries", tiles, visits, chains, rows, nearEpol)
	}
}

// TestMemoryGauges: a run publishes what the system holds by structure,
// and a repair leaves lists of the same kind: 4.5 bytes an entry before it
// and after.
func TestMemoryGauges(t *testing.T) {
	sys, mol, _ := testSystem(t, 600, 15, mortonParams())
	gauges := func() map[string]float64 {
		o := obs.New()
		if _, err := RunShared(sys, SharedOptions{Threads: 2, Obs: o}); err != nil {
			t.Fatal(err)
		}
		return o.Metrics.Snapshot().Gauges
	}
	check := func(g map[string]float64) {
		t.Helper()
		m, cl := sys.Memory(), sys.Lists(nil)
		for name, want := range map[string]int64{
			"mem.octree_bytes":           m.Octrees,
			"mem.soa_bytes":              m.SoA,
			"mem.lists.index_bytes":      m.ListIndex,
			"mem.lists.born.index_bytes": cl.Born.MemoryBytes(),
			"mem.lists.epol.index_bytes": cl.Epol.MemoryBytes(),
		} {
			if got, ok := g[name]; !ok || int64(got) != want {
				t.Errorf("gauge %s = %v (present: %v), the system holds %d", name, got, ok, want)
			}
		}
		// Each phase's index by its parts: entries, masks and offsets.
		for _, phase := range []string{"born", "epol"} {
			prefix, sum := "mem.lists."+phase+".", 0.0
			for _, part := range []string{"entries", "masks", "offsets"} {
				v, ok := g[prefix+part+"_bytes"]
				if !ok || v <= 0 {
					t.Errorf("gauge %s%s_bytes = %v (present: %v)", prefix, part, v, ok)
				}
				sum += v
			}
			if sum != g[prefix+"index_bytes"] {
				t.Errorf("%s: entries, masks and offsets sum to %v bytes, the index holds %v", phase, sum, g[prefix+"index_bytes"])
			}
		}
		if m.ListIndex != cl.MemoryBytes() || m.Octrees == 0 || m.SoA == 0 || m.ListIndex == 0 {
			t.Errorf("memory by structure %+v, lists report %d", m, cl.MemoryBytes())
		}
		entries := cl.Born.NumFar() + cl.Born.NumNear() + cl.Epol.NumFar() + cl.Epol.NumNear() + 2*cl.Epol.NumSym()
		if perEntry := float64(m.ListIndex) / float64(entries); perEntry > 5 {
			t.Errorf("the lists hold %.1f bytes a (row, entry) term, want at most 5", perEntry)
		}
		for name := range g {
			if strings.Contains(name, "certificate") {
				t.Errorf("gauge %s: no list carries a certificate", name)
			}
		}
	}
	check(gauges())
	pos := localJiggle(rand.New(rand.NewSource(16)), mol.Positions(), 0.05)
	if stats, err := sys.UpdateAtomsRepair(pos, nil, nil); err != nil || !stats.Repaired {
		t.Fatalf("%+v %v", stats, err)
	}
	check(gauges())
}
