package core

import (
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/cluster"
)

// Property test: for ANY valid membership event log (deaths of live
// ranks, rejoins of dead ranks, in any order) and any unit costs — none,
// random, with runs of zero-cost units — ElasticSpans partitions [0, n)
// exactly after every prefix of the log: every unit owned by exactly one
// live rank, dead ranks own nothing. And a death only appends to a
// survivor's spans, so within a phase, whose log grows by deaths alone, a
// survivor's share only grows and the spans past the ones it has done are
// the dead ranks' lost work. This is the invariant that makes a
// collective's event-log consensus sufficient for correctness: ranks that
// agree on the log compute disjoint, exhaustive assignments independently.
func TestElasticSpansPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(2000)
		P := 1 + rng.Intn(12)
		var cost []int64
		if trial%2 == 1 {
			cost = make([]int64, n+1)
			for u := range n {
				c := rng.Int63n(1000)
				if rng.Intn(4) == 0 {
					c = 0
				}
				cost[u+1] = cost[u] + c
			}
		}
		dead := make([]bool, P)
		var events []cluster.MemberEvent
		prev := ElasticSpans(n, cost, P, nil)
		checkPartition(t, trial, n, cost, P, events, dead, prev)
		for e := rng.Intn(16); e > 0; e-- {
			r := rng.Intn(P)
			if dead[r] {
				events = append(events, cluster.MemberEvent{Rank: r, Join: true})
				dead[r] = false
			} else {
				// Never kill the last live rank: the protocol cannot
				// reach that state (the survivor observing it is alive).
				live := 0
				for _, d := range dead {
					if !d {
						live++
					}
				}
				if live <= 1 {
					continue
				}
				events = append(events, cluster.MemberEvent{Rank: r, Join: false})
				dead[r] = true
			}
			asgn := ElasticSpans(n, cost, P, events)
			checkPartition(t, trial, n, cost, P, events, dead, asgn)
			if ev := events[len(events)-1]; !ev.Join {
				for q, spans := range asgn {
					if !dead[q] && (len(spans) < len(prev[q]) || !slices.Equal(spans[:len(prev[q])], prev[q])) {
						t.Fatalf("trial %d (n=%d P=%d weighted=%v events=%v): rank %d spans %v after a death do not extend %v",
							trial, n, P, cost != nil, events, q, spans, prev[q])
					}
				}
			}
			prev = asgn
		}
	}
}

// checkPartition fails t unless asgn, ElasticSpans' answer to the log,
// gives every unit of [0, n) to exactly one live rank and nothing to a dead
// one.
func checkPartition(t *testing.T, trial, n int, cost []int64, P int, events []cluster.MemberEvent, dead []bool, asgn [][]Span) {
	t.Helper()
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for r, spans := range asgn {
		if dead[r] && len(spans) > 0 {
			t.Fatalf("trial %d (n=%d P=%d weighted=%v events=%v): dead rank %d owns %v",
				trial, n, P, cost != nil, events, r, spans)
		}
		for _, sp := range spans {
			if sp.Lo < 0 || sp.Hi > n || sp.Lo >= sp.Hi {
				t.Fatalf("trial %d (n=%d P=%d weighted=%v events=%v): rank %d invalid span %+v",
					trial, n, P, cost != nil, events, r, sp)
			}
			for i := sp.Lo; i < sp.Hi; i++ {
				if owner[i] != -1 {
					t.Fatalf("trial %d (n=%d P=%d weighted=%v events=%v): unit %d owned by both %d and %d",
						trial, n, P, cost != nil, events, i, owner[i], r)
				}
				owner[i] = r
			}
		}
	}
	for i, r := range owner {
		if r == -1 {
			t.Fatalf("trial %d (n=%d P=%d weighted=%v events=%v): unit %d unowned", trial, n, P, cost != nil, events, i)
		}
	}
}

// Determinism: two replays of the same log agree span for span — the
// consensus property the TCP transport's event log relies on.
func TestElasticSpansDeterministic(t *testing.T) {
	events := []cluster.MemberEvent{
		{Rank: 2, Join: false},
		{Rank: 1, Join: false},
		{Rank: 2, Join: true},
		{Rank: 3, Join: false},
		{Rank: 1, Join: true},
	}
	a := ElasticSpans(1234, nil, 4, events)
	b := ElasticSpans(1234, nil, 4, events)
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d span count differs", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d span %d differs: %+v vs %+v", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// deaths is the membership log of the given ranks dying in order.
func deaths(ranks ...int) []cluster.MemberEvent {
	events := make([]cluster.MemberEvent, len(ranks))
	for i, r := range ranks {
		events[i] = cluster.MemberEvent{Rank: r}
	}
	return events
}

// The logs of the modeled transport hold deaths alone, and within one
// phase the pipeline's claim relies on what they do to ElasticSpans: the
// dead own nothing, the survivors cover every row once — with more ranks
// than rows too — and a survivor's spans only ever grow, a further death
// appending to them, so the spans past the ones it has done are exactly
// the dead ranks' lost work.
func TestElasticSpansDeathOnly(t *testing.T) {
	check := func(n, P int, dead []int) {
		t.Helper()
		asgn := ElasticSpans(n, nil, P, deaths(dead...))
		covered := make([]int, n)
		isDead := make(map[int]bool)
		for _, d := range dead {
			isDead[d] = true
		}
		for r, spans := range asgn {
			if isDead[r] && len(spans) > 0 {
				t.Errorf("n=%d P=%d dead=%v: dead rank %d still owns %v", n, P, dead, r, spans)
			}
			for _, sp := range spans {
				if sp.Lo < 0 || sp.Hi > n || sp.Lo >= sp.Hi {
					t.Errorf("bad span %+v", sp)
				}
				for i := sp.Lo; i < sp.Hi; i++ {
					covered[i]++
				}
			}
		}
		if len(dead) < P {
			for i, cnt := range covered {
				if cnt != 1 {
					t.Fatalf("n=%d P=%d dead=%v: row %d covered %d times", n, P, dead, i, cnt)
				}
			}
		}
	}
	check(100, 4, nil)
	check(100, 4, []int{2})
	check(100, 4, []int{2, 0})
	check(100, 4, []int{3, 1, 0})
	check(7, 3, []int{1})
	check(5, 8, []int{0, 7, 3}) // more ranks than rows
	check(1, 2, []int{0})

	before := ElasticSpans(100, nil, 4, deaths(2))
	after := ElasticSpans(100, nil, 4, deaths(2, 0))
	for r := range before {
		if r == 0 || r == 2 {
			continue
		}
		if len(after[r]) < len(before[r]) || !slices.Equal(after[r][:len(before[r])], before[r]) {
			t.Errorf("rank %d: spans %v after a second death do not extend %v", r, after[r], before[r])
		}
	}
}

// The ledger's two molecules — 4 000 atoms from generator seed 2 (net_run's)
// and 20 000 from seed 1 — divide at equal estimated cost: for both phases
// and every P, the costliest rank's span is within 5 % of the mean. Cut at
// equal tile counts instead, the 4 000-atom E_pol phase reads 1.17 at P = 2
// and 1.30 at P = 8 (EXPERIMENTS.md "Spans cut at equal cost").
func TestElasticSpansBalanced(t *testing.T) {
	fixtures := []struct {
		atoms int
		seed  int64
	}{{4000, 2}, {20000, 1}}
	if testing.Short() || raceEnabled {
		fixtures = fixtures[:1]
	}
	for _, fx := range fixtures {
		sys, _, _ := testSystem(t, fx.atoms, fx.seed, mortonParams())
		cl := sys.Lists(nil)
		born, epol := cl.unitCosts(sys, phaseBorn), cl.unitCosts(sys, phaseEpol)
		for _, ph := range []struct {
			name string
			cost costs
		}{{"born", born}, {"epol", epol}} {
			n := len(ph.cost) - 1
			for _, P := range []int{2, 4, 8} {
				var worst int64
				for _, spans := range ElasticSpans(n, ph.cost, P, nil) {
					for _, sp := range spans {
						worst = max(worst, ph.cost[sp.Hi]-ph.cost[sp.Lo])
					}
				}
				mean := float64(ph.cost[n]) / float64(P)
				if r := float64(worst) / mean; r > 1.05 {
					t.Errorf("%d atoms, %s, P = %d: the costliest span is %.3f× the mean, want ≤ 1.05", fx.atoms, ph.name, P, r)
				} else {
					t.Logf("%d atoms, %s (%d tiles), P = %d: max/mean %.4f", fx.atoms, ph.name, n, P, r)
				}
			}
		}
	}
}
