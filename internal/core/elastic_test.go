package core

import (
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/cluster"
)

// Property test: for ANY valid membership event log (deaths of live
// ranks, rejoins of dead ranks, in any order), ElasticSpans partitions
// [0, n) exactly — every row owned by exactly one live rank, dead ranks
// own nothing. This is the invariant that makes a collective's event-log
// consensus sufficient for correctness: ranks that agree on the log
// compute disjoint, exhaustive assignments independently.
func TestElasticSpansPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(2000)
		P := 1 + rng.Intn(12)
		dead := make([]bool, P)
		var events []cluster.MemberEvent
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
		}

		asgn := ElasticSpans(n, P, events)
		owner := make([]int, n)
		for i := range owner {
			owner[i] = -1
		}
		for r, spans := range asgn {
			if dead[r] && len(spans) > 0 {
				t.Fatalf("trial %d (n=%d P=%d events=%v): dead rank %d owns %v",
					trial, n, P, events, r, spans)
			}
			for _, sp := range spans {
				if sp.Lo < 0 || sp.Hi > n || sp.Lo >= sp.Hi {
					t.Fatalf("trial %d (n=%d P=%d events=%v): rank %d invalid span %+v",
						trial, n, P, events, r, sp)
				}
				for i := sp.Lo; i < sp.Hi; i++ {
					if owner[i] != -1 {
						t.Fatalf("trial %d (n=%d P=%d events=%v): row %d owned by both %d and %d",
							trial, n, P, events, i, owner[i], r)
					}
					owner[i] = r
				}
			}
		}
		for i, r := range owner {
			if r == -1 {
				t.Fatalf("trial %d (n=%d P=%d events=%v): row %d unowned", trial, n, P, events, i)
			}
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
	a := ElasticSpans(1234, 4, events)
	b := ElasticSpans(1234, 4, events)
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
		asgn := ElasticSpans(n, P, deaths(dead...))
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

	before := ElasticSpans(100, 4, deaths(2))
	after := ElasticSpans(100, 4, deaths(2, 0))
	for r := range before {
		if r == 0 || r == 2 {
			continue
		}
		if len(after[r]) < len(before[r]) || !slices.Equal(after[r][:len(before[r])], before[r]) {
			t.Errorf("rank %d: spans %v after a second death do not extend %v", r, after[r], before[r])
		}
	}
}
