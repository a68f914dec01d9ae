package core

import "gbpolar/internal/cluster"

// This file is the ownership function of the rank body (pipeline.go):
// the row-span partition as a pure function of an ordered membership
// event log (deaths and rejoins), so the same protocol runs over the
// modeled in-process transport, whose log holds deaths only, and over
// the real TCP transport (internal/cluster/net), where a crashed worker
// process can be respawned and re-admitted mid-run.

// Span is a half-open [Lo, Hi) interval of work rows (interaction-list
// rows or atom slots).
type Span struct{ Lo, Hi int }

// Len returns Hi − Lo.
func (s Span) Len() int { return s.Hi - s.Lo }

// RedivideSpans is the death-only special case of ElasticSpans: each
// rank's owned row spans after the given ordered sequence of deaths.
func RedivideSpans(n, P int, deadOrder []int) [][]Span {
	events := make([]cluster.MemberEvent, len(deadOrder))
	for i, d := range deadOrder {
		events[i] = cluster.MemberEvent{Rank: d}
	}
	return ElasticSpans(n, P, events)
}

// ElasticSpans computes each rank's owned row spans after replaying the
// ordered membership event log. Rank r starts with segment(n, P, r); a
// death splits every span of the dead rank evenly among the ranks live
// at that point, spans only ever moving from dead ranks to live ones, so
// a survivor's assignment grows monotonically; a (re)join makes every other
// live rank cede the trailing 1/k of its rows (k = live count including
// the joiner) to the joiner. The result is a pure function of
// (n, P, events) and always partitions [0, n), so every rank that agreed
// on the log computes the identical assignment.
func ElasticSpans(n, P int, events []cluster.MemberEvent) [][]Span {
	asgn := make([][]Span, P)
	for r := 0; r < P; r++ {
		lo, hi := segment(n, P, r)
		if hi > lo {
			asgn[r] = []Span{{lo, hi}}
		}
	}
	dead := make([]bool, P)
	for _, ev := range events {
		r := ev.Rank
		if r < 0 || r >= P {
			continue
		}
		if !ev.Join {
			if dead[r] {
				continue
			}
			dead[r] = true
			var live []int
			for q := 0; q < P; q++ {
				if !dead[q] {
					live = append(live, q)
				}
			}
			if len(live) == 0 {
				asgn[r] = nil
				continue
			}
			for _, sp := range asgn[r] {
				for i, q := range live {
					l, h := segment(sp.Len(), len(live), i)
					if h > l {
						asgn[q] = append(asgn[q], Span{sp.Lo + l, sp.Lo + h})
					}
				}
			}
			asgn[r] = nil
		} else {
			if !dead[r] {
				continue
			}
			dead[r] = false
			k := 0
			for q := 0; q < P; q++ {
				if !dead[q] {
					k++
				}
			}
			for q := 0; q < P; q++ {
				if dead[q] || q == r {
					continue
				}
				total := 0
				for _, sp := range asgn[q] {
					total += sp.Len()
				}
				cede := total / k
				if cede == 0 {
					continue
				}
				var carved []Span
				asgn[q], carved = carveTail(asgn[q], cede)
				asgn[r] = append(asgn[r], carved...)
			}
		}
	}
	return asgn
}

// carveTail removes k rows from the tail of spans (last spans first) and
// returns the kept prefix and the carved spans in ascending row order.
func carveTail(spans []Span, k int) (kept, carved []Span) {
	for k > 0 && len(spans) > 0 {
		last := spans[len(spans)-1]
		if last.Len() <= k {
			carved = append(carved, last)
			k -= last.Len()
			spans = spans[:len(spans)-1]
		} else {
			carved = append(carved, Span{last.Hi - k, last.Hi})
			spans[len(spans)-1].Hi -= k
			k = 0
		}
	}
	for i, j := 0, len(carved)-1; i < j; i, j = i+1, j-1 {
		carved[i], carved[j] = carved[j], carved[i]
	}
	return spans, carved
}

// ElasticOut carries one worker rank's outputs from RunNetWorker.
type ElasticOut struct {
	// Epol is the reduced polarization energy (identical on every rank
	// that completed the protocol).
	Epol float64
	// Completed reports whether the rank ran the protocol to the end;
	// false for a joiner admitted after the final collective, which had
	// nothing left to compute.
	Completed bool
}
