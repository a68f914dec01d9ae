package core

import (
	"math/bits"
	"sort"

	"gbpolar/internal/cluster"
	"gbpolar/internal/octree"
)

// This file is the ownership function of the rank body (pipeline.go):
// the unit-span partition as a pure function of the units' costs and of an
// ordered membership event log (deaths and rejoins), so the same protocol
// runs over the modeled in-process transport, whose log holds deaths only,
// and over the real TCP transport (internal/cluster/net), where a crashed
// worker process can be respawned and re-admitted mid-run.

// Span is a half-open [Lo, Hi) interval of work units (compiled tiles,
// interaction-list rows or atom slots).
type Span struct{ Lo, Hi int }

// Len returns Hi − Lo.
func (s Span) Len() int { return s.Hi - s.Lo }

// ElasticSpans computes each rank's owned spans of a phase's n units after
// replaying the ordered membership event log. cost, when non-nil, holds the
// n+1 cumulative costs of the units — unit u costs cost[u+1] − cost[u] — and
// every division below is at equal cost; nil gives every unit cost 1 and
// the divisions equal counts (segment), which push's atom slots keep so the
// radii Allgatherv's counts follow from n alone.
//
// Rank r starts with the r-th of P equal-cost parts of [0, n); a death splits
// every span of the dead rank into equal-cost parts among the ranks live at
// that point, spans only ever moving from dead ranks to live ones, so a
// survivor's assignment grows monotonically; a (re)join makes every other
// live rank cede the trailing 1/k of its cost (k = live count including the
// joiner) to the joiner. The result is a pure function of (n, cost, P,
// events) and always partitions [0, n), so every rank that agreed on the log
// and reads the same costs computes the identical assignment.
func ElasticSpans(n int, cost []int64, P int, events []cluster.MemberEvent) [][]Span {
	c := costs(cost)
	asgn := make([][]Span, P)
	for r := 0; r < P; r++ {
		if sp := c.part(Span{0, n}, P, r); sp.Hi > sp.Lo {
			asgn[r] = []Span{sp}
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
					if part := c.part(sp, len(live), i); part.Hi > part.Lo {
						asgn[q] = append(asgn[q], part)
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
				var carved []Span
				asgn[q], carved = c.carveTail(asgn[q], k)
				asgn[r] = append(asgn[r], carved...)
			}
		}
	}
	return asgn
}

// costs is the cumulative cost of a phase's units: the units [lo, hi) cost
// at(hi) − at(lo). nil is every unit costing 1.
type costs []int64

func (c costs) at(i int) int64 {
	if c == nil {
		return int64(i)
	}
	return c[i]
}

// part returns the i-th of k equal-cost parts of the units of s. With unit
// costs it is segment's part; otherwise each cut sits at the unit boundary
// nearest the equal-cost target, the lower one on a tie, so a part is off
// its share by at most one unit's cost. The parts tile s in order, the
// zero-cost units at its end included.
func (c costs) part(s Span, k, i int) Span {
	if c == nil {
		lo, hi := segment(s.Len(), k, i)
		return Span{s.Lo + lo, s.Lo + hi}
	}
	return Span{c.cut(s, k, i), c.cut(s, k, i+1)}
}

// cut returns where the first q of k equal-cost parts of s end.
func (c costs) cut(s Span, k, q int) int {
	if q == 0 || q == k {
		return s.Lo + s.Len()*q/k
	}
	// Compared scaled by k, exactly: boundary i lies at k·(at(i) − at(Lo)),
	// the target at q·(at(Hi) − at(Lo)).
	base, target := c[s.Lo], int64(q)*(c[s.Hi]-c[s.Lo])
	off := func(i int) int64 { return int64(k) * (c[i] - base) }
	i := s.Lo + sort.Search(s.Len(), func(j int) bool { return off(s.Lo+j) >= target })
	if i > s.Lo && target-off(i-1) <= off(i)-target {
		i--
	}
	return i
}

// carveTail removes from the tail of spans (last spans first) the units
// past the first boundary at which the kept units reach (k−1)/k of the
// spans' cost — with unit costs, the trailing ⌊units/k⌋ units — and returns
// the kept prefix and the carved spans in their order.
func (c costs) carveTail(spans []Span, k int) (kept, carved []Span) {
	var total int64
	for _, sp := range spans {
		total += c.at(sp.Hi) - c.at(sp.Lo)
	}
	keep := total * int64(k-1) // compared scaled by k
	var acc int64
	for j, sp := range spans {
		if next := acc + c.at(sp.Hi) - c.at(sp.Lo); int64(k)*next < keep {
			acc = next
			continue
		}
		base := c.at(sp.Lo) - acc
		i := sp.Lo + sort.Search(sp.Len(), func(x int) bool { return int64(k)*(c.at(sp.Lo+x)-base) >= keep })
		if i < sp.Hi {
			carved = append(carved, Span{i, sp.Hi})
		}
		carved = append(carved, spans[j+1:]...)
		if kept = spans[:j]; i > sp.Lo {
			kept = append(kept, Span{sp.Lo, i})
		}
		return kept, carved
	}
	return spans, nil
}

// The estimated cost of a compiled tile: what its sweep evaluates, read from
// the lists and the trees alone, so every rank that holds them prices the
// tiles alike. A near entry costs its (row point, entry atom) terms — a
// mutual pair once, as the sweep takes it — and a far entry one term for
// each row that takes it.

// tileCosts returns the cumulative estimated cost of il's tiles (rows from
// rowTree, entries from atoms): tile t costs cost[t+1] − cost[t]. The lists
// were validated, or compiled.
func tileCosts(il *InteractionLists, rowTree, atoms *octree.Tree) []int64 {
	cost, _ := scanTiles("", il, rowTree, atoms, false)
	return cost
}

// laneSums is the row points of a tile's lanes summed over any lane mask:
// the low four lanes' sum and the high four's, one table each.
type laneSums struct{ lo, hi [16]int64 }

func newLaneSums(pts *[tileLanes]int64) (s laneSums) {
	for m := 1; m < 16; m++ {
		l := bits.TrailingZeros8(uint8(m))
		s.lo[m] = s.lo[m&(m-1)] + pts[l]
		s.hi[m] = s.hi[m&(m-1)] + pts[4+l]
	}
	return s
}

// of returns the points of the lanes set in m.
func (s *laneSums) of(m uint8) int64 { return s.lo[m&15] + s.hi[m>>4] }

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
