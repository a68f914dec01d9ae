package core

import (
	"fmt"

	"gbpolar/internal/octree"
)

// This file addresses the paper's second Section VI future-work item:
// "Distributing data as well as computation is also an interesting
// approach to explore." Rather than rewrite the runners around
// partitioned octrees, it MEASURES what data distribution would cost and
// save: for the paper's node–node work division, each rank's traversals
// are replayed to record exactly which remote data they touch — the
// rank's Local Essential Tree (LET):
//
//   - owned atom leaves (its energy-phase segment) and owned q-point
//     leaves (its Born-phase segment);
//   - ghost atom leaves: remote leaves its near-field energy
//     interactions read atom-by-atom;
//   - ghost q-point leaves: remote q-leaves whose near-field the rank's
//     Born traversal evaluates exactly;
//   - node aggregates (far-field histograms / pseudo-q-points), which
//     are tiny and summarized by count.
//
// The resulting report gives the per-rank memory of a data-distributed
// implementation versus the full replication the paper (and this
// repository's runners) use — the quantitative answer to how much the
// future-work approach would save, and what ghost-exchange communication
// it would add.

// RankData is one rank's LET measurement.
type RankData struct {
	Rank int
	// OwnedAtoms and OwnedQPoints are the rank's partition sizes.
	OwnedAtoms, OwnedQPoints int
	// GhostAtoms counts remote atoms the rank's near-field energy
	// traversal reads; GhostQPoints likewise for the Born phase's
	// exact interactions with remote atom leaves' q-points... (q-ghosts
	// are q-points in the rank's Born segment interacting with REMOTE
	// atom leaves, which the owner of those atoms must receive).
	GhostAtoms int
	// Aggregates counts distinct far-field node summaries consumed
	// (each is O(M_ε) floats — negligible next to atom data).
	Aggregates int
	// LETBytes is the modeled per-rank resident size under data
	// distribution: owned + ghost atoms, owned q-points, aggregates and
	// the shared top of the tree.
	LETBytes int64
}

// DataDistReport compares data distribution against full replication.
type DataDistReport struct {
	Procs int
	// ReplicatedBytes is today's per-rank footprint (every rank holds
	// everything).
	ReplicatedBytes int64
	PerRank         []RankData
}

// MaxLETBytes returns the largest per-rank LET footprint.
func (r *DataDistReport) MaxLETBytes() int64 {
	var m int64
	for _, rd := range r.PerRank {
		if rd.LETBytes > m {
			m = rd.LETBytes
		}
	}
	return m
}

// Savings returns ReplicatedBytes / MaxLETBytes — how much less memory
// the most-loaded rank would need under data distribution.
func (r *DataDistReport) Savings() float64 {
	m := r.MaxLETBytes()
	if m == 0 {
		return 0
	}
	return float64(r.ReplicatedBytes) / float64(m)
}

// String implements fmt.Stringer.
func (r *DataDistReport) String() string {
	return fmt.Sprintf("data distribution over %d ranks: replicated %.1f MB/rank -> LET max %.1f MB/rank (%.1fx saving)",
		r.Procs, float64(r.ReplicatedBytes)/(1<<20), float64(r.MaxLETBytes())/(1<<20), r.Savings())
}

const (
	atomBytes   = 5 * 8 // position + charge + radius
	qpointBytes = 7 * 8 // position + weighted normal
	aggBytes    = 32 * 8
)

// MeasureDataDistribution replays the node–node work division for P
// ranks and records each rank's Local Essential Tree. slotRadii may be
// nil (a shared-memory run computes them).
func MeasureDataDistribution(sys *System, P int) (*DataDistReport, error) {
	if P <= 0 {
		return nil, fmt.Errorf("core: MeasureDataDistribution with P=%d", P)
	}
	// Born radii for the E_pol context (aggregates need them).
	res, err := RunShared(sys, SharedOptions{Threads: 1})
	if err != nil {
		return nil, err
	}
	slotRadii := make([]float64, sys.Mol.NumAtoms())
	for slot, orig := range sys.Atoms.Index {
		slotRadii[slot] = res.BornRadii[orig]
	}
	ctx := NewEpolContext(sys, slotRadii)

	aLeaves := sys.Atoms.Leaves()
	qLeaves := sys.QPts.Leaves()

	// Leaf owner maps (by slot segments, like the runners).
	atomOwner := ownerBySlot(sys.Atoms, aLeaves, sys.Mol.NumAtoms(), P)
	_ = atomOwner

	rep := &DataDistReport{Procs: P, ReplicatedBytes: sys.MemoryBytes()}
	topNodes := countTopNodes(sys.Atoms, 3) + countTopNodes(sys.QPts, 3)

	for rank := 0; rank < P; rank++ {
		rd := RankData{Rank: rank}

		// Energy phase: rank owns a segment of atom leaves (the V side).
		eLo, eHi := segment(len(aLeaves), P, rank)
		ownedLeaf := map[int32]bool{}
		for _, li := range aLeaves[eLo:eHi] {
			ownedLeaf[li] = true
			rd.OwnedAtoms += sys.Atoms.Nodes[li].Count()
		}
		ghost := map[int32]bool{}
		aggs := map[int32]bool{}
		for _, v := range aLeaves[eLo:eHi] {
			collectLET(sys, ctx, sys.Atoms.Root(), v, ownedLeaf, ghost, aggs)
		}
		for li := range ghost {
			rd.GhostAtoms += sys.Atoms.Nodes[li].Count()
		}
		rd.Aggregates = len(aggs)

		// Born phase: rank owns a segment of q-point leaves.
		qLo, qHi := segment(len(qLeaves), P, rank)
		for _, qi := range qLeaves[qLo:qHi] {
			rd.OwnedQPoints += sys.QPts.Nodes[qi].Count()
		}

		rd.LETBytes = int64(rd.OwnedAtoms+rd.GhostAtoms)*atomBytes +
			int64(rd.OwnedQPoints)*qpointBytes +
			int64(rd.Aggregates)*aggBytes +
			int64(topNodes)*64
		rep.PerRank = append(rep.PerRank, rd)
	}
	return rep, nil
}

// collectLET mirrors APPROX-EPOL's traversal shape, recording which
// remote leaves the near field reads and which node aggregates the far
// field consumes.
func collectLET(sys *System, ctx *EpolContext, uNode, vLeaf int32, owned, ghost, aggs map[int32]bool) {
	u := &sys.Atoms.Nodes[uNode]
	v := &sys.Atoms.Nodes[vLeaf]
	if u.IsLeaf {
		if !owned[uNode] {
			ghost[uNode] = true
		}
		return
	}
	if _, _, far := farSeparated(v.Center, u.Center, v.Radius, u.Radius, ctx.farFactor); far {
		aggs[uNode] = true
		return
	}
	for _, child := range u.Children {
		if child != octree.NoChild {
			collectLET(sys, ctx, child, vLeaf, owned, ghost, aggs)
		}
	}
}

// ownerBySlot maps each leaf to the rank owning its slot segment.
func ownerBySlot(t *octree.Tree, leaves []int32, n, P int) map[int32]int {
	out := make(map[int32]int, len(leaves))
	for _, li := range leaves {
		mid := int(t.Nodes[li].Start)
		r := mid * P / n
		if r >= P {
			r = P - 1
		}
		out[li] = r
	}
	return out
}

// countTopNodes counts nodes with depth ≤ maxDepth (the shared coarse
// tree every rank keeps).
func countTopNodes(t *octree.Tree, maxDepth int) int {
	n := 0
	for i := range t.Nodes {
		if int(t.Nodes[i].Depth) <= maxDepth {
			n++
		}
	}
	return n
}
