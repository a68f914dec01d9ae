package octree

import (
	"fmt"
	"sort"

	"gbpolar/internal/geom"
	"gbpolar/internal/sched"
)

// This file is the Morton (sorted) cold-path builder. Instead of the
// reference top-down recursion — which shuffles every point once per
// tree level with a per-node counting/cycle sort — it computes one
// 63-bit Morton key per point, sorts (key, original index) pairs with a
// chunk-parallel LSD radix sort, permutes the point store once, and then
// derives the node hierarchy from the sorted key array: a node's octant
// boundaries are binary searches on the 3-bit key digit at its depth, so
// hierarchy construction touches keys, never points. This is the
// classic space-filling-curve tree build (DASHMM, arXiv:1710.06316;
// Multibody Multipole Methods, arXiv:1105.2769): one sort buys both the
// construction speedup and the traversal-friendly memory layout, since
// Index/Pts come out in depth-first spatial order.
//
// Because geom.MortonKey replays the recursive descent's own
// floating-point comparisons (see geom/morton.go), the derived hierarchy
// is node-for-node identical to the recursive builder's down to
// geom.MortonBits levels; only point order WITHIN a leaf may differ
// (key order vs cycle-sort order), which perturbs nothing but the
// summation order of leaf centroids. Inputs that need deeper splits than
// the key lattice resolves (sub-lattice clusters of coincident points)
// terminate in an oversized leaf at depth MortonBits instead of
// recursing to MaxDepth; Validate accepts both shapes.

// Builder selects the tree construction algorithm.
type Builder int

const (
	// BuilderRecursive is the reference top-down builder (octree.go).
	// It is the zero value, so existing callers keep their behavior.
	BuilderRecursive Builder = iota
	// BuilderMorton sorts points by 63-bit Morton key (parallel LSD
	// radix sort) and derives the hierarchy from the sorted keys.
	BuilderMorton
)

// String returns the flag-friendly name of the builder.
func (b Builder) String() string {
	switch b {
	case BuilderRecursive:
		return "recursive"
	case BuilderMorton:
		return "morton"
	}
	return fmt.Sprintf("Builder(%d)", int(b))
}

// ParseBuilder parses a -builder flag value.
func ParseBuilder(s string) (Builder, error) {
	switch s {
	case "recursive":
		return BuilderRecursive, nil
	case "morton":
		return BuilderMorton, nil
	}
	return 0, fmt.Errorf("octree: unknown builder %q (want recursive|morton)", s)
}

// BuilderKind returns the builder the tree was constructed with.
func (t *Tree) BuilderKind() Builder { return t.builder }

// Keys returns the Morton keys in tree-slot order, or nil for a
// recursive build, which has none. The slice is shared; callers must not
// modify it.
func (t *Tree) Keys() []uint64 { return t.keys }

// buildMorton constructs the hierarchy for pts (input order, t.Index the
// identity) inside the given root cube, filling t.Pts in key order.
func (t *Tree) buildMorton(pts []geom.Vec3, root geom.AABB, opts Options) {
	n := len(pts)
	keys := make([]uint64, n)
	parallelRange(opts.Pool, n, 2048, func(lo, hi int) {
		geom.MortonKeys(root, pts[lo:hi], keys[lo:hi])
	})
	radixSortKeys(keys, t.Index, opts.Pool)
	// One gather from the caller's points fills the point store in key
	// order; after this the hierarchy derivation never touches
	// coordinates again.
	parallelRange(opts.Pool, n, 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.Pts[i] = pts[t.Index[i]]
		}
	})
	t.keys = keys
	maxDepth := opts.MaxDepth
	if maxDepth > geom.MortonBits {
		maxDepth = geom.MortonBits
	}
	t.buildFromKeys(NoChild, 0, int32(n), 0, maxDepth, opts.LeafCap)
}

// buildFromKeys writes the node covering key range [start,end) at the
// given depth — appended when reuse is NoChild, in place otherwise (the
// tracked update re-splitting an overfull leaf) — and recurses into its
// octants, mirroring build()'s pre-order node layout exactly. Within a
// node all keys share the prefix above depth, so the 3-bit digit AT
// depth is non-decreasing and each octant is one contiguous run found
// by binary search.
func (t *Tree) buildFromKeys(reuse, start, end int32, depth, maxDepth, leafCap int) int32 {
	id := reuse
	if id == NoChild {
		id = int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{})
	}
	t.Nodes[id] = Node{Start: start, End: end, Depth: int16(depth)}
	for i := range t.Nodes[id].Children {
		t.Nodes[id].Children[i] = NoChild
	}
	if int(end-start) <= leafCap || depth >= maxDepth {
		t.Nodes[id].IsLeaf = true
		return id
	}
	cur := start
	for o := 0; o < 8 && cur < end; o++ {
		hi := cur + int32(sort.Search(int(end-cur), func(i int) bool {
			return geom.MortonOctant(t.keys[cur+int32(i)], depth) > o
		}))
		if hi == cur {
			continue
		}
		child := t.buildFromKeys(NoChild, cur, hi, depth+1, maxDepth, leafCap)
		t.Nodes[id].Children[o] = child
		cur = hi
	}
	return id
}

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	// radixPasses covers the full 63-bit key (8 × 8 = 64 bits); passes
	// whose digit is constant across all keys are skipped, so shallow
	// key distributions pay only for the digits they populate.
	radixPasses = 8
	// radixMinChunk keeps per-chunk histogram work worth the spawn: a
	// smaller input collapses to fewer (or one) chunks.
	radixMinChunk = 4096
)

// radixSortKeys stably sorts keys ascending, permuting idx alongside.
// Each pass counts 8-bit digits into per-chunk histograms in parallel,
// takes a serial digit-major prefix sum, and scatters chunks to their
// precomputed disjoint destinations — chunk boundaries depend only on
// (len, chunk count), not on worker scheduling, so the result is
// deterministic for any pool size.
func radixSortKeys(keys []uint64, idx []int32, pool *sched.Pool) {
	n := len(keys)
	if n < 2 {
		return
	}
	nchunks := 1
	if pool != nil {
		nchunks = pool.NumWorkers()
	}
	if m := (n + radixMinChunk - 1) / radixMinChunk; nchunks > m {
		nchunks = m
	}
	if nchunks < 1 {
		nchunks = 1
	}
	tmpK := make([]uint64, n)
	tmpI := make([]int32, n)
	hist := make([]int32, nchunks*radixBuckets)
	src, dst, srcI, dstI := keys, tmpK, idx, tmpI
	for pass := 0; pass < radixPasses; pass++ {
		shift := uint(pass * radixBits)
		for i := range hist {
			hist[i] = 0
		}
		parallelChunks(pool, nchunks, n, func(c, lo, hi int) {
			h := hist[c*radixBuckets : (c+1)*radixBuckets]
			for i := lo; i < hi; i++ {
				h[(src[i]>>shift)&(radixBuckets-1)]++
			}
		})
		// Skip passes where every key shares the digit: no key can move.
		constant := false
		for d := 0; d < radixBuckets; d++ {
			var tot int32
			for c := 0; c < nchunks; c++ {
				tot += hist[c*radixBuckets+d]
			}
			if tot == 0 {
				continue
			}
			constant = tot == int32(n)
			break
		}
		if constant {
			continue
		}
		// Digit-major prefix sum turns counts into starting offsets: all
		// of digit d's slots (chunk 0..k) precede digit d+1's, and within
		// a digit chunks stay in order — that ordering is the stability.
		var pos int32
		for d := 0; d < radixBuckets; d++ {
			for c := 0; c < nchunks; c++ {
				v := hist[c*radixBuckets+d]
				hist[c*radixBuckets+d] = pos
				pos += v
			}
		}
		parallelChunks(pool, nchunks, n, func(c, lo, hi int) {
			cur := hist[c*radixBuckets : (c+1)*radixBuckets]
			for i := lo; i < hi; i++ {
				d := (src[i] >> shift) & (radixBuckets - 1)
				p := cur[d]
				cur[d] = p + 1
				dst[p] = src[i]
				dstI[p] = srcI[i]
			}
		})
		src, dst = dst, src
		srcI, dstI = dstI, srcI
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(idx, srcI)
	}
}

// parallelChunks runs fn over nchunks fixed slices of [0,n). Boundaries
// are a pure function of (nchunks, n) so concurrent histogram/scatter
// positions are deterministic; with a nil pool it degrades to a serial
// loop.
func parallelChunks(pool *sched.Pool, nchunks, n int, fn func(chunk, lo, hi int)) {
	if pool == nil || nchunks == 1 {
		for c := 0; c < nchunks; c++ {
			fn(c, c*n/nchunks, (c+1)*n/nchunks)
		}
		return
	}
	sched.ParallelFor(pool, nchunks, 1, func(clo, chi, _ int) {
		for c := clo; c < chi; c++ {
			fn(c, c*n/nchunks, (c+1)*n/nchunks)
		}
	})
}

// parallelRange applies fn over [0,n) in grain-sized parallel chunks,
// or serially with a nil pool.
func parallelRange(pool *sched.Pool, n, grain int, fn func(lo, hi int)) {
	if pool == nil {
		fn(0, n)
		return
	}
	sched.ParallelFor(pool, n, grain, func(lo, hi, _ int) { fn(lo, hi) })
}
