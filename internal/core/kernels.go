package core

// This file and kernels_stream.go hold the batched SoA kernels that
// evaluate compiled interaction lists (ilist.go): the Born rows here, the
// E_pol rows there. They reproduce the arithmetic of ApproxIntegrals /
// ApproxEpol pair-for-pair — same pairs, same kernel expressions — but
// sweep the System's flat component arrays instead of chasing Node
// structs and Vec3 payloads, and they dispatch the math mode (and Born
// kernel power) once per row or once per context instead of once per
// pair, where the recursive path pays an indirect call through
// mathx.Kernels on every pair.
//
// The exact tier's E_pol kernel additionally applies three algebraic
// rewrites the recursion does not: the f_GB exponent is formed by
// multiplying the gathered reciprocal radii (the sixth field of a gather
// source, kernels_stream.go) instead of dividing, mutual near blocks are
// gathered once with doubled charges, and the far field's R_uR_v
// surrogate R_min²(1+ε)^{i+j} is formed as ρ_i·ρ_j between binned
// pseudo-atoms instead of read from the rr[i+j] table. Each rewrite
// perturbs individual terms by at most a few ulp (or reassociates a sum);
// the cross-check tests in ilist_test.go pin the compiled path to the
// recursive one at 1e-12 relative, far above the observed deviation. The
// laned tier's kernels take only the last two — they must call
// mathx.Exp / mathx.RSqrt with the recursion's operands to stay on it.
//
// Op accounting: the compiled path charges 1 op per list entry plus the
// same per-pair counts as the recursive path (|A|·|Q| for near blocks,
// one per populated histogram-bin pair for the far field); mutual near
// blocks gathered once with doubled charges are charged for both ordered
// blocks they represent, so Ops stays the decomposition's pair-term count
// and remains comparable across paths and across ε. The compiled path
// does NOT charge the interior-node visits the recursion performs —
// eliminating them is the point of the compilation.

// bornTile evaluates Born tile t of il — up to eight q-point leaf rows —
// into acc (Figure 2): far entries contribute the pseudo-q-point term to the
// node field s_A, near entries get exact per-atom/per-q-point sums. Both of
// the tile's far runs are swept eight rows to a node (bornFarLanes): the
// shared run with every row taking each node, the own run by its lane
// masks; each row then sweeps its near leaves, its share of the own near run
// (bornNear; a Born tile shares no near leaves, validateIL). Every node's
// sum still receives its terms in row order — a node is in one far run of a
// tile, and the sweep adds a node's lane terms in lane order — so at one
// worker every sum is bit for bit the per-row sweep's.
func bornTile(sys *System, il *InteractionLists, t int, acc *bornAccum) {
	lo, hi := il.tileRows(t)
	var q bornLanes
	q.set(sys, il.Rows[lo:hi])
	full := [1]uint8{uint8(1)<<(hi-lo) - 1}
	shared, own := il.tileCSR()[runFar].run(t), il.ownRuns(t)
	bornFarLanes(sys, &q, hi-lo, shared, full[:], 0, acc.node)
	bornFarLanes(sys, &q, hi-lo, own.runs[runFar], own.masks[runFar], 1, acc.node)
	acc.ops += float64(len(shared)*(hi-lo) + popcount(own.masks[runFar]))
	for l := range hi - lo {
		acc.near = laneRun(acc.near[:0], own.runs[kindNear], own.masks[kindNear], l)
		bornNear(sys, il.Rows[lo+l], acc.near, acc)
	}
}

// bornLanes is a Born tile's rows in SoA lanes: each q-point leaf's center
// and summed weighted normal (System.QNodeWN) — the row side of a far term.
// bornFarMasked4 (simd_amd64.s) reads x at byte 0, y at 64, z at 128 and
// the normal at 192, 256, 320; the lanes past a short tile's rows are zero.
type bornLanes struct {
	x, y, z, wx, wy, wz [tileLanes]float64
}

// set puts the q-point leaves rows in the first lanes of q.
func (q *bornLanes) set(sys *System, rows []int32) {
	for l, leaf := range rows {
		c, wn := sys.QPts.Nodes[leaf].Center, sys.QNodeWN[leaf]
		q.x[l], q.y[l], q.z[l], q.wx[l], q.wy[l], q.wz[l] = c.X, c.Y, c.Z, wn.X, wn.Y, wn.Z
	}
}

// bornFarLanes adds, for the k-th node a of far, the pseudo-q-point term of
// each of the first rows lanes of q whose bit of masks[k·stride] is set to
// node[a], in lane order: stride 1 reads an own run's masks, stride 0 one
// mask for the whole run. Under the R6 kernel it is the AVX2 sweep where the
// host has one, which computes every lane and adds −0.0 for a lane the mask
// leaves out; x + (−0.0) = x for every x, so the sums are the portable
// loop's, which skips the lane.
func bornFarLanes(sys *System, q *bornLanes, rows int, far []int32, masks []uint8, stride int, node []float64) {
	if useAsmKernels && sys.Params.Kernel == R6 {
		bornFarAsm(sys, q, rows, far, masks, stride, node)
		return
	}
	r4 := sys.Params.Kernel == R4
	for k, a := range far {
		ax, ay, az := sys.ANodeX[a], sys.ANodeY[a], sys.ANodeZ[a]
		m := masks[k*stride]
		s := node[a]
		for l := range rows {
			if m>>l&1 == 0 {
				continue
			}
			dx, dy, dz := q.x[l]-ax, q.y[l]-ay, q.z[l]-az
			d2 := dx*dx + dy*dy + dz*dz
			den := d2 * d2
			if !r4 {
				den *= d2
			}
			s += (q.wx[l]*dx + q.wy[l]*dy + q.wz[l]*dz) / den
		}
		node[a] = s
	}
}

// bornNear adds the exact per-atom sums of one Born row's near entries —
// every atom of every near leaf against every q-point of the row's leaf,
// leaf — to acc. Under R6 on AVX2 hosts it is one call of the row kernel,
// its lanes the row's near atoms; the scalar loop is the reference it
// reproduces bit for bit, and R4's sweep. An atom's sum does not depend on
// the order of near, whose leaves hold distinct atoms.
func bornNear(sys *System, leaf int32, near []int32, acc *bornAccum) {
	q := &sys.QPts.Nodes[leaf]
	r4 := sys.Params.Kernel == R4
	qlo, qhi := q.Start, q.End
	qx, qy, qz := sys.QX[qlo:qhi], sys.QY[qlo:qhi], sys.QZ[qlo:qhi]
	wx, wy, wz := sys.WNX[qlo:qhi], sys.WNY[qlo:qhi], sys.WNZ[qlo:qhi]
	// Equal-length hints so the inner loops run bounds-check free.
	qy, qz = qy[:len(qx)], qz[:len(qx)]
	wx, wy, wz = wx[:len(qx)], wy[:len(qx)], wz[:len(qx)]
	if useAsmKernels && !r4 {
		// The op count is the scalar loop's, |A|·|Q| + 1 per entry, added
		// at once: integers, so the same float64.
		atoms := bornNearRowAsm(sys, near, acc.atom, qx, qy, qz, wx, wy, wz)
		acc.ops += float64(atoms*len(qx) + len(near))
		return
	}
	for _, al := range near {
		an := &sys.Atoms.Nodes[al]
		for ai := an.Start; ai < an.End; ai++ {
			pax, pay, paz := sys.AtomX[ai], sys.AtomY[ai], sys.AtomZ[ai]
			var s float64
			if r4 {
				for j := range qx {
					dx, dy, dz := qx[j]-pax, qy[j]-pay, qz[j]-paz
					r2 := dx*dx + dy*dy + dz*dz
					if r2 == 0 {
						continue
					}
					s += (wx[j]*dx + wy[j]*dy + wz[j]*dz) / (r2 * r2)
				}
			} else {
				for j := range qx {
					dx, dy, dz := qx[j]-pax, qy[j]-pay, qz[j]-paz
					r2 := dx*dx + dy*dy + dz*dz
					if r2 == 0 {
						continue
					}
					s += (wx[j]*dx + wy[j]*dy + wz[j]*dz) / (r2 * r2 * r2)
				}
			}
			acc.atom[ai] += s
		}
		acc.ops += float64(an.Count()*q.Count()) + 1
	}
}
