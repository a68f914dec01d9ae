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
// approximate-math kernels take only the last two — they must call
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

// bornTile evaluates Born tile t of il — the q-point leaf rows [8t, 8t+8),
// fewer for the last — into acc (Figure 2): far entries contribute the
// pseudo-q-point term to the node field s_A, near entries get exact
// per-atom/per-q-point sums. Without a ladder the far nodes the whole tile
// takes (il.TileFar) are swept once, eight rows to a term (bornFarShared),
// and each row then sweeps its own; the ladder arms walk both per row. Every
// node's sum still receives its terms in row order — a node is shared or own
// within a tile, never both, and the shared sweep adds a node's lane terms
// in lane order — so at one worker every sum is bit for bit the per-row
// sweep's.
func bornTile(sys *System, il *InteractionLists, t int, acc *bornAccum) {
	lo, hi := il.tileRows(t)
	shared, _ := il.tileFar(t)
	if sys.Params.FarOrder == 0 {
		bornFarShared(sys, il.Rows[lo:hi], shared, acc.node)
		acc.ops += float64(len(shared) * (hi - lo))
		shared = nil
	}
	for row := lo; row < hi; row++ {
		bornRow(sys, il, row, shared, acc)
	}
}

// bornLanes is a Born tile's rows in SoA lanes: each q-point leaf's center
// and summed weighted normal (System.QNodeWN) — the row side of a shared far
// term. bornFarShared4 (simd_amd64.s) reads x at byte 0, y at 64, z at 128
// and the normal at 192, 256, 320.
type bornLanes struct {
	x, y, z, wx, wy, wz [tileLanes]float64
}

// bornFarShared adds, for every node a of shared, the order-0 pseudo-q-point
// term of each of rows (one tile's, in order) to node[a], in row order. A
// full tile of the float64 tiers under the R6 kernel goes to the AVX2 sweep
// where the host has one; the rest — R4, a short tile, the f32 tier or no
// assembly — to the portable loop.
func bornFarShared(sys *System, rows, shared []int32, node []float64) {
	if sys.Params.tier() == tierF32 {
		bornFarSharedF32(sys, rows, shared, node)
		return
	}
	var q bornLanes
	for l, leaf := range rows {
		c, wn := sys.QPts.Nodes[leaf].Center, sys.QNodeWN[leaf]
		q.x[l], q.y[l], q.z[l], q.wx[l], q.wy[l], q.wz[l] = c.X, c.Y, c.Z, wn.X, wn.Y, wn.Z
	}
	if useAsmKernels && len(rows) == tileLanes && sys.Params.Kernel == R6 {
		bornFarSharedAsm(sys, &q, shared, node)
		return
	}
	bornFarSharedLanes(sys, &q, len(rows), shared, node)
}

// bornFarSharedLanes is bornFarShared's portable loop over the first n lanes
// of q: per node its centre read once, per lane the scalar row loop's term,
// operation for operation, added in lane order.
func bornFarSharedLanes(sys *System, q *bornLanes, n int, shared []int32, node []float64) {
	r4 := sys.Params.Kernel == R4
	for _, a := range shared {
		ax, ay, az := sys.ANodeX[a], sys.ANodeY[a], sys.ANodeZ[a]
		s := node[a]
		for l := 0; l < n; l++ {
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

// bornFar0 adds q-point leaf's order-0 pseudo-q-point term for every node
// of far to node: a row's own far run.
func bornFar0(sys *System, leaf int32, far []int32, node []float64) {
	qc, wn := sys.QPts.Nodes[leaf].Center, sys.QNodeWN[leaf]
	r4 := sys.Params.Kernel == R4
	for _, a := range far {
		dx := qc.X - sys.ANodeX[a]
		dy := qc.Y - sys.ANodeY[a]
		dz := qc.Z - sys.ANodeZ[a]
		d2 := dx*dx + dy*dy + dz*dz
		den := d2 * d2
		if !r4 {
			den *= d2
		}
		node[a] += (wn.X*dx + wn.Y*dy + wn.Z*dz) / den
	}
}

// bornRow evaluates one compiled Born row (a q-point leaf) for bornTile into
// acc: its far entries — shared, its tile's shared run where the row walks it
// itself (under a ladder; nil once bornTile swept it), then its own run —
// and its near entries.
func bornRow(sys *System, il *InteractionLists, row int, shared []int32, acc *bornAccum) {
	tier := sys.Params.tier()
	if tier == tierF32 {
		bornRowF32(sys, il, row, shared, acc)
		return
	}
	// The exact and approximate tiers share this float64 row: the Born
	// kernel is pure divide/multiply (no transcendentals), so keeping one
	// row preserves the portable laned tier's bit-compatibility with the
	// scalar path for free. The laned tier's near entries dispatch to the
	// width-4 divide kernel on AVX2 hosts (R6 only — the default).
	leaf := il.Rows[row]
	q := &sys.QPts.Nodes[leaf]
	wn := sys.QNodeWN[leaf]
	qc := q.Center
	r4 := sys.Params.Kernel == R4

	own := il.Far[il.FarOff[row]:il.FarOff[row+1]]
	if sys.Params.FarOrder == 0 {
		bornFar0(sys, leaf, own, acc.node)
	} else if sys.Params.FarOrder < 2 {
		// Ladder-compiled lists, dipole order: same order-0 term per
		// entry, plus the run order's moment correction into the node's
		// receiver expansion (farorder.go; translated to atoms by
		// PushIntegralsToAtoms). Every far entry is corrected through
		// Params.FarOrder — the per-entry admitted rung (FarOrd) governs
		// admission and repair margins only; correcting a rung-0 entry
		// through the full order is strictly MORE accurate, and keeping
		// the order uniform keeps this loop branch-free. The dipole arm
		// of bornFarCorrection is hand-expanded here (ds = a0·tr(M1) −
		// 2a1·dᵀM1d, dg = 2a1(M0·d)·d − a0·M0): at ~30 flops the call
		// and its 10-float return dominated the math, and the order-1
		// Hessian piece is identically zero so the per-entry hess
		// read-modify-write is skipped entirely. The recursive path
		// keeps calling the shared kernel; TestFarOrderCompiledMatches-
		// Recursive pins the two expansions to 1e-12.
		fm := bornRowMoments(sys.QPts.MomentsOf(momentSetWN), leaf)
		kap := 3.0
		if r4 {
			kap = 2
		}
		trM1 := fm.d[0].X + fm.d[1].Y + fm.d[2].Z
		for _, run := range [2][]int32{shared, own} {
			for _, a := range run {
				dx := qc.X - sys.ANodeX[a]
				dy := qc.Y - sys.ANodeY[a]
				dz := qc.Z - sys.ANodeZ[a]
				d2 := dx*dx + dy*dy + dz*dz
				den := d2 * d2
				if !r4 {
					den *= d2
				}
				a0 := 1 / den
				a1 := kap * a0 / d2
				m1dx := fm.d[0].X*dx + fm.d[0].Y*dy + fm.d[0].Z*dz
				m1dy := fm.d[1].X*dx + fm.d[1].Y*dy + fm.d[1].Z*dz
				m1dz := fm.d[2].X*dx + fm.d[2].Y*dy + fm.d[2].Z*dz
				dM1d := dx*m1dx + dy*m1dy + dz*m1dz
				m0d := fm.m0.X*dx + fm.m0.Y*dy + fm.m0.Z*dz
				acc.node[a] += (wn.X*dx+wn.Y*dy+wn.Z*dz)/den + a0*trM1 - 2*a1*dM1d
				g := &acc.grad[a]
				s := 2 * a1 * m0d
				g.X += s*dx - a0*fm.m0.X
				g.Y += s*dy - a0*fm.m0.Y
				g.Z += s*dz - a0*fm.m0.Z
			}
		}
	} else {
		// Quadrupole order: the full order-2 arm of bornFarCorrection,
		// hand-expanded for the same reason as the dipole loop above —
		// the shared kernel's call, its 10-float value return and the
		// Sym3 method-chain copies cost as much as the ~110 flops of
		// actual contraction. The recursive path keeps calling the
		// shared kernel; TestFarOrderCompiledMatchesRecursive pins the
		// two expansions to 1e-12.
		fm := bornRowMoments(sys.QPts.MomentsOf(momentSetWN), leaf)
		kap := 3.0
		if r4 {
			kap = 2
		}
		m0x, m0y, m0z := fm.m0.X, fm.m0.Y, fm.m0.Z
		d0, d1, d2r := fm.d[0], fm.d[1], fm.d[2]
		q0, q1, q2 := &fm.q[0], &fm.q[1], &fm.q[2]
		trM1 := d0.X + d1.Y + d2r.Z
		trQ0, trQ1, trQ2 := q0.Trace(), q1.Trace(), q2.Trace()
		for _, run := range [2][]int32{shared, own} {
			for _, a := range run {
				dx := qc.X - sys.ANodeX[a]
				dy := qc.Y - sys.ANodeY[a]
				dz := qc.Z - sys.ANodeZ[a]
				d2 := dx*dx + dy*dy + dz*dz
				den := d2 * d2
				if !r4 {
					den *= d2
				}
				a0 := 1 / den
				a1 := kap * a0 / d2
				a2 := (kap + 1) * a1 / d2

				m1dx := d0.X*dx + d0.Y*dy + d0.Z*dz // M1·d (rows = channels)
				m1dy := d1.X*dx + d1.Y*dy + d1.Z*dz
				m1dz := d2r.X*dx + d2r.Y*dy + d2r.Z*dz
				dM1d := dx*m1dx + dy*m1dy + dz*m1dz
				m0d := m0x*dx + m0y*dy + m0z*dz
				m1tdx := d0.X*dx + d1.X*dy + d2r.X*dz // M1ᵀ·d
				m1tdy := d0.Y*dx + d1.Y*dy + d2r.Y*dz
				m1tdz := d0.Z*dx + d1.Z*dy + d2r.Z*dz

				q0dx := q0.XX*dx + q0.XY*dy + q0.XZ*dz // M2γ·d per channel γ
				q0dy := q0.XY*dx + q0.YY*dy + q0.YZ*dz
				q0dz := q0.XZ*dx + q0.YZ*dy + q0.ZZ*dz
				q1dx := q1.XX*dx + q1.XY*dy + q1.XZ*dz
				q1dy := q1.XY*dx + q1.YY*dy + q1.YZ*dz
				q1dz := q1.XZ*dx + q1.YZ*dy + q1.ZZ*dz
				q2dx := q2.XX*dx + q2.XY*dy + q2.XZ*dz
				q2dy := q2.XY*dx + q2.YY*dy + q2.YZ*dz
				q2dz := q2.XZ*dx + q2.YZ*dy + q2.ZZ*dz
				diagQd := q0dx + q1dy + q2dz
				trQd := dx*trQ0 + dy*trQ1 + dz*trQ2
				quadQd := dx*(dx*q0dx+dy*q0dy+dz*q0dz) +
					dy*(dx*q1dx+dy*q1dy+dz*q1dz) +
					dz*(dx*q2dx+dy*q2dy+dz*q2dz)

				acc.node[a] += (wn.X*dx+wn.Y*dy+wn.Z*dz)/den +
					a0*trM1 - 2*a1*dM1d - a1*(2*diagQd+trQd) + 2*a2*quadQd

				g := &acc.grad[a]
				gs := 2 * a1 * m0d
				g.X += gs*dx - a0*m0x + 2*a1*(m1dx+m1tdx+trM1*dx) - 4*a2*dM1d*dx
				g.Y += gs*dy - a0*m0y + 2*a1*(m1dy+m1tdy+trM1*dy) - 4*a2*dM1d*dy
				g.Z += gs*dz - a0*m0z + 2*a1*(m1dz+m1tdz+trM1*dz) - 4*a2*dM1d*dz

				h := &acc.hess[a]
				hc := 2 * a2 * m0d
				hd := a1 * m0d
				h.XX += hc*dx*dx - 2*a1*m0x*dx - hd
				h.YY += hc*dy*dy - 2*a1*m0y*dy - hd
				h.ZZ += hc*dz*dz - 2*a1*m0z*dz - hd
				h.XY += hc*dx*dy - a1*(m0x*dy+m0y*dx)
				h.XZ += hc*dx*dz - a1*(m0x*dz+m0z*dx)
				h.YZ += hc*dy*dz - a1*(m0y*dz+m0z*dy)
			}
		}
	}
	acc.ops += float64(len(shared) + len(own))

	qlo, qhi := q.Start, q.End
	qx, qy, qz := sys.QX[qlo:qhi], sys.QY[qlo:qhi], sys.QZ[qlo:qhi]
	wx, wy, wz := sys.WNX[qlo:qhi], sys.WNY[qlo:qhi], sys.WNZ[qlo:qhi]
	// Equal-length hints so the inner loops run bounds-check free.
	qy, qz = qy[:len(qx)], qz[:len(qx)]
	wx, wy, wz = wx[:len(qx)], wy[:len(qx)], wz[:len(qx)]
	near := il.Near[il.NearOff[row]:il.NearOff[row+1]]
	asmR6 := useAsmKernels && !r4 && tier == tierLanes
	for _, al := range near {
		an := &sys.Atoms.Nodes[al]
		if asmR6 {
			bornNearBlockAsmR6(sys, an.Start, an.End, acc.atom, qx, qy, qz, wx, wy, wz)
			acc.ops += float64(an.Count()*q.Count()) + 1
			continue
		}
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
