package core

import "gbpolar/internal/mathx"

// The float32 precision tier (PrecisionF32), Born phase (the E_pol kernel
// is epolStreamF32, kernels_stream.go): pair kernels evaluated in float32
// over the lane-padded f32SoA mirror (system32.go), with float64
// row-level reduction — lane partial sums stay float32, every per-atom,
// per-node and per-row accumulator is float64, so the float32 rounding of
// one row never contaminates another.
//
// Unlike the laned tier this one makes no bitwise claims; its contract
// is the measured error budget (≤1e-4 relative on total E_pol and on
// every Born radius versus the exact tier, TestF32TierErrorBudget).
// That freedom buys the block sums four independent accumulators (the
// add chains of a strict-order sum would serialize) and the cheaper f32
// operations themselves: RSqrt32 converges in two Newton steps instead
// of three, Exp32's polynomial is a degree shorter, and f32 divides
// retire in roughly half the cycles of f64 ones.
//
// Op accounting matches the float64 rows entry for entry.

// bornFarSharedF32 is bornFarShared in float32: per lane the term of
// bornRowF32's order-0 loop, added to the node's float64 sum in lane order.
func bornFarSharedF32(sys *System, rows, shared []int32, node []float64) {
	f := sys.f32()
	var qx, qy, qz, wx, wy, wz [tileLanes]float32
	for l, leaf := range rows {
		c, wn := sys.QPts.Nodes[leaf].Center, sys.QNodeWN[leaf]
		qx[l], qy[l], qz[l] = float32(c.X), float32(c.Y), float32(c.Z)
		wx[l], wy[l], wz[l] = float32(wn.X), float32(wn.Y), float32(wn.Z)
	}
	r4 := sys.Params.Kernel == R4
	for _, a := range shared {
		ax, ay, az := f.aNodeX[a], f.aNodeY[a], f.aNodeZ[a]
		s := node[a]
		for l := range rows {
			dx, dy, dz := qx[l]-ax, qy[l]-ay, qz[l]-az
			d2 := dx*dx + dy*dy + dz*dz
			den := d2 * d2
			if !r4 {
				den *= d2
			}
			s += float64((wx[l]*dx + wy[l]*dy + wz[l]*dz) / den)
		}
		node[a] = s
	}
}

// bornRowF32 is bornRow with float32 arithmetic: far pseudo-q-point
// terms and near per-atom sums both evaluate in f32 and land in the
// float64 accumulator fields.
func bornRowF32(sys *System, il *InteractionLists, row int, shared []int32, acc *bornAccum) {
	f := sys.f32()
	leaf := il.Rows[row]
	q := &sys.QPts.Nodes[leaf]
	wn := sys.QNodeWN[leaf]
	qcx := float32(q.Center.X)
	qcy := float32(q.Center.Y)
	qcz := float32(q.Center.Z)
	wnx, wny, wnz := float32(wn.X), float32(wn.Y), float32(wn.Z)
	r4 := sys.Params.Kernel == R4

	own := il.Far[il.FarOff[row]:il.FarOff[row+1]]
	if sys.Params.FarOrder == 0 {
		for _, a := range own {
			dx := qcx - f.aNodeX[a]
			dy := qcy - f.aNodeY[a]
			dz := qcz - f.aNodeZ[a]
			d2 := dx*dx + dy*dy + dz*dz
			den := d2 * d2
			if !r4 {
				den *= d2
			}
			acc.node[a] += float64((wnx*dx + wny*dy + wnz*dz) / den)
		}
	} else {
		// The f32 pseudo-q-point term stays in float32; the moment
		// corrections are evaluated in float64 from the widened f32 center
		// offsets (their magnitude is a small fraction of the order-0 term,
		// so f32 rounding of d costs nothing against the tier's 1e-4
		// budget, while the f64 tensor algebra avoids a second kernel).
		ord := sys.Params.FarOrder
		fm := bornRowMoments(sys.QPts.MomentsOf(momentSetWN), leaf)
		for _, run := range [2][]int32{shared, own} {
			for _, a := range run {
				dx := qcx - f.aNodeX[a]
				dy := qcy - f.aNodeY[a]
				dz := qcz - f.aNodeZ[a]
				d2 := dx*dx + dy*dy + dz*dz
				den := d2 * d2
				if !r4 {
					den *= d2
				}
				acc.node[a] += float64((wnx*dx + wny*dy + wnz*dz) / den)
				ds, dg, dh := bornFarCorrection(&fm, float64(dx), float64(dy), float64(dz), float64(d2), r4, ord)
				acc.node[a] += ds
				acc.grad[a] = acc.grad[a].Add(dg)
				acc.hess[a] = acc.hess[a].Add(dh)
			}
		}
	}
	acc.ops += float64(len(shared) + len(own))

	qlo, qhi := q.Start, q.End
	qx, qy, qz := f.qX[qlo:qhi], f.qY[qlo:qhi], f.qZ[qlo:qhi]
	wx, wy, wz := f.wnX[qlo:qhi], f.wnY[qlo:qhi], f.wnZ[qlo:qhi]
	// Equal-length hints so the inner loops run bounds-check free.
	qy, qz = qy[:len(qx)], qz[:len(qx)]
	wx, wy, wz = wx[:len(qx)], wy[:len(qx)], wz[:len(qx)]
	n := len(qx)
	nb := n &^ (mathx.LaneWidth - 1)
	near := il.Near[il.NearOff[row]:il.NearOff[row+1]]
	asmR6 := useAsmKernels && !r4
	for _, al := range near {
		an := &sys.Atoms.Nodes[al]
		if asmR6 {
			bornNearBlockAsmR6x32(f, an.Start, an.End, acc.atom, qx, qy, qz, wx, wy, wz)
			acc.ops += float64(an.Count()*q.Count()) + 1
			continue
		}
		for ai := an.Start; ai < an.End; ai++ {
			pax, pay, paz := f.atomX[ai], f.atomY[ai], f.atomZ[ai]
			var sl [mathx.LaneWidth]float32
			if r4 {
				for j := 0; j < nb; j += mathx.LaneWidth {
					for l := 0; l < mathx.LaneWidth; l++ {
						dx, dy, dz := qx[j+l]-pax, qy[j+l]-pay, qz[j+l]-paz
						r2 := dx*dx + dy*dy + dz*dz
						if r2 == 0 {
							continue
						}
						sl[l] += (wx[j+l]*dx + wy[j+l]*dy + wz[j+l]*dz) / (r2 * r2)
					}
				}
				for j := nb; j < n; j++ {
					dx, dy, dz := qx[j]-pax, qy[j]-pay, qz[j]-paz
					r2 := dx*dx + dy*dy + dz*dz
					if r2 == 0 {
						continue
					}
					sl[0] += (wx[j]*dx + wy[j]*dy + wz[j]*dz) / (r2 * r2)
				}
			} else {
				for j := 0; j < nb; j += mathx.LaneWidth {
					for l := 0; l < mathx.LaneWidth; l++ {
						dx, dy, dz := qx[j+l]-pax, qy[j+l]-pay, qz[j+l]-paz
						r2 := dx*dx + dy*dy + dz*dz
						if r2 == 0 {
							continue
						}
						sl[l] += (wx[j+l]*dx + wy[j+l]*dy + wz[j+l]*dz) / (r2 * r2 * r2)
					}
				}
				for j := nb; j < n; j++ {
					dx, dy, dz := qx[j]-pax, qy[j]-pay, qz[j]-paz
					r2 := dx*dx + dy*dy + dz*dz
					if r2 == 0 {
						continue
					}
					sl[0] += (wx[j]*dx + wy[j]*dy + wz[j]*dz) / (r2 * r2 * r2)
				}
			}
			acc.atom[ai] += float64((sl[0] + sl[1]) + (sl[2] + sl[3]))
		}
		acc.ops += float64(an.Count()*q.Count()) + 1
	}
}
