//go:build amd64 && !purego

package core

import "gbpolar/internal/mathx"

// Runtime dispatch for the assembly kernels (simd_amd64.s): the E_pol
// stream kernels of the exact tier — whose assembly keeps IEEE sqrt/divide
// and a ≤1-ulp vector exp — and of the laned tier, each on AVX-512F where
// the host has it and AVX2+FMA otherwise, the same bits either way; the
// Born near sweep of a row and the Born tile's masked far sweep of every
// tier, bit for bit their portable loops; and the two gathers that stage the
// E_pol streams, element for element theirs. The portable Go kernels
// (kernels_stream.go, kernels.go) remain the reference implementation — the
// tests force useAsmKernels off to pin the laned tier's bit-compatibility
// claim, TestAsmKernelsMatchPortable bounds the laned assembly against the
// portable path far inside the tier's 1e-4 accuracy class, and
// TestStreamExactAsmMatchesPortable holds the exact tier's to 1e-13. Build
// with -tags purego to leave the assembly out.

// cpuidex and xgetbv0 are the CPUID/XGETBV primitives behind feature
// detection (implemented in simd_amd64.s).
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func epolStreamExact4(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64

//go:noescape
func epolStreamExact8(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64

//go:noescape
func epolStreamLanes4(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64

//go:noescape
func epolStreamLanes8(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64

//go:noescape
func gatherBlocks4(dst []float64, stride, n int, src []float64, lo, hi, list []int32, w float64) int

//go:noescape
func openFar8AVX2(t *rowTile, cx, cy, cz, r, mac float64) uint8

//go:noescape
func expNeg4(dst, src []float64)

//go:noescape
func expNeg8(dst, src []float64)

//go:noescape
func bornNearRow4(near, lo, hi []int32, ax, ay, az, atom, qx, qy, qz, wx, wy, wz []float64) int

//go:noescape
func bornFarMasked4(q *bornLanes, lane int, far []int32, masks []uint8, stride int, ax, ay, az, node []float64)

//go:noescape
func gatherMasked4(dst *laneStreams, src []float64, lo, hi, list []int32, masks []uint8, w float64, room int) int

// detectAVX2FMA reports whether the host can run the YMM kernels: AVX2
// and FMA present, and the OS saving XMM+YMM state across context
// switches (OSXSAVE + XCR0).
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// detectAVX512 reports whether the host can also run the ZMM kernels
// (epolStreamExact8, epolStreamLanes8): AVX-512F present — the kernels use
// no other AVX-512 subset — and the OS saving the opmask and all 32 ZMM
// registers along with XMM+YMM state (XCR0 bits 1, 2, 5, 6, 7).
func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuidex(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuidex(1, 0); ecx1&osxsave == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<16) != 0 // AVX512F
}

// useAsmKernels gates the assembly kernels, and useAVX512 — under it —
// the two tiers' ZMM stream kernels. Mutable only by tests (which
// single-thread their runs); everything else treats them as constants
// resolved at startup.
var (
	useAsmKernels = detectAVX2FMA()
	useAVX512     = useAsmKernels && detectAVX512()
)

// expNegTab holds mathx.ExpNegConsts replicated across four lanes: the
// memory operands of the assembly's EXPNEG4, so the vector exponential
// and its portable reference mathx.ExpNeg cannot drift apart.
var expNegTab = func() (t [len(mathx.ExpNegConsts)][4]float64) {
	for i, c := range mathx.ExpNegConsts {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

// The tiers' assembly stream kernels as epolTier.sweep values.

func epolStreamExactAsm(o, s *soa) float64 {
	return epolStreamExact4(o.x, o.y, o.z, o.q, o.r, o.ir, s.x, s.y, s.z, s.q, s.r, s.ir)
}

func epolStreamExactAsm8(o, s *soa) float64 {
	return epolStreamExact8(o.x, o.y, o.z, o.q, o.r, o.ir, s.x, s.y, s.z, s.q, s.r, s.ir)
}

func epolStreamLanesAsm(o, s *soa) float64 {
	return epolStreamLanes4(o.x, o.y, o.z, o.q, o.r, o.ir, s.x, s.y, s.z, s.q, s.r, s.ir)
}

func epolStreamLanesAsm8(o, s *soa) float64 {
	return epolStreamLanes8(o.x, o.y, o.z, o.q, o.r, o.ir, s.x, s.y, s.z, s.q, s.r, s.ir)
}

// gatherAsm is soa.gather (kernels_stream.go) through the vector span
// copy: epolTier.gather on AVX2 hosts.
func gatherAsm(s *soa, n int, src []float64, lo, hi, list []int32, w float64) int {
	return gatherBlocks4(s.flat, len(s.flat)/srcFields, n, src, lo, hi, list, w)
}

// openFar8 is the classification's opening test of eight lanes
// (openFar8Lanes, ilist_tile.go) through its assembly where the host has
// AVX2: the same verdicts bit for bit, so the lists do not depend on the
// choice.
func openFar8(t *rowTile, cx, cy, cz, r, mac float64) uint8 {
	if useAsmKernels {
		return openFar8AVX2(t, cx, cy, cz, r, mac)
	}
	return openFar8Lanes(t, cx, cy, cz, r, mac)
}

// bornNearRowAsm is bornNear's sweep of the near leaves of one row
// through the row kernel: every atom of the leaves gets its sum over the
// row's q-points added to atom, bit for bit the scalar R6 loop's. It returns
// the number of atoms swept.
func bornNearRowAsm(sys *System, near []int32, atom, qx, qy, qz, wx, wy, wz []float64) int {
	return bornNearRow4(near, sys.ANodeLo, sys.ANodeHi, sys.AtomX, sys.AtomY, sys.AtomZ, atom, qx, qy, qz, wx, wy, wz)
}

// bornFarAsm is bornFarLanes' sweep through the AVX2 kernel: two passes of
// four lanes over the run, lanes 0–3 and then 4–7 — the second only where
// the tile has more than four rows — so each node still takes its terms in
// lane order.
func bornFarAsm(sys *System, q *bornLanes, rows int, far []int32, masks []uint8, stride int, node []float64) {
	bornFarMasked4(q, 0, far, masks, stride, sys.ANodeX, sys.ANodeY, sys.ANodeZ, node)
	if rows > 4 {
		bornFarMasked4(q, 4, far, masks, stride, sys.ANodeX, sys.ANodeY, sys.ANodeZ, node)
	}
}

// gatherMaskedAsm is laneStreams.gather (kernels_stream.go) through the
// vector span copy: epolTier.laneGather on AVX2 hosts.
func gatherMaskedAsm(ls *laneStreams, src []float64, lo, hi, list []int32, masks []uint8, w float64, room int) int {
	return gatherMasked4(ls, src, lo, hi, list, masks, w, room)
}
