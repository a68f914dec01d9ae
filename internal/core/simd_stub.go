//go:build !amd64 || purego

package core

// Builds without the assembly (other architectures, or -tags purego):
// useAsmKernels and useAVX512 stay false, so the portable kernels in
// kernels_stream.go / kernels.go handle everything and the panicking stubs
// below are unreachable; the classification's opening test runs on its
// portable lanes.

var useAsmKernels, useAVX512 = false, false

func openFar8(t *rowTile, cx, cy, cz, r, mac float64) uint8 {
	return openFar8Lanes(t, cx, cy, cz, r, mac)
}

func epolStreamExactAsm(o, s *soa) float64 {
	panic("core: asm kernels unavailable in this build")
}

func epolStreamExactAsm8(o, s *soa) float64 {
	panic("core: asm kernels unavailable in this build")
}

func epolStreamLanesAsm(o, s *soa) float64 {
	panic("core: asm kernels unavailable in this build")
}

func epolStreamLanesAsm8(o, s *soa) float64 {
	panic("core: asm kernels unavailable in this build")
}

func gatherAsm(s *soa, n int, src []float64, lo, hi, list []int32, w float64) int {
	panic("core: asm kernels unavailable in this build")
}

func bornNearRowAsm(sys *System, near []int32, atom, qx, qy, qz, wx, wy, wz []float64) int {
	panic("core: asm kernels unavailable in this build")
}

func bornFarAsm(sys *System, q *bornLanes, rows int, far []int32, masks []uint8, stride int, node []float64) {
	panic("core: asm kernels unavailable in this build")
}

func gatherMaskedAsm(ls *laneStreams, src []float64, lo, hi, list []int32, masks []uint8, w float64, room int) int {
	panic("core: asm kernels unavailable in this build")
}
