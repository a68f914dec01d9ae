//go:build amd64 && !purego

// AVX2+FMA E_pol stream kernels, both tiers' AVX-512F stream kernels
// and the Born kernels (simd_amd64.go wraps and dispatches these;
// kernels_stream.go / kernels.go carry the portable fallbacks). One epol
// call sweeps one gathered stream (the six trailing slices) against a few
// outer atoms (the leading slices): the row leaf's atoms for the near
// stream, one unit pseudo-atom for the far stream. The outer loop runs
// inside the assembly, so the per-call setup amortizes over the whole
// stream. A Born near call sweeps one row's near leaves against its
// q-points. gatherBlocks4 is the copy that stages a stream from the blocked
// gather sources, and gatherMasked4 the copy that stages a tile's streams —
// the eight lanes' from its own runs at once.
//
// Arithmetic contract (DESIGN.md §11). Exact tier (epolStreamExact4,
// epolStreamExact8): every step but the exponential is the IEEE operation
// of the portable loop — unfused multiplies and adds, VSQRTPD, VDIVPD, all
// correctly rounded — and the exponential is EXPNEG4 / EXPNEG8,
// bit-identical per lane to mathx.ExpNeg (≤ 1 ulp); only the four-lane
// pairwise reduction reorders the sum, and epolStreamExact8 forms it in
// epolStreamExact4's order, so the two return the same bits. Laned tier:
// exp uses the same range reduction + degree-6 Horner polynomial as
// mathx.Exp, evaluated with FMA contractions; 1/√x seeds from VRSQRTPS
// (|rel err| ≤ 1.5·2⁻¹²) and runs two Newton steps (→ ~6e-14); lane
// partials reduce pairwise. That is not bit-identical to the portable lane
// path — the tier's accuracy class (≤1e-4 relative) absorbs the
// difference, and TestAsmKernelsMatchPortable pins it far tighter — but
// epolStreamLanes8 performs epolStreamLanes4's operations in its order and
// forms its sums in its order, so the two return the same bits. The
// Born kernels of every tier are their scalar loops' operations in order,
// no FMA, bit for bit.
//
// The inner (stream / atom) length is runtime-sized: full lanes run the
// unmasked loop, the remainder runs one extra iteration with VMASKMOV
// loads whose mask comes from the lane-count tables below (an opmask in
// the AVX-512F kernels). Masked-off epol lanes load zero charges/radii,
// which would put 1/√0 · 0 = NaN in play if the outer atom sat exactly at
// the origin — a VBLENDVPD (VBLENDMPD) parks those lanes' f² at 1.0
// instead. The Born near kernel's masked lanes are never stored.

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ---- constants, replicated across lanes ----

DATA f64x4NegQuarter<>+0(SB)/8, $-0.25
DATA f64x4NegQuarter<>+8(SB)/8, $-0.25
DATA f64x4NegQuarter<>+16(SB)/8, $-0.25
DATA f64x4NegQuarter<>+24(SB)/8, $-0.25
GLOBL f64x4NegQuarter<>(SB), RODATA|NOPTR, $32

DATA f64x4Clamp<>+0(SB)/8, $-700.0
DATA f64x4Clamp<>+8(SB)/8, $-700.0
DATA f64x4Clamp<>+16(SB)/8, $-700.0
DATA f64x4Clamp<>+24(SB)/8, $-700.0
GLOBL f64x4Clamp<>(SB), RODATA|NOPTR, $32

DATA f64x4InvLn2<>+0(SB)/8, $1.4426950408889634
DATA f64x4InvLn2<>+8(SB)/8, $1.4426950408889634
DATA f64x4InvLn2<>+16(SB)/8, $1.4426950408889634
DATA f64x4InvLn2<>+24(SB)/8, $1.4426950408889634
GLOBL f64x4InvLn2<>(SB), RODATA|NOPTR, $32

DATA f64x4Ln2<>+0(SB)/8, $0.6931471805599453
DATA f64x4Ln2<>+8(SB)/8, $0.6931471805599453
DATA f64x4Ln2<>+16(SB)/8, $0.6931471805599453
DATA f64x4Ln2<>+24(SB)/8, $0.6931471805599453
GLOBL f64x4Ln2<>(SB), RODATA|NOPTR, $32

DATA f64x4C6<>+0(SB)/8, $0.0013888888888888889
DATA f64x4C6<>+8(SB)/8, $0.0013888888888888889
DATA f64x4C6<>+16(SB)/8, $0.0013888888888888889
DATA f64x4C6<>+24(SB)/8, $0.0013888888888888889
GLOBL f64x4C6<>(SB), RODATA|NOPTR, $32

DATA f64x4C5<>+0(SB)/8, $0.008333333333333333
DATA f64x4C5<>+8(SB)/8, $0.008333333333333333
DATA f64x4C5<>+16(SB)/8, $0.008333333333333333
DATA f64x4C5<>+24(SB)/8, $0.008333333333333333
GLOBL f64x4C5<>(SB), RODATA|NOPTR, $32

DATA f64x4C4<>+0(SB)/8, $0.041666666666666664
DATA f64x4C4<>+8(SB)/8, $0.041666666666666664
DATA f64x4C4<>+16(SB)/8, $0.041666666666666664
DATA f64x4C4<>+24(SB)/8, $0.041666666666666664
GLOBL f64x4C4<>(SB), RODATA|NOPTR, $32

DATA f64x4C3<>+0(SB)/8, $0.16666666666666666
DATA f64x4C3<>+8(SB)/8, $0.16666666666666666
DATA f64x4C3<>+16(SB)/8, $0.16666666666666666
DATA f64x4C3<>+24(SB)/8, $0.16666666666666666
GLOBL f64x4C3<>(SB), RODATA|NOPTR, $32

DATA f64x4Half<>+0(SB)/8, $0.5
DATA f64x4Half<>+8(SB)/8, $0.5
DATA f64x4Half<>+16(SB)/8, $0.5
DATA f64x4Half<>+24(SB)/8, $0.5
GLOBL f64x4Half<>(SB), RODATA|NOPTR, $32

DATA f64x4One<>+0(SB)/8, $1.0
DATA f64x4One<>+8(SB)/8, $1.0
DATA f64x4One<>+16(SB)/8, $1.0
DATA f64x4One<>+24(SB)/8, $1.0
GLOBL f64x4One<>(SB), RODATA|NOPTR, $32

DATA f64x4OneHalf<>+0(SB)/8, $1.5
DATA f64x4OneHalf<>+8(SB)/8, $1.5
DATA f64x4OneHalf<>+16(SB)/8, $1.5
DATA f64x4OneHalf<>+24(SB)/8, $1.5
GLOBL f64x4OneHalf<>(SB), RODATA|NOPTR, $32

DATA f64x4Bias<>+0(SB)/8, $1023
DATA f64x4Bias<>+8(SB)/8, $1023
DATA f64x4Bias<>+16(SB)/8, $1023
DATA f64x4Bias<>+24(SB)/8, $1023
GLOBL f64x4Bias<>(SB), RODATA|NOPTR, $32

// mask4<>[r] enables the first r of 4 f64 lanes (rows 0..4, 32 B each).
DATA mask4<>+0(SB)/8, $0
DATA mask4<>+8(SB)/8, $0
DATA mask4<>+16(SB)/8, $0
DATA mask4<>+24(SB)/8, $0
DATA mask4<>+32(SB)/8, $-1
DATA mask4<>+40(SB)/8, $0
DATA mask4<>+48(SB)/8, $0
DATA mask4<>+56(SB)/8, $0
DATA mask4<>+64(SB)/8, $-1
DATA mask4<>+72(SB)/8, $-1
DATA mask4<>+80(SB)/8, $0
DATA mask4<>+88(SB)/8, $0
DATA mask4<>+96(SB)/8, $-1
DATA mask4<>+104(SB)/8, $-1
DATA mask4<>+112(SB)/8, $-1
DATA mask4<>+120(SB)/8, $0
DATA mask4<>+128(SB)/8, $-1
DATA mask4<>+136(SB)/8, $-1
DATA mask4<>+144(SB)/8, $-1
DATA mask4<>+152(SB)/8, $-1
GLOBL mask4<>(SB), RODATA|NOPTR, $160

// func epolStreamLanes4(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64
//
// Returns Σ_u ch[u] · Σ_j cv[j]/f_GB(u,j) (u over the first six slices,
// the outer atoms; j over the last six, the stream), with f_GB² = r² +
// rr·exp(−r²/4rr), rr = rad[u]·rv[j], and the exponent formed as
// r²·(−0.25·irad[u])·irv[j].
//
// Registers — outer (u): R14=ax R15=ay AX=az BX=ch CX=rad DX=irad,
// R9 = remaining u count; inner (v): SI=vx DI=vy R10=vz R11=cv R12=rv
// R13=irv, R8 = j. Y12/Y13/Y14 = u position, Y11 = rad[u],
// Y10 = −0.25·irad[u], Y15 = lane partials, Y9 = tail mask (tail block
// only), Y0–Y8 temps. The running energy lives in energy-40(SP) — every
// XMM register aliases a YMM one the block body or tail mask clobbers.
TEXT ·epolStreamLanes4(SB), NOSPLIT, $48-296
	// nfull = n &^ 3; tmask = mask4[n&3]
	MOVQ vx_len+152(FP), R8
	MOVQ R8, R9
	ANDQ $3, R9
	SUBQ R9, R8
	MOVQ R8, nfull-48(SP)
	SHLQ $5, R9
	LEAQ mask4<>(SB), R8
	VMOVUPD (R8)(R9*1), Y0
	VMOVUPD Y0, tmask-32(SP)

	MOVQ ax_base+0(FP), R14
	MOVQ ax_len+8(FP), R9
	MOVQ ay_base+24(FP), R15
	MOVQ az_base+48(FP), AX
	MOVQ ch_base+72(FP), BX
	MOVQ rad_base+96(FP), CX
	MOVQ irad_base+120(FP), DX
	MOVQ vx_base+144(FP), SI
	MOVQ vy_base+168(FP), DI
	MOVQ vz_base+192(FP), R10
	MOVQ cv_base+216(FP), R11
	MOVQ rv_base+240(FP), R12
	MOVQ irv_base+264(FP), R13

	VXORPD X0, X0, X0
	VMOVSD X0, energy-40(SP)
	TESTQ R9, R9
	JZ edone

eouter:
	VBROADCASTSD (R14), Y12
	VBROADCASTSD (R15), Y13
	VBROADCASTSD (AX), Y14
	VBROADCASTSD (CX), Y11
	VBROADCASTSD (DX), Y10
	VMULPD f64x4NegQuarter<>(SB), Y10, Y10
	VXORPD Y15, Y15, Y15
	XORQ R8, R8

einner:
	CMPQ R8, nfull-48(SP)
	JGE etail

	VMOVUPD (SI)(R8*8), Y0
	VSUBPD Y0, Y12, Y0                  // dx = pux - vx
	VMOVUPD (DI)(R8*8), Y1
	VSUBPD Y1, Y13, Y1
	VMOVUPD (R10)(R8*8), Y2
	VSUBPD Y2, Y14, Y2
	VMULPD Y0, Y0, Y3
	VFMADD231PD Y1, Y1, Y3
	VFMADD231PD Y2, Y2, Y3              // r²
	VMOVUPD (R12)(R8*8), Y4
	VMULPD Y4, Y11, Y4                  // rr = ru·rv
	VMOVUPD (R13)(R8*8), Y5
	VMULPD Y5, Y10, Y5
	VMULPD Y3, Y5, Y5                   // arg = −r²/4rr
	VMAXPD f64x4Clamp<>(SB), Y5, Y5
	VMULPD f64x4InvLn2<>(SB), Y5, Y6
	VROUNDPD $0, Y6, Y6                 // k
	VMOVAPD Y5, Y7
	VFNMADD231PD f64x4Ln2<>(SB), Y6, Y7 // red = arg − k·ln2
	VMOVUPD f64x4C6<>(SB), Y8
	VFMADD213PD f64x4C5<>(SB), Y7, Y8
	VFMADD213PD f64x4C4<>(SB), Y7, Y8
	VFMADD213PD f64x4C3<>(SB), Y7, Y8
	VFMADD213PD f64x4Half<>(SB), Y7, Y8
	VFMADD213PD f64x4One<>(SB), Y7, Y8
	VFMADD213PD f64x4One<>(SB), Y7, Y8  // p = poly(red)
	VCVTTPD2DQY Y6, X6
	VPMOVSXDQ X6, Y6
	VPADDQ f64x4Bias<>(SB), Y6, Y6
	VPSLLQ $52, Y6, Y6                  // 2^k bits
	VMULPD Y6, Y8, Y8                   // e = p·2^k
	VFMADD231PD Y8, Y4, Y3              // f² = r² + rr·e
	VCVTPD2PSY Y3, X5
	VRSQRTPS X5, X5
	VCVTPS2PD X5, Y5                    // y ≈ 1/√f²
	VMULPD f64x4Half<>(SB), Y3, Y6      // h = f²/2
	VMULPD Y5, Y5, Y7
	VMOVUPD f64x4OneHalf<>(SB), Y8
	VFNMADD231PD Y7, Y6, Y8
	VMULPD Y8, Y5, Y5                   // Newton 1
	VMULPD Y5, Y5, Y7
	VMOVUPD f64x4OneHalf<>(SB), Y8
	VFNMADD231PD Y7, Y6, Y8
	VMULPD Y8, Y5, Y5                   // Newton 2
	VMOVUPD (R11)(R8*8), Y7
	VFMADD231PD Y5, Y7, Y15             // s += cv·y

	ADDQ $4, R8
	JMP einner

etail:
	CMPQ R8, vx_len+152(FP)
	JGE eusum
	VMOVUPD tmask-32(SP), Y9

	VMASKMOVPD (SI)(R8*8), Y9, Y0
	VSUBPD Y0, Y12, Y0
	VMASKMOVPD (DI)(R8*8), Y9, Y1
	VSUBPD Y1, Y13, Y1
	VMASKMOVPD (R10)(R8*8), Y9, Y2
	VSUBPD Y2, Y14, Y2
	VMULPD Y0, Y0, Y3
	VFMADD231PD Y1, Y1, Y3
	VFMADD231PD Y2, Y2, Y3
	VMASKMOVPD (R12)(R8*8), Y9, Y4
	VMULPD Y4, Y11, Y4
	VMASKMOVPD (R13)(R8*8), Y9, Y5
	VMULPD Y5, Y10, Y5
	VMULPD Y3, Y5, Y5
	VMAXPD f64x4Clamp<>(SB), Y5, Y5
	VMULPD f64x4InvLn2<>(SB), Y5, Y6
	VROUNDPD $0, Y6, Y6
	VMOVAPD Y5, Y7
	VFNMADD231PD f64x4Ln2<>(SB), Y6, Y7
	VMOVUPD f64x4C6<>(SB), Y8
	VFMADD213PD f64x4C5<>(SB), Y7, Y8
	VFMADD213PD f64x4C4<>(SB), Y7, Y8
	VFMADD213PD f64x4C3<>(SB), Y7, Y8
	VFMADD213PD f64x4Half<>(SB), Y7, Y8
	VFMADD213PD f64x4One<>(SB), Y7, Y8
	VFMADD213PD f64x4One<>(SB), Y7, Y8
	VCVTTPD2DQY Y6, X6
	VPMOVSXDQ X6, Y6
	VPADDQ f64x4Bias<>(SB), Y6, Y6
	VPSLLQ $52, Y6, Y6
	VMULPD Y6, Y8, Y8
	VFMADD231PD Y8, Y4, Y3
	VMOVUPD f64x4One<>(SB), Y8
	VBLENDVPD Y9, Y3, Y8, Y3            // masked-off lanes: f² := 1
	VCVTPD2PSY Y3, X5
	VRSQRTPS X5, X5
	VCVTPS2PD X5, Y5
	VMULPD f64x4Half<>(SB), Y3, Y6
	VMULPD Y5, Y5, Y7
	VMOVUPD f64x4OneHalf<>(SB), Y8
	VFNMADD231PD Y7, Y6, Y8
	VMULPD Y8, Y5, Y5
	VMULPD Y5, Y5, Y7
	VMOVUPD f64x4OneHalf<>(SB), Y8
	VFNMADD231PD Y7, Y6, Y8
	VMULPD Y8, Y5, Y5
	VMASKMOVPD (R11)(R8*8), Y9, Y7
	VFMADD231PD Y5, Y7, Y15

eusum:
	VEXTRACTF128 $1, Y15, X0
	VADDPD X0, X15, X0
	VHADDPD X0, X0, X0
	VMOVSD (BX), X1
	VMOVSD energy-40(SP), X2
	VFMADD231SD X1, X0, X2              // energy += ch[u]·s
	VMOVSD X2, energy-40(SP)

	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, CX
	ADDQ $8, DX
	DECQ R9
	JNZ eouter

edone:
	VMOVSD energy-40(SP), X0
	VMOVSD X0, ret+288(FP)
	VZEROUPPER
	RET

// EXPNEG4 computes e^x on the four lanes of Y5 (x ≤ 0) into Y8,
// clobbering Y5–Y7: the operation sequence of mathx.ExpNeg, one vector
// instruction per scalar step, constants from ·expNegTab (simd_amd64.go:
// row i is mathx.ExpNegConsts[i] on all four lanes). x is VMAXPD's
// second Intel source, so a NaN lane propagates instead of clamping.
#define EXPNEG4 \
	VMOVUPD ·expNegTab+0(SB), Y6 \
	VMAXPD Y5, Y6, Y5 \
	VMULPD ·expNegTab+32(SB), Y5, Y6 \
	VROUNDPD $0, Y6, Y6 \
	VFMADD231PD ·expNegTab+64(SB), Y6, Y5 \
	VFMADD231PD ·expNegTab+96(SB), Y6, Y5 \
	VMOVUPD ·expNegTab+128(SB), Y8 \
	VFMADD213PD ·expNegTab+160(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+192(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+224(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+256(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+288(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+320(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+352(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+384(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+416(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+448(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+480(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+512(SB), Y5, Y8 \
	VFMADD213PD ·expNegTab+544(SB), Y5, Y8 \
	VCVTPD2DQY Y6, X6 \
	VPSRAD $1, X6, X7 \
	VPSUBD X7, X6, X6 \
	VPMOVSXDQ X7, Y7 \
	VPADDQ f64x4Bias<>(SB), Y7, Y7 \
	VPSLLQ $52, Y7, Y7 \
	VMULPD Y7, Y8, Y8 \
	VPMOVSXDQ X6, Y6 \
	VPADDQ f64x4Bias<>(SB), Y6, Y6 \
	VPSLLQ $52, Y6, Y6 \
	VMULPD Y6, Y8, Y8

// func expNeg4(dst, src []float64)
//
// dst[i] = EXPNEG4(src[i]) over len(src)/4 whole blocks: the test hook
// that pins the macro to mathx.ExpNeg bit for bit.
TEXT ·expNeg4(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ xdone

xloop:
	VMOVUPD (SI), Y5
	EXPNEG4
	VMOVUPD Y8, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ xloop

xdone:
	VZEROUPPER
	RET

// EXACTPAIR4 turns the loaded lanes Y0/Y1/Y2 = stream x/y/z, Y4 = stream
// radius, Y5 = stream reciprocal radius into Y3 = f² and leaves nothing
// else live: r² = (dx² + dy²) + dz² and f² = r² + rr·e are the portable
// loop's unfused operations in its order.
#define EXACTPAIR4 \
	VSUBPD Y0, Y12, Y0 \
	VSUBPD Y1, Y13, Y1 \
	VSUBPD Y2, Y14, Y2 \
	VMULPD Y0, Y0, Y3 \
	VMULPD Y1, Y1, Y1 \
	VADDPD Y1, Y3, Y3 \
	VMULPD Y2, Y2, Y2 \
	VADDPD Y2, Y3, Y3 \
	VMULPD Y4, Y11, Y4 \
	VMULPD Y3, Y10, Y0 \
	VMULPD Y5, Y0, Y5 \
	EXPNEG4 \
	VMULPD Y8, Y4, Y4 \
	VADDPD Y4, Y3, Y3

// func epolStreamExact4(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64
//
// epolStreamLanes4's sum in the exact tier's arithmetic: the exponent is
// ((r²·(−0.25·irad[u]))·irv[j]), e = EXPNEG4, and each term is
// cv[j] / √f² by VSQRTPD and VDIVPD. Registers as in epolStreamLanes4.
TEXT ·epolStreamExact4(SB), NOSPLIT, $48-296
	// nfull = n &^ 3; tmask = mask4[n&3]
	MOVQ vx_len+152(FP), R8
	MOVQ R8, R9
	ANDQ $3, R9
	SUBQ R9, R8
	MOVQ R8, nfull-48(SP)
	SHLQ $5, R9
	LEAQ mask4<>(SB), R8
	VMOVUPD (R8)(R9*1), Y0
	VMOVUPD Y0, tmask-32(SP)

	MOVQ ax_base+0(FP), R14
	MOVQ ax_len+8(FP), R9
	MOVQ ay_base+24(FP), R15
	MOVQ az_base+48(FP), AX
	MOVQ ch_base+72(FP), BX
	MOVQ rad_base+96(FP), CX
	MOVQ irad_base+120(FP), DX
	MOVQ vx_base+144(FP), SI
	MOVQ vy_base+168(FP), DI
	MOVQ vz_base+192(FP), R10
	MOVQ cv_base+216(FP), R11
	MOVQ rv_base+240(FP), R12
	MOVQ irv_base+264(FP), R13

	VXORPD X0, X0, X0
	VMOVSD X0, energy-40(SP)
	TESTQ R9, R9
	JZ pdone

pouter:
	VBROADCASTSD (R14), Y12
	VBROADCASTSD (R15), Y13
	VBROADCASTSD (AX), Y14
	VBROADCASTSD (CX), Y11
	VBROADCASTSD (DX), Y10
	VMULPD f64x4NegQuarter<>(SB), Y10, Y10
	VXORPD Y15, Y15, Y15
	XORQ R8, R8

pinner:
	CMPQ R8, nfull-48(SP)
	JGE ptail

	VMOVUPD (SI)(R8*8), Y0
	VMOVUPD (DI)(R8*8), Y1
	VMOVUPD (R10)(R8*8), Y2
	VMOVUPD (R12)(R8*8), Y4
	VMOVUPD (R13)(R8*8), Y5
	EXACTPAIR4
	VSQRTPD Y3, Y3
	VMOVUPD (R11)(R8*8), Y7
	VDIVPD Y3, Y7, Y7                   // cv / √f²
	VADDPD Y7, Y15, Y15

	ADDQ $4, R8
	JMP pinner

ptail:
	CMPQ R8, vx_len+152(FP)
	JGE pusum
	VMOVUPD tmask-32(SP), Y9

	VMASKMOVPD (SI)(R8*8), Y9, Y0
	VMASKMOVPD (DI)(R8*8), Y9, Y1
	VMASKMOVPD (R10)(R8*8), Y9, Y2
	VMASKMOVPD (R12)(R8*8), Y9, Y4
	VMASKMOVPD (R13)(R8*8), Y9, Y5
	EXACTPAIR4
	VMOVUPD f64x4One<>(SB), Y8
	VBLENDVPD Y9, Y3, Y8, Y3            // masked-off lanes: f² := 1
	VSQRTPD Y3, Y3
	VMASKMOVPD (R11)(R8*8), Y9, Y7
	VDIVPD Y3, Y7, Y7
	VADDPD Y7, Y15, Y15

pusum:
	VEXTRACTF128 $1, Y15, X0
	VADDPD X0, X15, X0
	VHADDPD X0, X0, X0
	VMULSD (BX), X0, X0
	VADDSD energy-40(SP), X0, X0        // energy += ch[u]·s
	VMOVSD X0, energy-40(SP)

	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, CX
	ADDQ $8, DX
	DECQ R9
	JNZ pouter

pdone:
	VMOVSD energy-40(SP), X0
	VMOVSD X0, ret+288(FP)
	VZEROUPPER
	RET

// EXPNEG8 is EXPNEG4 on the eight lanes of zmm x (x ≤ 0) into e, with k as
// scratch and x clobbered: the same operation sequence through the
// polynomial — VRNDSCALEPD $0 in place of VROUNDPD $0 (both round to
// nearest even), the table's constants broadcast from its first lane — and
// one VSCALEFPD for the scaling, e = p·2^k rounded once. EXPNEG4 multiplies
// by 2^⌊k/2⌋, then by 2^(k−⌊k/2⌋); the clamp keeps k ≥ −1077, so the first
// product is exact and normal and the second rounds p·2^k once, as
// VSCALEFPD does — the same float64, subnormal results included. A NaN x
// gives p's NaN either way. x is VMAXPD's second Intel source, as in
// EXPNEG4.
#define EXPNEG8(x, k, e) \
	VBROADCASTSD ·expNegTab+0(SB), k \
	VMAXPD x, k, x \
	VMULPD.BCST ·expNegTab+32(SB), x, k \
	VRNDSCALEPD $0, k, k \
	VFMADD231PD.BCST ·expNegTab+64(SB), k, x \
	VFMADD231PD.BCST ·expNegTab+96(SB), k, x \
	VBROADCASTSD ·expNegTab+128(SB), e \
	VFMADD213PD.BCST ·expNegTab+160(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+192(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+224(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+256(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+288(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+320(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+352(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+384(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+416(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+448(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+480(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+512(SB), x, e \
	VFMADD213PD.BCST ·expNegTab+544(SB), x, e \
	VSCALEFPD k, e, e

// func expNeg8(dst, src []float64)
//
// dst[i] = EXPNEG8(src[i]) over len(src)/8 whole blocks: the test hook
// that pins the macro to mathx.ExpNeg bit for bit.
TEXT ·expNeg8(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	JZ x8done

x8loop:
	VMOVUPD (SI), Z5
	EXPNEG8(Z5, Z6, Z8)
	VMOVUPD Z8, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ x8loop

x8done:
	VZEROUPPER
	RET

// EXACTPAIR8 is EXACTPAIR4 on eight lanes: the loaded zmm lanes x, y, z =
// stream position, rv = stream radius, irv = stream reciprocal radius
// become f = f² under the outer atom in Z10–Z14 (laid out as Y10–Y14 in
// epolStreamExact4), through the same unfused operations in the same order.
#define EXACTPAIR8(x, y, z, f, rv, irv, k, e) \
	VSUBPD x, Z12, x \
	VSUBPD y, Z13, y \
	VSUBPD z, Z14, z \
	VMULPD x, x, f \
	VMULPD y, y, y \
	VADDPD y, f, f \
	VMULPD z, z, z \
	VADDPD z, f, f \
	VMULPD rv, Z11, rv \
	VMULPD f, Z10, x \
	VMULPD irv, x, irv \
	EXPNEG8(irv, k, e) \
	VMULPD e, rv, rv \
	VADDPD rv, f, f

// ADDHALVES8 adds the eight terms of zmm v to the four-lane partial sums
// in the low half of Z15: lanes 0–3 first, then 4–7 moved down through
// tmp (tmpy its low half), as epolStreamExact4 adds two consecutive blocks
// of four. Lanes 4–7 of Z15 collect junk that is never read.
#define ADDHALVES8(v, tmp, tmpy) \
	VADDPD v, Z15, Z15 \
	VEXTRACTF64X4 $1, v, tmpy \
	VADDPD tmp, Z15, Z15

// func epolStreamExact8(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64
//
// epolStreamExact4 on AVX-512F: each loop trip evaluates two independent
// blocks of eight stream terms of one outer atom — A in Z0–Z8, B in
// Z16–Z24 — so the two chains' square roots and divides overlap. The sum of
// every outer atom is formed in epolStreamExact4's order, so the two
// kernels return the same bits: each block of eight enters the four-lane
// partials as two blocks of four (ADDHALVES8), a remainder of eight runs
// once unmasked, and the last n mod 8 terms run as one block under the
// opmask K1, zero-masked loads standing in for VMASKMOVPD and f² parked at
// 1 on the off lanes, whose upper half is added only when more than four
// terms remain — where epolStreamExact4's masked tail would begin. The
// reduction and the energy update are epolStreamExact4's.
//
// Registers as in epolStreamExact4, widened to zmm; K1 = tail mask, live
// for the whole call.
TEXT ·epolStreamExact8(SB), NOSPLIT, $32-296
	// n16 = n &^ 15; n8 = n &^ 7; rem = n & 7; K1 = (1 << rem) − 1
	MOVQ vx_len+152(FP), R8
	MOVQ R8, R9
	ANDQ $-16, R9
	MOVQ R9, n16-8(SP)
	MOVQ R8, R9
	ANDQ $-8, R9
	MOVQ R9, n8-16(SP)
	ANDQ $7, R8
	MOVQ R8, rem-24(SP)
	MOVQ R8, CX
	MOVQ $1, R9
	SHLQ CX, R9
	DECQ R9
	KMOVW R9, K1

	MOVQ ax_base+0(FP), R14
	MOVQ ax_len+8(FP), R9
	MOVQ ay_base+24(FP), R15
	MOVQ az_base+48(FP), AX
	MOVQ ch_base+72(FP), BX
	MOVQ rad_base+96(FP), CX
	MOVQ irad_base+120(FP), DX
	MOVQ vx_base+144(FP), SI
	MOVQ vy_base+168(FP), DI
	MOVQ vz_base+192(FP), R10
	MOVQ cv_base+216(FP), R11
	MOVQ rv_base+240(FP), R12
	MOVQ irv_base+264(FP), R13

	VXORPD X0, X0, X0
	VMOVSD X0, energy-32(SP)
	TESTQ R9, R9
	JZ qdone

qouter:
	VBROADCASTSD (R14), Z12
	VBROADCASTSD (R15), Z13
	VBROADCASTSD (AX), Z14
	VBROADCASTSD (CX), Z11
	VBROADCASTSD (DX), Z10
	VMULPD.BCST f64x4NegQuarter<>(SB), Z10, Z10
	VXORPD Y15, Y15, Y15
	XORQ R8, R8

qtrip:
	CMPQ R8, n16-8(SP)
	JGE qblock

	VMOVUPD (SI)(R8*8), Z0
	VMOVUPD (DI)(R8*8), Z1
	VMOVUPD (R10)(R8*8), Z2
	VMOVUPD (R12)(R8*8), Z4
	VMOVUPD (R13)(R8*8), Z5
	VMOVUPD 64(SI)(R8*8), Z16
	VMOVUPD 64(DI)(R8*8), Z17
	VMOVUPD 64(R10)(R8*8), Z18
	VMOVUPD 64(R12)(R8*8), Z20
	VMOVUPD 64(R13)(R8*8), Z21
	EXACTPAIR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z8)
	EXACTPAIR8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z24)
	VSQRTPD Z3, Z3
	VSQRTPD Z19, Z19
	VMOVUPD (R11)(R8*8), Z7
	VDIVPD Z3, Z7, Z7                   // cv / √f², block A
	VMOVUPD 64(R11)(R8*8), Z23
	VDIVPD Z19, Z23, Z23                // block B
	ADDHALVES8(Z7, Z6, Y6)
	ADDHALVES8(Z23, Z22, Y22)

	ADDQ $16, R8
	JMP qtrip

qblock:
	CMPQ R8, n8-16(SP)
	JGE qtail

	VMOVUPD (SI)(R8*8), Z0
	VMOVUPD (DI)(R8*8), Z1
	VMOVUPD (R10)(R8*8), Z2
	VMOVUPD (R12)(R8*8), Z4
	VMOVUPD (R13)(R8*8), Z5
	EXACTPAIR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z8)
	VSQRTPD Z3, Z3
	VMOVUPD (R11)(R8*8), Z7
	VDIVPD Z3, Z7, Z7
	ADDHALVES8(Z7, Z6, Y6)
	ADDQ $8, R8

qtail:
	CMPQ R8, vx_len+152(FP)
	JGE qusum

	VMOVUPD.Z (SI)(R8*8), K1, Z0
	VMOVUPD.Z (DI)(R8*8), K1, Z1
	VMOVUPD.Z (R10)(R8*8), K1, Z2
	VMOVUPD.Z (R12)(R8*8), K1, Z4
	VMOVUPD.Z (R13)(R8*8), K1, Z5
	EXACTPAIR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z8)
	VBROADCASTSD f64x4One<>(SB), Z8
	VBLENDMPD Z3, Z8, K1, Z3            // off lanes: f² := 1
	VSQRTPD Z3, Z3
	VMOVUPD.Z (R11)(R8*8), K1, Z7
	VDIVPD Z3, Z7, Z7
	VADDPD Z7, Z15, Z15
	CMPQ rem-24(SP), $4
	JLE qusum
	VEXTRACTF64X4 $1, Z7, Y6
	VADDPD Z6, Z15, Z15

qusum:
	VEXTRACTF128 $1, Y15, X0
	VADDPD X0, X15, X0
	VHADDPD X0, X0, X0
	VMULSD (BX), X0, X0
	VADDSD energy-32(SP), X0, X0        // energy += ch[u]·s
	VMOVSD X0, energy-32(SP)

	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, CX
	ADDQ $8, DX
	DECQ R9
	JNZ qouter

qdone:
	VMOVSD energy-32(SP), X0
	VMOVSD X0, ret+288(FP)
	VZEROUPPER
	RET

// LANESPAIR8 is epolStreamLanes4's term up to f² on eight lanes: the loaded
// zmm lanes x, y, z = stream position, rv = stream radius, irv = stream
// reciprocal radius become f = f² under the outer atom in Z10–Z14, with k
// and p as scratch and x, y, z, rv, irv clobbered — the same operations in
// the same order and operand order: FMA-contracted r², the clamp as
// VMAXPD's second source, VRNDSCALEPD $0 for VROUNDPD $0, the same
// reduction and Horner chain, and VSCALEFPD for the multiply by the
// integer-built 2^k. The clamp keeps k ≥ −1010, so p·2^k is normal and
// exact either way.
#define LANESPAIR8(x, y, z, f, rv, irv, k, p) \
	VSUBPD x, Z12, x \
	VSUBPD y, Z13, y \
	VSUBPD z, Z14, z \
	VMULPD x, x, f \
	VFMADD231PD y, y, f \
	VFMADD231PD z, z, f \
	VMULPD rv, Z11, rv \
	VMULPD irv, Z10, irv \
	VMULPD f, irv, irv \
	VMAXPD.BCST f64x4Clamp<>(SB), irv, irv \
	VMULPD.BCST f64x4InvLn2<>(SB), irv, k \
	VRNDSCALEPD $0, k, k \
	VFNMADD231PD.BCST f64x4Ln2<>(SB), k, irv \
	VBROADCASTSD f64x4C6<>(SB), p \
	VFMADD213PD.BCST f64x4C5<>(SB), irv, p \
	VFMADD213PD.BCST f64x4C4<>(SB), irv, p \
	VFMADD213PD.BCST f64x4C3<>(SB), irv, p \
	VFMADD213PD.BCST f64x4Half<>(SB), irv, p \
	VFMADD213PD.BCST f64x4One<>(SB), irv, p \
	VFMADD213PD.BCST f64x4One<>(SB), irv, p \
	VSCALEFPD k, p, p \
	VFMADD231PD p, rv, f

// LANESRSQRT8 is epolStreamLanes4's 1/√f² on eight lanes: the seed from
// VRSQRTPS on f² rounded to float32, then the same two Newton steps, into
// zmm y, with h and t as scratch — 1.5 − h·y² is one fused negated
// multiply-add in both, its constant here a broadcast operand instead of a
// register. VRSQRTPS has only a VEX encoding, so the seed passes through lo,
// a ymm register among Y0–Y15; VRSQRT14PD would give another estimate and
// other bits.
#define LANESRSQRT8(f, lo, y, h, t) \
	VCVTPD2PS f, lo \
	VRSQRTPS lo, lo \
	VCVTPS2PD lo, y \
	VMULPD.BCST f64x4Half<>(SB), f, h \
	VMULPD y, y, t \
	VFNMADD213PD.BCST f64x4OneHalf<>(SB), h, t \
	VMULPD t, y, y \
	VMULPD y, y, t \
	VFNMADD213PD.BCST f64x4OneHalf<>(SB), h, t \
	VMULPD t, y, y

// FMAHALVES8 fuses s += cv·y for the eight lanes of zmm y and cv into the
// four-lane partial sums in the low half of Z15: lanes 0–3 first, then 4–7
// moved down into yhi and cvhi, as epolStreamLanes4 adds two consecutive
// blocks of four. Lanes 4–7 of Z15 collect junk that is never read.
#define FMAHALVES8(y, cv, yhi, yhiy, cvhi, cvhiy) \
	VFMADD231PD y, cv, Z15 \
	VEXTRACTF64X4 $1, y, yhiy \
	VEXTRACTF64X4 $1, cv, cvhiy \
	VFMADD231PD yhi, cvhi, Z15

// func epolStreamLanes8(ax, ay, az, ch, rad, irad, vx, vy, vz, cv, rv, irv []float64) float64
//
// epolStreamLanes4 on AVX-512F, returning its float64 on every input, as
// epolStreamExact8 does epolStreamExact4's: each loop trip evaluates two
// independent blocks of eight stream terms of one outer atom — A in Z0–Z8,
// B in Z16–Z24, with Z9 the low register B's seed passes through — every
// lane by epolStreamLanes4's operations in its order (LANESPAIR8,
// LANESRSQRT8). Each block of eight enters the four-lane partials as two
// blocks of four (FMAHALVES8), A before B; a remainder of eight runs once
// unmasked, and the last n mod 8 terms run as one block under the opmask K1,
// zero-masked loads standing in for VMASKMOVPD and f² parked at 1 on the
// off lanes, whose upper half is added only when more than four terms
// remain. The reduction and the energy update are epolStreamLanes4's.
//
// Registers as in epolStreamExact8; K1 = tail mask, live for the whole
// call.
TEXT ·epolStreamLanes8(SB), NOSPLIT, $32-296
	// n16 = n &^ 15; n8 = n &^ 7; rem = n & 7; K1 = (1 << rem) − 1
	MOVQ vx_len+152(FP), R8
	MOVQ R8, R9
	ANDQ $-16, R9
	MOVQ R9, n16-8(SP)
	MOVQ R8, R9
	ANDQ $-8, R9
	MOVQ R9, n8-16(SP)
	ANDQ $7, R8
	MOVQ R8, rem-24(SP)
	MOVQ R8, CX
	MOVQ $1, R9
	SHLQ CX, R9
	DECQ R9
	KMOVW R9, K1

	MOVQ ax_base+0(FP), R14
	MOVQ ax_len+8(FP), R9
	MOVQ ay_base+24(FP), R15
	MOVQ az_base+48(FP), AX
	MOVQ ch_base+72(FP), BX
	MOVQ rad_base+96(FP), CX
	MOVQ irad_base+120(FP), DX
	MOVQ vx_base+144(FP), SI
	MOVQ vy_base+168(FP), DI
	MOVQ vz_base+192(FP), R10
	MOVQ cv_base+216(FP), R11
	MOVQ rv_base+240(FP), R12
	MOVQ irv_base+264(FP), R13

	VXORPD X0, X0, X0
	VMOVSD X0, energy-32(SP)
	TESTQ R9, R9
	JZ ldone

louter:
	VBROADCASTSD (R14), Z12
	VBROADCASTSD (R15), Z13
	VBROADCASTSD (AX), Z14
	VBROADCASTSD (CX), Z11
	VBROADCASTSD (DX), Z10
	VMULPD.BCST f64x4NegQuarter<>(SB), Z10, Z10
	VXORPD Y15, Y15, Y15
	XORQ R8, R8

ltrip:
	CMPQ R8, n16-8(SP)
	JGE lblock

	VMOVUPD (SI)(R8*8), Z0
	VMOVUPD (DI)(R8*8), Z1
	VMOVUPD (R10)(R8*8), Z2
	VMOVUPD (R12)(R8*8), Z4
	VMOVUPD (R13)(R8*8), Z5
	VMOVUPD 64(SI)(R8*8), Z16
	VMOVUPD 64(DI)(R8*8), Z17
	VMOVUPD 64(R10)(R8*8), Z18
	VMOVUPD 64(R12)(R8*8), Z20
	VMOVUPD 64(R13)(R8*8), Z21
	LANESPAIR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z8)
	LANESPAIR8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z24)
	LANESRSQRT8(Z3, Y5, Z5, Z6, Z7)
	LANESRSQRT8(Z19, Y9, Z21, Z22, Z23)
	VMOVUPD (R11)(R8*8), Z7
	VMOVUPD 64(R11)(R8*8), Z23
	FMAHALVES8(Z5, Z7, Z6, Y6, Z8, Y8)       // block A
	FMAHALVES8(Z21, Z23, Z22, Y22, Z24, Y24) // block B

	ADDQ $16, R8
	JMP ltrip

lblock:
	CMPQ R8, n8-16(SP)
	JGE ltail

	VMOVUPD (SI)(R8*8), Z0
	VMOVUPD (DI)(R8*8), Z1
	VMOVUPD (R10)(R8*8), Z2
	VMOVUPD (R12)(R8*8), Z4
	VMOVUPD (R13)(R8*8), Z5
	LANESPAIR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z8)
	LANESRSQRT8(Z3, Y5, Z5, Z6, Z7)
	VMOVUPD (R11)(R8*8), Z7
	FMAHALVES8(Z5, Z7, Z6, Y6, Z8, Y8)
	ADDQ $8, R8

ltail:
	CMPQ R8, vx_len+152(FP)
	JGE lusum

	VMOVUPD.Z (SI)(R8*8), K1, Z0
	VMOVUPD.Z (DI)(R8*8), K1, Z1
	VMOVUPD.Z (R10)(R8*8), K1, Z2
	VMOVUPD.Z (R12)(R8*8), K1, Z4
	VMOVUPD.Z (R13)(R8*8), K1, Z5
	LANESPAIR8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z8)
	VBROADCASTSD f64x4One<>(SB), Z8
	VBLENDMPD Z3, Z8, K1, Z3            // off lanes: f² := 1
	LANESRSQRT8(Z3, Y5, Z5, Z6, Z7)
	VMOVUPD.Z (R11)(R8*8), K1, Z7
	VFMADD231PD Z5, Z7, Z15
	CMPQ rem-24(SP), $4
	JLE lusum
	VEXTRACTF64X4 $1, Z5, Y6
	VEXTRACTF64X4 $1, Z7, Y8
	VFMADD231PD Z6, Z8, Z15

lusum:
	VEXTRACTF128 $1, Y15, X0
	VADDPD X0, X15, X0
	VHADDPD X0, X0, X0
	VMOVSD (BX), X1
	VMOVSD energy-32(SP), X2
	VFMADD231SD X1, X0, X2              // energy += ch[u]·s
	VMOVSD X2, energy-32(SP)

	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, CX
	ADDQ $8, DX
	DECQ R9
	JNZ louter

ldone:
	VMOVSD energy-32(SP), X0
	VMOVSD X0, ret+288(FP)
	VZEROUPPER
	RET

// func bornNearRow4(near, lo, hi []int32, ax, ay, az, atom, qx, qy, qz, wx, wy, wz []float64) int
//
// The Born near sweep of one row (bornNear, kernels.go) with the row's
// near atoms as the lanes: for every leaf e of near, in order, and every
// slot a of its range [lo[e], hi[e]), in chunks of four slots, atom[a] +=
// s_a with s_a = Σ_j t_aj over the row's q-points j in index order, t_aj =
// ((wx·dx + wy·dy) + wz·dz) / ((r²·r²)·r²), dx = qx − ax (dy, dz alike),
// r² = (dx·dx + dy·dy) + dz·dz — separate multiplies and adds in the scalar
// loop's order, no FMA, an IEEE divide — and t_aj := +0 where r² = 0, the
// term the scalar loop skips: s_a starts at +0, so adding +0 changes no
// bit. A chunk's lanes past hi[e] are masked off on every load and store
// (VMASKMOVPD), so nothing outside the ranges is read or written. It
// returns the number of atoms swept.
//
// Registers — R8/R9/R10 = ax/ay/az, DI = atom, R11–R15/BX = qx, qy, qz,
// wx, wy, wz; SI = the chunk's first slot, CX = hi[e], DX = j; the near
// cursor, its end and the atom count live on the stack. Y9 = the chunk's
// lane mask, Y10–Y12 = its atoms' x, y, z, Y13 = s, Y15 = 0 for the r²
// compare.
TEXT ·bornNearRow4(SB), NOSPLIT, $24-320
	MOVQ near_base+0(FP), AX
	MOVQ AX, cur-8(SP)
	MOVQ near_len+8(FP), CX
	LEAQ (AX)(CX*4), AX
	MOVQ AX, end-16(SP)
	MOVQ $0, atoms-24(SP)
	MOVQ ax_base+72(FP), R8
	MOVQ ay_base+96(FP), R9
	MOVQ az_base+120(FP), R10
	MOVQ atom_base+144(FP), DI
	MOVQ qx_base+168(FP), R11
	MOVQ qy_base+192(FP), R12
	MOVQ qz_base+216(FP), R13
	MOVQ wx_base+240(FP), R14
	MOVQ wy_base+264(FP), R15
	MOVQ wz_base+288(FP), BX
	VXORPD Y15, Y15, Y15

brleaf:
	MOVQ cur-8(SP), AX
	CMPQ AX, end-16(SP)
	JGE brdone
	MOVLQSX (AX), DX                    // e
	ADDQ $4, AX
	MOVQ AX, cur-8(SP)
	MOVQ lo_base+24(FP), AX
	MOVLQSX (AX)(DX*4), SI              // lo[e]
	MOVQ hi_base+48(FP), AX
	MOVLQSX (AX)(DX*4), CX              // hi[e]
	MOVQ CX, AX
	SUBQ SI, AX
	ADDQ AX, atoms-24(SP)

brchunk:
	CMPQ SI, CX
	JGE brleaf
	MOVQ CX, AX
	SUBQ SI, AX                         // slots left
	MOVQ $4, DX
	CMPQ AX, DX
	CMOVQGT DX, AX                      // lanes = min(left, 4)
	SHLQ $5, AX
	LEAQ mask4<>(SB), DX
	VMOVUPD (DX)(AX*1), Y9
	VMASKMOVPD (R8)(SI*8), Y9, Y10
	VMASKMOVPD (R9)(SI*8), Y9, Y11
	VMASKMOVPD (R10)(SI*8), Y9, Y12
	VXORPD Y13, Y13, Y13
	XORQ DX, DX

brq:
	CMPQ DX, qx_len+176(FP)
	JGE brstore
	VBROADCASTSD (R11)(DX*8), Y0
	VSUBPD Y10, Y0, Y0                  // dx = qx − ax
	VBROADCASTSD (R12)(DX*8), Y1
	VSUBPD Y11, Y1, Y1                  // dy
	VBROADCASTSD (R13)(DX*8), Y2
	VSUBPD Y12, Y2, Y2                  // dz
	VMULPD Y0, Y0, Y3                   // dx·dx
	VMULPD Y1, Y1, Y4                   // dy·dy
	VADDPD Y4, Y3, Y3
	VMULPD Y2, Y2, Y4                   // dz·dz
	VADDPD Y4, Y3, Y3                   // r²
	VBROADCASTSD (R14)(DX*8), Y4
	VMULPD Y0, Y4, Y4                   // wx·dx
	VBROADCASTSD (R15)(DX*8), Y5
	VMULPD Y1, Y5, Y5                   // wy·dy
	VADDPD Y5, Y4, Y4
	VBROADCASTSD (BX)(DX*8), Y5
	VMULPD Y2, Y5, Y5                   // wz·dz
	VADDPD Y5, Y4, Y4                   // w·d
	VMULPD Y3, Y3, Y5                   // r²·r²
	VMULPD Y3, Y5, Y5                   // ·r²
	VDIVPD Y5, Y4, Y4                   // t = w·d / r²³
	VCMPPD $4, Y15, Y3, Y6              // r² ≠ 0 (a NaN r² keeps its term)
	VANDPD Y6, Y4, Y4
	VADDPD Y4, Y13, Y13                 // s += t
	INCQ DX
	JMP brq

brstore:
	VMASKMOVPD (DI)(SI*8), Y9, Y0
	VADDPD Y13, Y0, Y0                  // atom[a] += s
	VMASKMOVPD Y0, Y9, (DI)(SI*8)
	ADDQ $4, SI
	JMP brchunk

brdone:
	MOVQ atoms-24(SP), AX
	MOVQ AX, ret+312(FP)
	VZEROUPPER
	RET

// lanes4<>[m] enables the f64 lanes of the bits of m (rows 0..15, 32 B
// each): the Born far sweep's lane masks, four lanes a row.
DATA lanes4<>+0(SB)/8, $0
DATA lanes4<>+8(SB)/8, $0
DATA lanes4<>+16(SB)/8, $0
DATA lanes4<>+24(SB)/8, $0
DATA lanes4<>+32(SB)/8, $-1
DATA lanes4<>+40(SB)/8, $0
DATA lanes4<>+48(SB)/8, $0
DATA lanes4<>+56(SB)/8, $0
DATA lanes4<>+64(SB)/8, $0
DATA lanes4<>+72(SB)/8, $-1
DATA lanes4<>+80(SB)/8, $0
DATA lanes4<>+88(SB)/8, $0
DATA lanes4<>+96(SB)/8, $-1
DATA lanes4<>+104(SB)/8, $-1
DATA lanes4<>+112(SB)/8, $0
DATA lanes4<>+120(SB)/8, $0
DATA lanes4<>+128(SB)/8, $0
DATA lanes4<>+136(SB)/8, $0
DATA lanes4<>+144(SB)/8, $-1
DATA lanes4<>+152(SB)/8, $0
DATA lanes4<>+160(SB)/8, $-1
DATA lanes4<>+168(SB)/8, $0
DATA lanes4<>+176(SB)/8, $-1
DATA lanes4<>+184(SB)/8, $0
DATA lanes4<>+192(SB)/8, $0
DATA lanes4<>+200(SB)/8, $-1
DATA lanes4<>+208(SB)/8, $-1
DATA lanes4<>+216(SB)/8, $0
DATA lanes4<>+224(SB)/8, $-1
DATA lanes4<>+232(SB)/8, $-1
DATA lanes4<>+240(SB)/8, $-1
DATA lanes4<>+248(SB)/8, $0
DATA lanes4<>+256(SB)/8, $0
DATA lanes4<>+264(SB)/8, $0
DATA lanes4<>+272(SB)/8, $0
DATA lanes4<>+280(SB)/8, $-1
DATA lanes4<>+288(SB)/8, $-1
DATA lanes4<>+296(SB)/8, $0
DATA lanes4<>+304(SB)/8, $0
DATA lanes4<>+312(SB)/8, $-1
DATA lanes4<>+320(SB)/8, $0
DATA lanes4<>+328(SB)/8, $-1
DATA lanes4<>+336(SB)/8, $0
DATA lanes4<>+344(SB)/8, $-1
DATA lanes4<>+352(SB)/8, $-1
DATA lanes4<>+360(SB)/8, $-1
DATA lanes4<>+368(SB)/8, $0
DATA lanes4<>+376(SB)/8, $-1
DATA lanes4<>+384(SB)/8, $0
DATA lanes4<>+392(SB)/8, $0
DATA lanes4<>+400(SB)/8, $-1
DATA lanes4<>+408(SB)/8, $-1
DATA lanes4<>+416(SB)/8, $-1
DATA lanes4<>+424(SB)/8, $0
DATA lanes4<>+432(SB)/8, $-1
DATA lanes4<>+440(SB)/8, $-1
DATA lanes4<>+448(SB)/8, $0
DATA lanes4<>+456(SB)/8, $-1
DATA lanes4<>+464(SB)/8, $-1
DATA lanes4<>+472(SB)/8, $-1
DATA lanes4<>+480(SB)/8, $-1
DATA lanes4<>+488(SB)/8, $-1
DATA lanes4<>+496(SB)/8, $-1
DATA lanes4<>+504(SB)/8, $-1
GLOBL lanes4<>(SB), RODATA|NOPTR, $512

DATA f64x4NegZero<>+0(SB)/8, $0x8000000000000000
DATA f64x4NegZero<>+8(SB)/8, $0x8000000000000000
DATA f64x4NegZero<>+16(SB)/8, $0x8000000000000000
DATA f64x4NegZero<>+24(SB)/8, $0x8000000000000000
GLOBL f64x4NegZero<>(SB), RODATA|NOPTR, $32

// func bornFarMasked4(q *bornLanes, lane int, far []int32, masks []uint8, stride int, ax, ay, az, node []float64)
//
// The Born far sweep (bornFarLanes, kernels.go) on the four lanes [lane,
// lane+4) of q: for every node a of far, its center broadcast once, per
// lane dx = x − ax (dy, dz alike), d² = (dx·dx + dy·dy) + dz·dz, den =
// (d²·d²)·d², t = ((wx·dx + wy·dy) + wz·dz) / den — separate multiplies and
// adds in the scalar loop's order, no FMA, an IEEE divide — then every lane
// whose bit of a's mask is clear set to −0.0 (VBLENDVPD: whatever its
// arithmetic gave, a 0/0 included), and the four terms added to node[a] one
// after the other, lane order. x + (−0.0) = x for every x, so a node's sum
// takes exactly the additions of the lanes that take it — and a node none
// of the four lanes takes is skipped. a's mask is
// masks[k·stride] for the k-th node: stride 1 walks an own run's masks,
// stride 0 reads one mask for the whole run. The caller passes lanes 0 and
// then 4, so a node takes all eight in order. bornLanes is six arrays of
// eight float64: x at 0, y at 64, z at 128, wx at 192, wy at 256, wz at 320.
//
// Registers — AX = q + 8·lane, SI = far cursor, R14 = nodes left, R8/R9/
// R10 = ax/ay/az, DI = node, DX = mask cursor, R12 = stride, CX = lane,
// R13 = lanes4<>; Y0–Y5 = the lanes' x, y, z, wx, wy, wz, Y14 = −0.0; per
// node BX = a, R11 = its mask's row, Y6–Y8 = dx, dy, dz, Y9 = d², Y10 =
// den, Y11 = the terms, Y13 = their lane mask, X12 = node[a].
TEXT ·bornFarMasked4(SB), NOSPLIT, $0-168
	MOVQ q+0(FP), AX
	MOVQ lane+8(FP), CX
	LEAQ (AX)(CX*8), AX
	MOVQ far_base+16(FP), SI
	MOVQ far_len+24(FP), R14
	MOVQ masks_base+40(FP), DX
	MOVQ stride+64(FP), R12
	MOVQ ax_base+72(FP), R8
	MOVQ ay_base+96(FP), R9
	MOVQ az_base+120(FP), R10
	MOVQ node_base+144(FP), DI
	LEAQ lanes4<>(SB), R13
	TESTQ R14, R14
	JZ bfdone

	VMOVUPD 0(AX), Y0
	VMOVUPD 64(AX), Y1
	VMOVUPD 128(AX), Y2
	VMOVUPD 192(AX), Y3
	VMOVUPD 256(AX), Y4
	VMOVUPD 320(AX), Y5
	VMOVUPD f64x4NegZero<>(SB), Y14

bfnode:
	MOVLQSX (SI), BX                    // a
	ADDQ $4, SI
	MOVBQZX (DX), R11                   // a's mask
	ADDQ R12, DX
	SHRQ CX, R11
	ANDQ $15, R11
	JZ bfnext                           // none of the four lanes takes a
	SHLQ $5, R11                        // its row of lanes4<>
	VBROADCASTSD (R8)(BX*8), Y6
	VSUBPD Y6, Y0, Y6                   // dx = x − ax
	VBROADCASTSD (R9)(BX*8), Y7
	VSUBPD Y7, Y1, Y7                   // dy
	VBROADCASTSD (R10)(BX*8), Y8
	VSUBPD Y8, Y2, Y8                   // dz
	VMULPD Y6, Y6, Y9                   // dx·dx
	VMULPD Y7, Y7, Y10                  // dy·dy
	VADDPD Y10, Y9, Y9
	VMULPD Y8, Y8, Y10                  // dz·dz
	VADDPD Y10, Y9, Y9                  // d²
	VMULPD Y9, Y9, Y10                  // d²·d²
	VMULPD Y9, Y10, Y10                 // den
	VMULPD Y6, Y3, Y11                  // wx·dx
	VMULPD Y7, Y4, Y12                  // wy·dy
	VADDPD Y12, Y11, Y11
	VMULPD Y8, Y5, Y12                  // wz·dz
	VADDPD Y12, Y11, Y11                // w·d
	VDIVPD Y10, Y11, Y11                // t = w·d / den
	VMOVUPD (R13)(R11*1), Y13
	VBLENDVPD Y13, Y11, Y14, Y11        // lanes off a's mask: t := −0.0

	VMOVSD (DI)(BX*8), X12
	VADDSD X11, X12, X12                // + t₀
	VPERMILPD $1, X11, X13
	VADDSD X13, X12, X12                // + t₁
	VEXTRACTF128 $1, Y11, X13
	VADDSD X13, X12, X12                // + t₂
	VPERMILPD $1, X13, X13
	VADDSD X13, X12, X12                // + t₃
	VMOVSD X12, (DI)(BX*8)

bfnext:
	DECQ R14
	JNZ bfnode

bfdone:
	VZEROUPPER
	RET

// func gatherBlocks4(dst []float64, stride, n int, src []float64, lo, hi, list []int32, w float64) int
//
// soa.gather (kernels_stream.go) in AVX2: for every entry e of list, the
// block [lo[e], hi[e]) of the blocked source src — field f of its element
// i at 6·lo + f·c + i, c = hi − lo — is appended to the stream dst (field
// f at dst + f·stride) at position n, charges multiplied by w, and the
// new n returned. A span is copied in chunks of four per field: six
// unaligned loads, six unaligned stores, no branch on its length but the
// loop-back taken only when it is longer than four. Lanes past a span's
// end are the next run's (or the source's padding) and land past the
// stream's new end, where the next span overwrites them; an empty span
// copies four dead lanes and advances nothing. The caller owns the
// padding: gatherPad elements behind src and behind every field of dst.
//
// Registers — DI = dst, R8 = stride in bytes, AX = n, SI = src, R9 = lo,
// R10 = hi, R11 = list cursor, CX = entries left; per entry R13 = c then
// elements left, R15 = c in bytes, DX / BX = source fields 0–2 / 3–5,
// R14 / R12 = destination fields 0–2 / 3–5. Y15 = w on four lanes.
TEXT ·gatherBlocks4(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), R8
	MOVQ n+32(FP), AX
	MOVQ src_base+40(FP), SI
	MOVQ lo_base+64(FP), R9
	MOVQ hi_base+88(FP), R10
	MOVQ list_base+112(FP), R11
	MOVQ list_len+120(FP), CX
	VBROADCASTSD w+136(FP), Y15
	SHLQ $3, R8
	TESTQ CX, CX
	JZ gbdone

gbentry:
	MOVLQSX (R11), BX                   // e
	ADDQ $4, R11
	MOVLQSX (R9)(BX*4), DX              // lo[e]
	MOVLQSX (R10)(BX*4), R13            // hi[e]
	SUBQ DX, R13                        // c
	LEAQ (DX)(DX*2), DX
	SHLQ $4, DX
	ADDQ SI, DX                         // src + 6·lo·8: fields 0–2
	LEAQ (R13*8), R15                   // c·8
	LEAQ (R15)(R15*2), BX
	ADDQ DX, BX                         // + 3·c·8: fields 3–5
	LEAQ (DI)(AX*8), R14                // dst + n·8: fields 0–2
	LEAQ (R14)(R8*2), R12
	ADDQ R8, R12                        // + 3·stride: fields 3–5
	ADDQ R13, AX                        // n += c

gbchunk:
	VMOVUPD (DX), Y0
	VMOVUPD (DX)(R15*1), Y1
	VMOVUPD (DX)(R15*2), Y2
	VMULPD (BX), Y15, Y3                // w·q: w is 1 or 2, exact
	VMOVUPD (BX)(R15*1), Y4
	VMOVUPD (BX)(R15*2), Y5
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, (R14)(R8*1)
	VMOVUPD Y2, (R14)(R8*2)
	VMOVUPD Y3, (R12)
	VMOVUPD Y4, (R12)(R8*1)
	VMOVUPD Y5, (R12)(R8*2)
	ADDQ $32, DX
	ADDQ $32, BX
	ADDQ $32, R14
	ADDQ $32, R12
	SUBQ $4, R13
	JG gbchunk

	DECQ CX
	JNZ gbentry

gbdone:
	MOVQ AX, ret+144(FP)
	VZEROUPPER
	RET

// func gatherMasked4(dst *laneStreams, src []float64, lo, hi, list []int32, masks []uint8, w float64, room int) int
//
// laneStreams.gather (kernels_stream.go) in AVX2: for every entry e of list
// — the k-th, its mask masks[k] — the block [lo[e], hi[e]) of the blocked
// source src is appended, charges multiplied by w, to the stream of every
// lane l of the mask — lane l's field f at base[l] + f·stride[l], at
// position n[l] — and n[l] and spans[l] advanced; it stops before the first
// entry a lane of whose mask has no room for (n[l] + c > cap[l]) and returns
// the entries copied. room is the least room of the lanes at the call: until
// the entries' spans sum past it, every entry fits, and the lanes are not
// asked. A span is copied as gatherBlocks4 copies it, in
// chunks of four per field, once for each of its lanes: the block is read
// from memory once and from L1 for the lanes after the first. The caller
// owns the padding, as gatherBlocks4's. laneStreams holds base at 0, stride
// at 64, n at 128, spans at 192 and cap at 256, eight words each.
//
// Registers — DI = dst, R11 = list cursor, R12 = mask cursor, CX = entries
// left, Y15 = w on four lanes; per entry DX = source fields 0–2, R13 = c,
// R15 = c in bytes, AX = its lanes not yet copied; per lane BX = l, then
// elements left, R14 = the lane's stride in bytes, SI / R8 = source fields
// 0–2 / 3–5, R9 / R10 = destination fields 0–2 / 3–5.
TEXT ·gatherMasked4(SB), NOSPLIT, $0-152
	MOVQ dst+0(FP), DI
	MOVQ list_base+80(FP), R11
	MOVQ list_len+88(FP), CX
	MOVQ masks_base+104(FP), R12
	VBROADCASTSD w+128(FP), Y15
	TESTQ CX, CX
	JZ gmdone

gmentry:
	MOVLQSX (R11), BX                   // e
	MOVBQZX (R12), AX                   // its lanes
	MOVQ lo_base+32(FP), SI
	MOVLQSX (SI)(BX*4), DX              // lo[e]
	MOVQ hi_base+56(FP), SI
	MOVLQSX (SI)(BX*4), R13             // hi[e]
	SUBQ DX, R13                        // c
	SUBQ R13, room+136(FP)
	JNS gmcopy                          // the spans so far fit every lane
	MOVQ AX, R8

gmroom:
	TESTQ R8, R8
	JZ gmcopy
	BSFQ R8, BX
	LEAQ -1(R8), R9
	ANDQ R9, R8
	MOVQ 128(DI)(BX*8), R9
	ADDQ R13, R9                        // n[l] + c
	CMPQ R9, 256(DI)(BX*8)
	JLE gmroom
	JMP gmdone                          // lane l has no room: stop before e

gmcopy:
	ADDQ $4, R11
	INCQ R12
	LEAQ (DX)(DX*2), DX
	SHLQ $4, DX
	ADDQ src_base+8(FP), DX             // src + 6·lo·8: fields 0–2
	LEAQ (R13*8), R15                   // c·8
	TESTQ AX, AX
	JZ gmnext

gmlane:
	BSFQ AX, BX                         // l
	LEAQ -1(AX), SI
	ANDQ SI, AX                         // l done
	MOVQ 64(DI)(BX*8), R14
	SHLQ $3, R14                        // stride[l]·8
	MOVQ 128(DI)(BX*8), R9              // n[l]
	LEAQ (R9)(R13*1), R10
	MOVQ R10, 128(DI)(BX*8)             // n[l] += c
	INCQ 192(DI)(BX*8)                  // spans[l]++
	MOVQ 0(DI)(BX*8), R10
	LEAQ (R10)(R9*8), R9                // base[l] + n·8: fields 0–2
	LEAQ (R9)(R14*2), R10
	ADDQ R14, R10                       // + 3·stride: fields 3–5
	MOVQ DX, SI
	LEAQ (R15)(R15*2), R8
	ADDQ DX, R8                         // + 3·c·8: fields 3–5
	MOVQ R13, BX                        // elements left

gmchunk:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R15*1), Y1
	VMOVUPD (SI)(R15*2), Y2
	VMULPD (R8), Y15, Y3                // w·q: w is 1 or 2, exact
	VMOVUPD (R8)(R15*1), Y4
	VMOVUPD (R8)(R15*2), Y5
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, (R9)(R14*1)
	VMOVUPD Y2, (R9)(R14*2)
	VMOVUPD Y3, (R10)
	VMOVUPD Y4, (R10)(R14*1)
	VMOVUPD Y5, (R10)(R14*2)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	SUBQ $4, BX
	JG gmchunk

	TESTQ AX, AX
	JNZ gmlane

gmnext:
	DECQ CX
	JNZ gmentry

gmdone:
	MOVQ R11, AX
	SUBQ list_base+80(FP), AX
	SHRQ $2, AX
	MOVQ AX, ret+144(FP)
	VZEROUPPER
	RET

// func openFar8AVX2(t *rowTile, cx, cy, cz, r, mac float64) uint8
//
// openFar8Lanes (ilist_tile.go) on two vectors of four lanes: per lane
// dx = x − cx (dy, dz alike), d² = (dx·dx + dy·dy) + dz·dz, s = (r + r_lane)·mac,
// far iff d² > s·s — separate multiplies and adds in the scalar test's
// order, no FMA, an ordered compare (a NaN is not far) — and the eight
// verdicts returned as a bit mask, lane 0 lowest. rowTile is four arrays of
// eight float64: x at 0, y at 64, z at 128, r at 192.
//
// Registers — AX = t; Y0–Y2 = the center, Y3 = r, Y4 = mac, broadcast;
// Y5/Y7 = d² of lanes 0–3 / 4–7, Y6/Y8 = their scratch and s².
TEXT ·openFar8AVX2(SB), NOSPLIT, $0-49
	MOVQ t+0(FP), AX
	VBROADCASTSD cx+8(FP), Y0
	VBROADCASTSD cy+16(FP), Y1
	VBROADCASTSD cz+24(FP), Y2
	VBROADCASTSD r+32(FP), Y3
	VBROADCASTSD mac+40(FP), Y4

	VMOVUPD 0(AX), Y5
	VMOVUPD 32(AX), Y7
	VSUBPD Y0, Y5, Y5                   // dx
	VSUBPD Y0, Y7, Y7
	VMULPD Y5, Y5, Y5                   // dx·dx
	VMULPD Y7, Y7, Y7
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y8
	VSUBPD Y1, Y6, Y6                   // dy
	VSUBPD Y1, Y8, Y8
	VMULPD Y6, Y6, Y6                   // dy·dy
	VMULPD Y8, Y8, Y8
	VADDPD Y6, Y5, Y5                   // dx·dx + dy·dy
	VADDPD Y8, Y7, Y7
	VMOVUPD 128(AX), Y6
	VMOVUPD 160(AX), Y8
	VSUBPD Y2, Y6, Y6                   // dz
	VSUBPD Y2, Y8, Y8
	VMULPD Y6, Y6, Y6                   // dz·dz
	VMULPD Y8, Y8, Y8
	VADDPD Y6, Y5, Y5                   // d²
	VADDPD Y8, Y7, Y7

	VADDPD 192(AX), Y3, Y6              // r + r_lane
	VADDPD 224(AX), Y3, Y8
	VMULPD Y4, Y6, Y6                   // s
	VMULPD Y4, Y8, Y8
	VMULPD Y6, Y6, Y6                   // s·s
	VMULPD Y8, Y8, Y8
	VCMPPD $0x1E, Y6, Y5, Y5            // d² > s·s, ordered
	VCMPPD $0x1E, Y8, Y7, Y7
	VMOVMSKPD Y5, AX
	VMOVMSKPD Y7, BX
	SHLL $4, BX
	ORL BX, AX
	MOVB AX, ret+48(FP)
	VZEROUPPER
	RET
