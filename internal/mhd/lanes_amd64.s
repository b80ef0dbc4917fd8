//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// 4-lane AVX2 bodies of the fused update's interior radial loops
// (lanes.go). Lanes run along the radius: iteration CX covers the
// points CX/8 .. CX/8+3 of every row. Each Go statement of the loop is
// the comment above its instructions, and the instructions evaluate it
// operand for operand in Go's left-to-right association, without FMA;
// a statement's intermediates (an indented comment) are formed where
// first used. Loop constants are broadcast from the args struct on
// entry and kept in the high Y registers, or in the frame when the
// body needs more registers; rows are addressed through row pointers
// from the args struct in DI, kept in registers or reloaded.
//
// Register use: DI args, CX byte offset, DX end offset, AX BX SI R8-R13
// row pointers, Y0-Y15 values.

// Literal constants, repeated across the four lanes.

DATA lit0p5<>+0(SB)/8, $0.5
DATA lit0p5<>+8(SB)/8, $0.5
DATA lit0p5<>+16(SB)/8, $0.5
DATA lit0p5<>+24(SB)/8, $0.5
GLOBL lit0p5<>(SB), RODATA|NOPTR, $32

DATA lit1<>+0(SB)/8, $1.0
DATA lit1<>+8(SB)/8, $1.0
DATA lit1<>+16(SB)/8, $1.0
DATA lit1<>+24(SB)/8, $1.0
GLOBL lit1<>(SB), RODATA|NOPTR, $32

DATA lit2<>+0(SB)/8, $2.0
DATA lit2<>+8(SB)/8, $2.0
DATA lit2<>+16(SB)/8, $2.0
DATA lit2<>+24(SB)/8, $2.0
GLOBL lit2<>(SB), RODATA|NOPTR, $32

DATA lit3<>+0(SB)/8, $3.0
DATA lit3<>+8(SB)/8, $3.0
DATA lit3<>+16(SB)/8, $3.0
DATA lit3<>+24(SB)/8, $3.0
GLOBL lit3<>(SB), RODATA|NOPTR, $32

DATA signbit<>+0(SB)/8, $0x8000000000000000
DATA signbit<>+8(SB)/8, $0x8000000000000000
DATA signbit<>+16(SB)/8, $0x8000000000000000
DATA signbit<>+24(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $32

// func derivRLanes(a *derivRArgs)
// derivColumnR's interior loop.
TEXT ·derivRLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ derivRArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ derivRArgs_vr(DI), AX
	MOVQ derivRArgs_vt(DI), BX
	MOVQ derivRArgs_vp(DI), SI
	MOVQ derivRArgs_invr(DI), R8
	MOVQ derivRArgs_fr(DI), R9
	MOVQ derivRArgs_t(DI), R10
	MOVQ derivRArgs_ft(DI), R11
	MOVQ derivRArgs_fp(DI), R12
	VMOVUPD lit2<>(SB), Y15
	VBROADCASTSD derivRArgs_c1(DI), Y14
	VBROADCASTSD derivRArgs_c2(DI), Y13

loop:
	// dP = c1 * (pp - pm)
	MOVQ derivRArgs_p(DI), R13
	VMOVUPD 8(R13)(CX*1), Y0
	VSUBPD -8(R13)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivRArgs_dP(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// dF = c1 * (fpw - fm) + 2 * fc * ir
	VMOVUPD 8(R9)(CX*1), Y0
	VSUBPD -8(R9)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	VMULPD (R9)(CX*1), Y15, Y1
	VMULPD (R8)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ derivRArgs_dF(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// gD = c1 * (gp - gm)
	MOVQ derivRArgs_g(DI), R13
	VMOVUPD 8(R13)(CX*1), Y0
	VSUBPD -8(R13)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivRArgs_gD(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// lT = c2 * (ta - 2 * t0 + tb) + 2 * ir * (c1 * (ta - tb))
	VMOVUPD 8(R10)(CX*1), Y0
	VMULPD (R10)(CX*1), Y15, Y1
	VSUBPD Y1, Y0, Y0
	VADDPD -8(R10)(CX*1), Y0, Y0
	VMULPD Y0, Y13, Y0
	VMULPD (R8)(CX*1), Y15, Y1
	VMOVUPD 8(R10)(CX*1), Y2
	VSUBPD -8(R10)(CX*1), Y2, Y2
	VMULPD Y2, Y14, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ derivRArgs_lT(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// v1r = d1
	//   d1 = c1 * (va - vb)
	VMOVUPD 8(AX)(CX*1), Y0
	VSUBPD -8(AX)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivRArgs_v1r(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// l0 = c2 * (va - 2 * v0 + vb) + 2 * ir * d1
	VMOVUPD 8(AX)(CX*1), Y1
	VMULPD (AX)(CX*1), Y15, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD -8(AX)(CX*1), Y1, Y1
	VMULPD Y1, Y13, Y1
	VMULPD (R8)(CX*1), Y15, Y2
	VMULPD Y0, Y2, Y2
	VADDPD Y2, Y1, Y1
	MOVQ derivRArgs_l0(DI), R13
	VMOVUPD Y1, (R13)(CX*1)
	// v1t = d1
	//   d1 = c1 * (va - vb)
	VMOVUPD 8(BX)(CX*1), Y0
	VSUBPD -8(BX)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivRArgs_v1t(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// l1 = c2 * (va - 2 * v0 + vb) + 2 * ir * d1
	VMOVUPD 8(BX)(CX*1), Y1
	VMULPD (BX)(CX*1), Y15, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD -8(BX)(CX*1), Y1, Y1
	VMULPD Y1, Y13, Y1
	VMULPD (R8)(CX*1), Y15, Y2
	VMULPD Y0, Y2, Y2
	VADDPD Y2, Y1, Y1
	MOVQ derivRArgs_l1(DI), R13
	VMOVUPD Y1, (R13)(CX*1)
	// v1p = d1
	//   d1 = c1 * (va - vb)
	VMOVUPD 8(SI)(CX*1), Y0
	VSUBPD -8(SI)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivRArgs_v1p(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// l2 = c2 * (va - 2 * v0 + vb) + 2 * ir * d1
	VMOVUPD 8(SI)(CX*1), Y1
	VMULPD (SI)(CX*1), Y15, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD -8(SI)(CX*1), Y1, Y1
	VMULPD Y1, Y13, Y1
	VMULPD (R8)(CX*1), Y15, Y2
	VMULPD Y0, Y2, Y2
	VADDPD Y2, Y1, Y1
	MOVQ derivRArgs_l2(DI), R13
	VMOVUPD Y1, (R13)(CX*1)
	// a0 = c1 * (vrp * fpw - vrm * fm) + 2 * (vrc * fc) * ir
	VMOVUPD 8(AX)(CX*1), Y0
	VMULPD 8(R9)(CX*1), Y0, Y0
	VMOVUPD -8(AX)(CX*1), Y1
	VMULPD -8(R9)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMULPD Y0, Y14, Y0
	VMOVUPD (AX)(CX*1), Y1
	VMULPD (R9)(CX*1), Y1, Y1
	VMULPD Y1, Y15, Y1
	VMULPD (R8)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ derivRArgs_a0(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// a1 = c1 * (vrp * tfp - vrm * tfm) + 2 * (vrc * tfc) * ir
	VMOVUPD 8(AX)(CX*1), Y0
	VMULPD 8(R11)(CX*1), Y0, Y0
	VMOVUPD -8(AX)(CX*1), Y1
	VMULPD -8(R11)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMULPD Y0, Y14, Y0
	VMOVUPD (AX)(CX*1), Y1
	VMULPD (R11)(CX*1), Y1, Y1
	VMULPD Y1, Y15, Y1
	VMULPD (R8)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ derivRArgs_a1(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// a2 = c1 * (vrp * pfp - vrm * pfm) + 2 * (vrc * pfc) * ir
	VMOVUPD 8(AX)(CX*1), Y0
	VMULPD 8(R12)(CX*1), Y0, Y0
	VMOVUPD -8(AX)(CX*1), Y1
	VMULPD -8(R12)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMULPD Y0, Y14, Y0
	VMOVUPD (AX)(CX*1), Y1
	VMULPD (R12)(CX*1), Y1, Y1
	VMULPD Y1, Y15, Y1
	VMULPD (R8)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ derivRArgs_a2(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

// func derivTLanes(a *derivTArgs)
// The interior (default) case of derivColumnT.
TEXT ·derivTLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ derivTArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ derivTArgs_vtp(DI), AX
	MOVQ derivTArgs_vtm(DI), BX
	MOVQ derivTArgs_invr(DI), SI
	MOVQ derivTArgs_invr2(DI), R8
	VBROADCASTSD derivTArgs_c1(DI), Y15
	VBROADCASTSD derivTArgs_cot(DI), Y14
	VBROADCASTSD derivTArgs_c2(DI), Y13
	VMOVUPD lit2<>(SB), Y12

loop:
	// dP = c1 * (pp - pm)
	MOVQ derivTArgs_pp(DI), R9
	VMOVUPD (R9)(CX*1), Y0
	MOVQ derivTArgs_pm(DI), R10
	VSUBPD (R10)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	MOVQ derivTArgs_dP(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// dF += ir * (c1 * (fpw - fm) + cot * fc)
	MOVQ derivTArgs_dF(DI), R12
	VMOVUPD (R12)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	MOVQ derivTArgs_fpw(DI), R13
	VMOVUPD (R13)(CX*1), Y2
	MOVQ derivTArgs_fm(DI), R9
	VSUBPD (R9)(CX*1), Y2, Y2
	VMULPD Y2, Y15, Y2
	MOVQ derivTArgs_fc(DI), R10
	VMULPD (R10)(CX*1), Y14, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R12)(CX*1)
	// gD = c1 * (gp - gm)
	MOVQ derivTArgs_gp(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	MOVQ derivTArgs_gm(DI), R12
	VSUBPD (R12)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	MOVQ derivTArgs_gD(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// lT += ir2 * (c2 * (ta - 2 * t0 + tb) + cot * (c1 * (ta - tb)))
	MOVQ derivTArgs_lT(DI), R12
	VMOVUPD (R12)(CX*1), Y0
	VMOVUPD (R8)(CX*1), Y1
	MOVQ derivTArgs_tp(DI), R11
	VMOVUPD (R11)(CX*1), Y2
	MOVQ derivTArgs_tc(DI), R10
	VMULPD (R10)(CX*1), Y12, Y3
	VSUBPD Y3, Y2, Y2
	MOVQ derivTArgs_tm(DI), R10
	VADDPD (R10)(CX*1), Y2, Y2
	VMULPD Y2, Y13, Y2
	VMOVUPD (R11)(CX*1), Y3
	VSUBPD (R10)(CX*1), Y3, Y3
	VMULPD Y3, Y15, Y3
	VMULPD Y3, Y14, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R12)(CX*1)
	// v1r = d1
	//   d1 = c1 * (va - vb)
	MOVQ derivTArgs_vrp(DI), R12
	VMOVUPD (R12)(CX*1), Y0
	MOVQ derivTArgs_vrm(DI), R11
	VSUBPD (R11)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	MOVQ derivTArgs_v1r(DI), R10
	VMOVUPD Y0, (R10)(CX*1)
	// l0 += ir2 * (c2 * (va - 2 * v0 + vb) + cot * d1)
	MOVQ derivTArgs_l0(DI), R10
	VMOVUPD (R10)(CX*1), Y1
	VMOVUPD (R8)(CX*1), Y2
	VMOVUPD (R12)(CX*1), Y3
	MOVQ derivTArgs_vrc(DI), R12
	VMULPD (R12)(CX*1), Y12, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD (R11)(CX*1), Y3, Y3
	VMULPD Y3, Y13, Y3
	VMULPD Y0, Y14, Y0
	VADDPD Y0, Y3, Y3
	VMULPD Y3, Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R10)(CX*1)
	// v1t = d1
	//   d1 = c1 * (va - vb)
	VMOVUPD (AX)(CX*1), Y0
	VSUBPD (BX)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	MOVQ derivTArgs_v1t(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// l1 += ir2 * (c2 * (va - 2 * v0 + vb) + cot * d1)
	MOVQ derivTArgs_l1(DI), R10
	VMOVUPD (R10)(CX*1), Y1
	VMOVUPD (R8)(CX*1), Y2
	VMOVUPD (AX)(CX*1), Y3
	MOVQ derivTArgs_vtc(DI), R12
	VMULPD (R12)(CX*1), Y12, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD (BX)(CX*1), Y3, Y3
	VMULPD Y3, Y13, Y3
	VMULPD Y0, Y14, Y0
	VADDPD Y0, Y3, Y3
	VMULPD Y3, Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R10)(CX*1)
	// v1p = d1
	//   d1 = c1 * (va - vb)
	MOVQ derivTArgs_vpp(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	MOVQ derivTArgs_vpm(DI), R10
	VSUBPD (R10)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	MOVQ derivTArgs_v1p(DI), R9
	VMOVUPD Y0, (R9)(CX*1)
	// l2 += ir2 * (c2 * (va - 2 * v0 + vb) + cot * d1)
	MOVQ derivTArgs_l2(DI), R9
	VMOVUPD (R9)(CX*1), Y1
	VMOVUPD (R8)(CX*1), Y2
	VMOVUPD (R11)(CX*1), Y3
	MOVQ derivTArgs_vpc(DI), R11
	VMULPD (R11)(CX*1), Y12, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD (R10)(CX*1), Y3, Y3
	VMULPD Y3, Y13, Y3
	VMULPD Y0, Y14, Y0
	VADDPD Y0, Y3, Y3
	VMULPD Y3, Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R9)(CX*1)
	// a0 += ir * (c1 * (vtp * frp - vtm * frm) + cot * (vtc * frc))
	MOVQ derivTArgs_a0(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (AX)(CX*1), Y2
	MOVQ derivTArgs_frp(DI), R9
	VMULPD (R9)(CX*1), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	MOVQ derivTArgs_frm(DI), R11
	VMULPD (R11)(CX*1), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y15, Y2
	VMOVUPD (R12)(CX*1), Y3
	MOVQ derivTArgs_frc(DI), R9
	VMULPD (R9)(CX*1), Y3, Y3
	VMULPD Y3, Y14, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R10)(CX*1)
	// a1 += ir * (c1 * (vtp * fpw - vtm * fm) + cot * (vtc * fc))
	MOVQ derivTArgs_a1(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (AX)(CX*1), Y2
	VMULPD (R13)(CX*1), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	MOVQ derivTArgs_fm(DI), R13
	VMULPD (R13)(CX*1), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y15, Y2
	VMOVUPD (R12)(CX*1), Y3
	MOVQ derivTArgs_fc(DI), R11
	VMULPD (R11)(CX*1), Y3, Y3
	VMULPD Y3, Y14, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R10)(CX*1)
	// a2 += ir * (c1 * (vtp * fpp - vtm * fpm) + cot * (vtc * fpc))
	MOVQ derivTArgs_a2(DI), R9
	VMOVUPD (R9)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (AX)(CX*1), Y2
	MOVQ derivTArgs_fpp(DI), R10
	VMULPD (R10)(CX*1), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	MOVQ derivTArgs_fpm(DI), R13
	VMULPD (R13)(CX*1), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y15, Y2
	VMOVUPD (R12)(CX*1), Y3
	MOVQ derivTArgs_fpc(DI), R12
	VMULPD (R12)(CX*1), Y3, Y3
	VMULPD Y3, Y14, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R9)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

// func derivPLanes(a *derivPArgs)
// The interior (default) case of derivColumnP.
TEXT ·derivPLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ derivPArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ derivPArgs_vpp(DI), AX
	MOVQ derivPArgs_vpm(DI), BX
	MOVQ derivPArgs_invr(DI), SI
	MOVQ derivPArgs_invr2(DI), R8
	VBROADCASTSD derivPArgs_ist(DI), Y15
	VBROADCASTSD derivPArgs_c1(DI), Y14
	VBROADCASTSD derivPArgs_c2(DI), Y13
	VMOVUPD lit2<>(SB), Y12

loop:
	// dP = c1 * (pp - pm)
	MOVQ derivPArgs_pp(DI), R9
	VMOVUPD (R9)(CX*1), Y0
	MOVQ derivPArgs_pm(DI), R10
	VSUBPD (R10)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivPArgs_dP(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// dF += ir * ist * (c1 * (fpw - fm))
	MOVQ derivPArgs_dF(DI), R12
	VMOVUPD (R12)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	MOVQ derivPArgs_fpw(DI), R13
	VMOVUPD (R13)(CX*1), Y2
	MOVQ derivPArgs_fm(DI), R9
	VSUBPD (R9)(CX*1), Y2, Y2
	VMULPD Y2, Y14, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R12)(CX*1)
	// gD = c1 * (gp - gm)
	MOVQ derivPArgs_gp(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	MOVQ derivPArgs_gm(DI), R11
	VSUBPD (R11)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivPArgs_gD(DI), R12
	VMOVUPD Y0, (R12)(CX*1)
	// lT += ir2 * ist * ist * (c2 * (ta - 2 * t0 + tb))
	MOVQ derivPArgs_lT(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	VMOVUPD (R8)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y1, Y1
	MOVQ derivPArgs_tp(DI), R11
	VMOVUPD (R11)(CX*1), Y2
	MOVQ derivPArgs_tc(DI), R12
	VMULPD (R12)(CX*1), Y12, Y3
	VSUBPD Y3, Y2, Y2
	MOVQ derivPArgs_tm(DI), R11
	VADDPD (R11)(CX*1), Y2, Y2
	VMULPD Y2, Y13, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R10)(CX*1)
	// v1r = d1
	//   d1 = c1 * (va - vb)
	MOVQ derivPArgs_vrp(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	MOVQ derivPArgs_vrm(DI), R12
	VSUBPD (R12)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivPArgs_v1r(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// l0 += ir2 * ist * ist * (c2 * (va - 2 * v0 + vb))
	MOVQ derivPArgs_l0(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	VMOVUPD (R8)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y1, Y1
	VMOVUPD (R10)(CX*1), Y2
	MOVQ derivPArgs_vrc(DI), R10
	VMULPD (R10)(CX*1), Y12, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD (R12)(CX*1), Y2, Y2
	VMULPD Y2, Y13, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R11)(CX*1)
	// v1t = d1
	//   d1 = c1 * (va - vb)
	MOVQ derivPArgs_vtp(DI), R12
	VMOVUPD (R12)(CX*1), Y0
	MOVQ derivPArgs_vtm(DI), R11
	VSUBPD (R11)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivPArgs_v1t(DI), R10
	VMOVUPD Y0, (R10)(CX*1)
	// l1 += ir2 * ist * ist * (c2 * (va - 2 * v0 + vb))
	MOVQ derivPArgs_l1(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	VMOVUPD (R8)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y1, Y1
	VMOVUPD (R12)(CX*1), Y2
	MOVQ derivPArgs_vtc(DI), R12
	VMULPD (R12)(CX*1), Y12, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD (R11)(CX*1), Y2, Y2
	VMULPD Y2, Y13, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R10)(CX*1)
	// v1p = d1
	//   d1 = c1 * (va - vb)
	VMOVUPD (AX)(CX*1), Y0
	VSUBPD (BX)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	MOVQ derivPArgs_v1p(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// l2 += ir2 * ist * ist * (c2 * (va - 2 * v0 + vb))
	MOVQ derivPArgs_l2(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	VMOVUPD (R8)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y1, Y1
	VMOVUPD (AX)(CX*1), Y2
	MOVQ derivPArgs_vpc(DI), R12
	VMULPD (R12)(CX*1), Y12, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD (BX)(CX*1), Y2, Y2
	VMULPD Y2, Y13, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R10)(CX*1)
	// a0 += ir * ist * (c1 * (vpp * frp - vpm * frm))
	MOVQ derivPArgs_a0(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMOVUPD (AX)(CX*1), Y2
	MOVQ derivPArgs_frp(DI), R10
	VMULPD (R10)(CX*1), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	MOVQ derivPArgs_frm(DI), R12
	VMULPD (R12)(CX*1), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y14, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R11)(CX*1)
	// a1 += ir * ist * (c1 * (vpp * ftp - vpm * ftm))
	MOVQ derivPArgs_a1(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMOVUPD (AX)(CX*1), Y2
	MOVQ derivPArgs_ftp(DI), R10
	VMULPD (R10)(CX*1), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	MOVQ derivPArgs_ftm(DI), R12
	VMULPD (R12)(CX*1), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y14, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R11)(CX*1)
	// a2 += ir * ist * (c1 * (vpp * fpw - vpm * fm))
	MOVQ derivPArgs_a2(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMOVUPD (AX)(CX*1), Y2
	VMULPD (R13)(CX*1), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	VMULPD (R9)(CX*1), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y14, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R11)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

// func updateLanes(a *updateArgs)
// fusedRHSColumn's final loop.
TEXT ·updateLanes(SB), NOSPLIT, $320-8
	MOVQ a+0(FP), DI
	MOVQ updateArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ updateArgs_invr(DI), AX
	MOVQ updateArgs_vtw(DI), BX
	MOVQ updateArgs_vrw(DI), SI
	MOVQ updateArgs_vpw(DI), R8
	VBROADCASTSD updateArgs_g0(DI), Y0
	VMOVUPD Y0, 0(SP)
	VBROADCASTSD updateArgs_omP(DI), Y0
	VMOVUPD Y0, 32(SP)
	VBROADCASTSD updateArgs_omT(DI), Y0
	VMOVUPD Y0, 64(SP)
	VBROADCASTSD updateArgs_mu(DI), Y0
	VMOVUPD Y0, 96(SP)
	VBROADCASTSD updateArgs_omR(DI), Y0
	VMOVUPD Y0, 128(SP)
	VBROADCASTSD updateArgs_ist2(DI), Y0
	VMOVUPD Y0, 160(SP)
	VBROADCASTSD updateArgs_cost(DI), Y0
	VMOVUPD Y0, 192(SP)
	VBROADCASTSD updateArgs_gamma(DI), Y0
	VMOVUPD Y0, 224(SP)
	VBROADCASTSD updateArgs_kappa(DI), Y0
	VMOVUPD Y0, 256(SP)
	VBROADCASTSD updateArgs_eta(DI), Y0
	VMOVUPD Y0, 288(SP)
	VMOVUPD lit2<>(SB), Y15
	VBROADCASTSD updateArgs_ist(DI), Y14
	VMOVUPD signbit<>(SB), Y13
	VBROADCASTSD updateArgs_cot(DI), Y12

loop:
	// oRho = -dFw
	MOVQ updateArgs_dFw(DI), R9
	VMOVUPD (R9)(CX*1), Y0
	VXORPD Y13, Y0, Y0
	MOVQ updateArgs_oRho(DI), R10
	VMOVUPD Y0, (R10)(CX*1)
	// oFr = -advR - gpR + fLr + rho * gR + corR + mu * (lapR + gdvR / 3)
	//   advR -= (vtw * ftw + vpw * fpw) * ir
	MOVQ updateArgs_adv0(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	VMOVUPD (BX)(CX*1), Y1
	MOVQ updateArgs_ftw(DI), R12
	VMULPD (R12)(CX*1), Y1, Y1
	VMOVUPD (R8)(CX*1), Y2
	MOVQ updateArgs_fpw(DI), R13
	VMULPD (R13)(CX*1), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VXORPD Y13, Y0, Y0
	MOVQ updateArgs_dPrw(DI), R9
	VSUBPD (R9)(CX*1), Y0, Y0
	//   fLr = jt * bp - jp * bt
	MOVQ updateArgs_jt(DI), R10
	VMOVUPD (R10)(CX*1), Y1
	MOVQ updateArgs_bp(DI), R11
	VMULPD (R11)(CX*1), Y1, Y1
	MOVQ updateArgs_jp(DI), R9
	VMOVUPD (R9)(CX*1), Y2
	MOVQ updateArgs_bt(DI), R10
	VMULPD (R10)(CX*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ updateArgs_rho(DI), R10
	VMOVUPD (R10)(CX*1), Y1
	//   gR = -g0 * ir2
	VMOVUPD 0(SP), Y2
	VXORPD Y13, Y2, Y2
	MOVQ updateArgs_invr2(DI), R12
	VMULPD (R12)(CX*1), Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	//   corR = 2 * rho * (vtw * omP - vpw * omT)
	VMULPD (R10)(CX*1), Y15, Y1
	VMOVUPD (BX)(CX*1), Y2
	VMULPD 32(SP), Y2, Y2
	VMOVUPD (R8)(CX*1), Y3
	VMULPD 64(SP), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD 96(SP), Y1
	//   lapR -= 2 * ir2 * (vrw + dtvt + cot * vtw + ist * dpvp)
	MOVQ updateArgs_lap0(DI), R10
	VMOVUPD (R10)(CX*1), Y2
	VMULPD (R12)(CX*1), Y15, Y3
	VMOVUPD (SI)(CX*1), Y4
	MOVQ updateArgs_dtvt(DI), R10
	VADDPD (R10)(CX*1), Y4, Y4
	VMULPD (BX)(CX*1), Y12, Y5
	VADDPD Y5, Y4, Y4
	MOVQ updateArgs_dpvp(DI), R10
	VMULPD (R10)(CX*1), Y14, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y4, Y3, Y3
	VSUBPD Y3, Y2, Y2
	MOVQ updateArgs_gDrw(DI), R10
	VMOVUPD (R10)(CX*1), Y3
	VDIVPD lit3<>(SB), Y3, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ updateArgs_oFr(DI), R10
	VMOVUPD Y0, (R10)(CX*1)
	// oFt = -advT - gpT + fLt + corT + mu * (lapT + gdvT / 3)
	//   advT += (vtw * frw - cot * vpw * fpw) * ir
	MOVQ updateArgs_adv1(DI), R10
	VMOVUPD (R10)(CX*1), Y0
	VMOVUPD (BX)(CX*1), Y1
	MOVQ updateArgs_frw(DI), R10
	VMULPD (R10)(CX*1), Y1, Y1
	VMULPD (R8)(CX*1), Y12, Y2
	VMULPD (R13)(CX*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VXORPD Y13, Y0, Y0
	//   gpT = dPtw * ir
	MOVQ updateArgs_dPtw(DI), R13
	VMOVUPD (R13)(CX*1), Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	//   fLt = jp * br - jr * bp
	VMOVUPD (R9)(CX*1), Y1
	MOVQ updateArgs_br(DI), R9
	VMULPD (R9)(CX*1), Y1, Y1
	MOVQ updateArgs_jr(DI), R13
	VMOVUPD (R13)(CX*1), Y2
	VMULPD (R11)(CX*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	//   corT = 2 * rho * (vpw * omR - vrw * omP)
	MOVQ updateArgs_rho(DI), R11
	VMULPD (R11)(CX*1), Y15, Y1
	VMOVUPD (R8)(CX*1), Y2
	VMULPD 128(SP), Y2, Y2
	VMOVUPD (SI)(CX*1), Y3
	VMULPD 32(SP), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD 96(SP), Y1
	//   lapT += ir2 * (2 * dtvr - ist2 * vtw - 2 * cost * ist2 * dpvp)
	MOVQ updateArgs_lap1(DI), R11
	VMOVUPD (R11)(CX*1), Y2
	VMOVUPD (R12)(CX*1), Y3
	MOVQ updateArgs_dtvr(DI), R11
	VMULPD (R11)(CX*1), Y15, Y4
	VMOVUPD 160(SP), Y5
	VMULPD (BX)(CX*1), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD 192(SP), Y15, Y5
	VMULPD 160(SP), Y5, Y5
	MOVQ updateArgs_dpvp(DI), R11
	VMULPD (R11)(CX*1), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y2, Y2
	//   gdvT = gDtw * ir
	MOVQ updateArgs_gDtw(DI), R11
	VMOVUPD (R11)(CX*1), Y3
	VMULPD (AX)(CX*1), Y3, Y3
	VDIVPD lit3<>(SB), Y3, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ updateArgs_oFt(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// oFp = -advP - gpP + fLp + corP + mu * (lapP + gdvP / 3)
	//   advP += (vpw * frw + cot * vpw * ftw) * ir
	MOVQ updateArgs_adv2(DI), R11
	VMOVUPD (R11)(CX*1), Y0
	VMOVUPD (R8)(CX*1), Y1
	VMULPD (R10)(CX*1), Y1, Y1
	VMULPD (R8)(CX*1), Y12, Y2
	MOVQ updateArgs_ftw(DI), R10
	VMULPD (R10)(CX*1), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VXORPD Y13, Y0, Y0
	//   gpP = dPpw * (ir * m)
	MOVQ updateArgs_dPpw(DI), R11
	VMOVUPD (R11)(CX*1), Y1
	VMOVUPD (AX)(CX*1), Y2
	VMULPD Y14, Y2, Y2
	VMULPD Y2, Y1, Y1
	VSUBPD Y1, Y0, Y0
	//   fLp = jr * bt - jt * br
	VMOVUPD (R13)(CX*1), Y1
	MOVQ updateArgs_bt(DI), R10
	VMULPD (R10)(CX*1), Y1, Y1
	MOVQ updateArgs_jt(DI), R10
	VMOVUPD (R10)(CX*1), Y2
	VMULPD (R9)(CX*1), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	//   corP = 2 * rho * (vrw * omT - vtw * omR)
	MOVQ updateArgs_rho(DI), R9
	VMULPD (R9)(CX*1), Y15, Y1
	VMOVUPD (SI)(CX*1), Y2
	VMULPD 64(SP), Y2, Y2
	VMOVUPD (BX)(CX*1), Y3
	VMULPD 128(SP), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD 96(SP), Y1
	//   lapP += ir2 * (2 * ist * dpvr + 2 * cost * ist2 * dpvt - ist2 * vpw)
	MOVQ updateArgs_lap2(DI), R9
	VMOVUPD (R9)(CX*1), Y2
	VMOVUPD (R12)(CX*1), Y3
	VMULPD Y14, Y15, Y4
	MOVQ updateArgs_dpvr(DI), R12
	VMULPD (R12)(CX*1), Y4, Y4
	VMULPD 192(SP), Y15, Y5
	VMULPD 160(SP), Y5, Y5
	MOVQ updateArgs_dpvt(DI), R9
	VMULPD (R9)(CX*1), Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD 160(SP), Y5
	VMULPD (R8)(CX*1), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y2, Y2
	//   gdvP = gDpw * (ir * m)
	MOVQ updateArgs_gDpw(DI), R9
	VMOVUPD (R9)(CX*1), Y3
	VMOVUPD (AX)(CX*1), Y4
	VMULPD Y14, Y4, Y4
	VMULPD Y4, Y3, Y3
	VDIVPD lit3<>(SB), Y3, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ updateArgs_oFp(DI), R9
	VMOVUPD Y0, (R9)(CX*1)
	// oP = -vg - gamma * pp * dV + (gamma - 1) * (kappa * lTw + eta * jsq + 2 * mu * st)
	//   vg = vrw * dPrw + vtw * ir * dPtw + vpw * ir * ist * dPpw
	VMOVUPD (SI)(CX*1), Y0
	MOVQ updateArgs_dPrw(DI), R9
	VMULPD (R9)(CX*1), Y0, Y0
	VMOVUPD (BX)(CX*1), Y1
	VMULPD (AX)(CX*1), Y1, Y1
	MOVQ updateArgs_dPtw(DI), R9
	VMULPD (R9)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD (R8)(CX*1), Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VMULPD Y14, Y1, Y1
	VMULPD (R11)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VXORPD Y13, Y0, Y0
	VMOVUPD 224(SP), Y1
	MOVQ updateArgs_pp(DI), R11
	VMULPD (R11)(CX*1), Y1, Y1
	MOVQ updateArgs_dV(DI), R9
	VMULPD (R9)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMOVUPD 224(SP), Y1
	VSUBPD lit1<>(SB), Y1, Y1
	VMOVUPD 256(SP), Y2
	MOVQ updateArgs_lTw(DI), R11
	VMULPD (R11)(CX*1), Y2, Y2
	VMOVUPD 288(SP), Y3
	//   jsq = jr * jr + jt * jt + jp * jp
	VMOVUPD (R13)(CX*1), Y4
	VMULPD (R13)(CX*1), Y4, Y4
	VMOVUPD (R10)(CX*1), Y5
	VMULPD (R10)(CX*1), Y5, Y5
	VADDPD Y5, Y4, Y4
	MOVQ updateArgs_jp(DI), R9
	VMOVUPD (R9)(CX*1), Y5
	VMULPD (R9)(CX*1), Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y2, Y2
	VMULPD 96(SP), Y15, Y3
	//   st = err * err + ett * ett + epp * epp + 2 * (ert * ert + erp * erp + etp * etp) - sDiv * sDiv / 3
	MOVQ updateArgs_drvr(DI), R11
	VMOVUPD (R11)(CX*1), Y4
	VMULPD (R11)(CX*1), Y4, Y4
	//   ett = ir * dtvt + vrw * ir
	VMOVUPD (AX)(CX*1), Y5
	MOVQ updateArgs_dtvt(DI), R9
	VMULPD (R9)(CX*1), Y5, Y5
	VMOVUPD (SI)(CX*1), Y6
	VMULPD (AX)(CX*1), Y6, Y6
	VADDPD Y6, Y5, Y5
	VMULPD Y5, Y5, Y6
	VADDPD Y6, Y4, Y4
	//   epp = ir * ist * dpvp + vrw * ir + cot * vtw * ir
	VMOVUPD (AX)(CX*1), Y6
	VMULPD Y14, Y6, Y6
	MOVQ updateArgs_dpvp(DI), R9
	VMULPD (R9)(CX*1), Y6, Y6
	VMOVUPD (SI)(CX*1), Y7
	VMULPD (AX)(CX*1), Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD (BX)(CX*1), Y12, Y7
	VMULPD (AX)(CX*1), Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y6, Y7
	VADDPD Y7, Y4, Y4
	//   ert = 0.5 * (ir * dtvr + drvt - vtw * ir)
	VMOVUPD lit0p5<>(SB), Y7
	VMOVUPD (AX)(CX*1), Y8
	MOVQ updateArgs_dtvr(DI), R9
	VMULPD (R9)(CX*1), Y8, Y8
	MOVQ updateArgs_drvt(DI), R9
	VADDPD (R9)(CX*1), Y8, Y8
	VMOVUPD (BX)(CX*1), Y9
	VMULPD (AX)(CX*1), Y9, Y9
	VSUBPD Y9, Y8, Y8
	VMULPD Y8, Y7, Y7
	VMULPD Y7, Y7, Y7
	//   erp = 0.5 * (ir * ist * dpvr + drvp - vpw * ir)
	VMOVUPD lit0p5<>(SB), Y8
	VMOVUPD (AX)(CX*1), Y9
	VMULPD Y14, Y9, Y9
	VMULPD (R12)(CX*1), Y9, Y9
	MOVQ updateArgs_drvp(DI), R12
	VADDPD (R12)(CX*1), Y9, Y9
	VMOVUPD (R8)(CX*1), Y10
	VMULPD (AX)(CX*1), Y10, Y10
	VSUBPD Y10, Y9, Y9
	VMULPD Y9, Y8, Y8
	VMULPD Y8, Y8, Y8
	VADDPD Y8, Y7, Y7
	//   etp = 0.5 * (ir * ist * dpvt + ir * dtvp - cot * vpw * ir)
	VMOVUPD lit0p5<>(SB), Y8
	VMOVUPD (AX)(CX*1), Y9
	VMULPD Y14, Y9, Y9
	MOVQ updateArgs_dpvt(DI), R9
	VMULPD (R9)(CX*1), Y9, Y9
	VMOVUPD (AX)(CX*1), Y10
	MOVQ updateArgs_dtvp(DI), R12
	VMULPD (R12)(CX*1), Y10, Y10
	VADDPD Y10, Y9, Y9
	VMULPD (R8)(CX*1), Y12, Y10
	VMULPD (AX)(CX*1), Y10, Y10
	VSUBPD Y10, Y9, Y9
	VMULPD Y9, Y8, Y8
	VMULPD Y8, Y8, Y8
	VADDPD Y8, Y7, Y7
	VMULPD Y7, Y15, Y7
	VADDPD Y7, Y4, Y4
	//   sDiv = err + ett + epp
	VMOVUPD (R11)(CX*1), Y7
	VADDPD Y5, Y7, Y7
	VADDPD Y6, Y7, Y7
	VMULPD Y7, Y7, Y7
	VDIVPD lit3<>(SB), Y7, Y7
	VSUBPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ updateArgs_oP(DI), R11
	VMOVUPD Y0, (R11)(CX*1)
	// oAr = vtw * bp - vpw * bt - eta * jr
	VMOVUPD (BX)(CX*1), Y0
	MOVQ updateArgs_bp(DI), R9
	VMULPD (R9)(CX*1), Y0, Y0
	VMOVUPD (R8)(CX*1), Y1
	MOVQ updateArgs_bt(DI), R12
	VMULPD (R12)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMOVUPD 288(SP), Y1
	VMULPD (R13)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	MOVQ updateArgs_oAr(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	// oAt = vpw * br - vrw * bp - eta * jt
	VMOVUPD (R8)(CX*1), Y0
	MOVQ updateArgs_br(DI), R11
	VMULPD (R11)(CX*1), Y0, Y0
	VMOVUPD (SI)(CX*1), Y1
	VMULPD (R9)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMOVUPD 288(SP), Y1
	VMULPD (R10)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	MOVQ updateArgs_oAt(DI), R10
	VMOVUPD Y0, (R10)(CX*1)
	// oAp = vrw * bt - vtw * br - eta * jp
	VMOVUPD (SI)(CX*1), Y0
	VMULPD (R12)(CX*1), Y0, Y0
	VMOVUPD (BX)(CX*1), Y1
	VMULPD (R11)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMOVUPD 288(SP), Y1
	MOVQ updateArgs_jp(DI), R9
	VMULPD (R9)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	MOVQ updateArgs_oAp(DI), R12
	VMOVUPD Y0, (R12)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET


// func quotLanes(a *quotArgs)
// quot's loop: dst = x / y, correctly rounded like DIVSD.
TEXT ·quotLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ quotArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ quotArgs_dst(DI), AX
	MOVQ quotArgs_x(DI), BX
	MOVQ quotArgs_y(DI), SI

loop:
	// dst = x / y
	VMOVUPD (BX)(CX*1), Y0
	VDIVPD (SI)(CX*1), Y0, Y0
	VMOVUPD Y0, (AX)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET
