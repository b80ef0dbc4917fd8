//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// 4-lane AVX2 bodies of the interior radial loops of curlColumn and
// divColumn (lanes.go). Lanes run along the radius: iteration CX covers
// the points CX/8 .. CX/8+3 of every row. Each Go statement of the loop
// is the comment above its instructions, and the instructions evaluate
// it operand for operand in Go's left-to-right association, without
// FMA. Loop constants are broadcast from the args struct on entry and
// kept in the high Y registers; rows are addressed through row
// pointers from the args struct in DI.
//
// Register use: DI args, CX byte offset, DX end offset, AX BX SI R8-R13
// row pointers, Y0-Y15 values.

// Literal constants, repeated across the four lanes.

DATA lit2<>+0(SB)/8, $2.0
DATA lit2<>+8(SB)/8, $2.0
DATA lit2<>+16(SB)/8, $2.0
DATA lit2<>+24(SB)/8, $2.0
GLOBL lit2<>(SB), RODATA|NOPTR, $32

// func diffLanes(a *diffArgs)
// One centered difference, dst = c*(p - m).
TEXT ·diffLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ diffArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ diffArgs_p(DI), AX
	MOVQ diffArgs_m(DI), BX
	MOVQ diffArgs_dst(DI), SI
	VBROADCASTSD diffArgs_c(DI), Y15

loop:
	// dst = c * (p - m)
	VMOVUPD (AX)(CX*1), Y0
	VSUBPD (BX)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	VMOVUPD Y0, (SI)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

// func diff2Lanes(a *diff2Args)
// Two centered differences with a shared constant.
TEXT ·diff2Lanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ diff2Args_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ diff2Args_p1(DI), AX
	MOVQ diff2Args_m1(DI), BX
	MOVQ diff2Args_d1(DI), SI
	MOVQ diff2Args_p2(DI), R8
	MOVQ diff2Args_m2(DI), R9
	MOVQ diff2Args_d2(DI), R10
	VBROADCASTSD diff2Args_c(DI), Y15

loop:
	// d1 = c * (p1 - m1)
	VMOVUPD (AX)(CX*1), Y0
	VSUBPD (BX)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	VMOVUPD Y0, (SI)(CX*1)
	// d2 = c * (p2 - m2)
	VMOVUPD (R8)(CX*1), Y0
	VSUBPD (R9)(CX*1), Y0, Y0
	VMULPD Y0, Y15, Y0
	VMOVUPD Y0, (R10)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

// func divCombineLanes(a *divCombineArgs)
// divColumn's combine.
TEXT ·divCombineLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ divCombineArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ divCombineArgs_vr(DI), AX
	MOVQ divCombineArgs_invr(DI), BX
	MOVQ divCombineArgs_db(DI), SI
	MOVQ divCombineArgs_vt(DI), R8
	MOVQ divCombineArgs_dc(DI), R9
	MOVQ divCombineArgs_or(DI), R10
	VBROADCASTSD divCombineArgs_cot(DI), Y15
	VBROADCASTSD divCombineArgs_cr(DI), Y14
	VBROADCASTSD divCombineArgs_ist(DI), Y13
	VMOVUPD lit2<>(SB), Y12

loop:
	// or = cr * (vrp - vrm) + 2 * vr * ir + ir * (db + cot * vt) + ir * ist * dc
	VMOVUPD 8(AX)(CX*1), Y0
	VSUBPD -8(AX)(CX*1), Y0, Y0
	VMULPD Y0, Y14, Y0
	VMULPD (AX)(CX*1), Y12, Y1
	VMULPD (BX)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD (BX)(CX*1), Y1
	VMOVUPD (SI)(CX*1), Y2
	VMULPD (R8)(CX*1), Y15, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD (BX)(CX*1), Y1
	VMULPD Y13, Y1, Y1
	VMULPD (R9)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R10)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

// func curlCombineLanes(a *curlCombineArgs)
// curlColumn's combine.
TEXT ·curlCombineLanes(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ curlCombineArgs_n(DI), DX
	SHLQ $3, DX
	JZ   done
	XORQ CX, CX
	MOVQ curlCombineArgs_invr(DI), AX
	MOVQ curlCombineArgs_vp(DI), BX
	MOVQ curlCombineArgs_aw(DI), SI
	MOVQ curlCombineArgs_bw(DI), R8
	MOVQ curlCombineArgs_orr(DI), R9
	MOVQ curlCombineArgs_cw(DI), R10
	MOVQ curlCombineArgs_dw(DI), R11
	MOVQ curlCombineArgs_otr(DI), R12
	VBROADCASTSD curlCombineArgs_ist(DI), Y15
	VBROADCASTSD curlCombineArgs_cot(DI), Y14

loop:
	// orr = ir * (aw + cot * vp) - ir * ist * bw
	VMOVUPD (AX)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMULPD (BX)(CX*1), Y14, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y1, Y0, Y0
	VMOVUPD (AX)(CX*1), Y1
	VMULPD Y15, Y1, Y1
	VMULPD (R8)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMOVUPD Y0, (R9)(CX*1)
	// otr = ir * ist * cw - dw - vp * ir
	VMOVUPD (AX)(CX*1), Y0
	VMULPD Y15, Y0, Y0
	VMULPD (R10)(CX*1), Y0, Y0
	VSUBPD (R11)(CX*1), Y0, Y0
	VMOVUPD (BX)(CX*1), Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	VMOVUPD Y0, (R12)(CX*1)
	// opr = ew + vt * ir - ir * fw
	MOVQ curlCombineArgs_ew(DI), R13
	VMOVUPD (R13)(CX*1), Y0
	MOVQ curlCombineArgs_vt(DI), R13
	VMOVUPD (R13)(CX*1), Y1
	VMULPD (AX)(CX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD (AX)(CX*1), Y1
	MOVQ curlCombineArgs_fw(DI), R13
	VMULPD (R13)(CX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	MOVQ curlCombineArgs_opr(DI), R13
	VMOVUPD Y0, (R13)(CX*1)
	ADDQ $32, CX
	CMPQ CX, DX
	JB   loop

done:
	VZEROUPPER
	RET

