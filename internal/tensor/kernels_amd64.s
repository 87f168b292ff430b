//go:build amd64 && !purego

#include "textflag.h"

// Go assembly writes VEX operands as (src2, src1, dst): VMULPD Y0, Y1, Y1
// computes Y1 = Y1*Y0, so Y1 is the first source. The operand order in
// every multiply and add below is the one the compiler emits for the
// scalar loops in kernels.go (see the note there on NaN payloads).

// func axpyAVX2(a float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX

axpy16:
	CMPQ    CX, $16
	JL      axpy4
	VMOVUPD 0(SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  0(DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	CMPQ    CX, $4
	JL      axpy1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ  CX, CX
	JE     axpydone
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func vecAddAVX2(dst, src []float64)
TEXT ·vecAddAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

add16:
	CMPQ    CX, $16
	JL      add4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  0(SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ    CX, $4
	JL      add1
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ  CX, CX
	JE     adddone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET

// func matmulRowAVX2(orow, b []float64, ks []int, vs []float64, fresh bool)
//
// For each stripe of orow (16 columns in Y0-Y3, then 4 in Y0, then one in
// X0), start the stripe from orow (or from +0 in registers when fresh,
// so orow need not be zeroed), apply every term n in order as
// stripe += (b[ks[n]+j:] * vs[n]), and store it once. The Go wrapper
// only calls it with at least one term.
TEXT ·matmulRowAVX2(SB), NOSPLIT, $0-97
	MOVQ    orow_base+0(FP), DI
	MOVQ    orow_len+8(FP), CX
	MOVQ    b_base+24(FP), SI
	MOVQ    ks_base+48(FP), R8
	MOVQ    ks_len+56(FP), R9
	MOVQ    vs_base+72(FP), R10
	MOVBLZX fresh+96(FP), DX
	TESTQ   R9, R9
	JE      rowdone

row16:
	CMPQ    CX, $16
	JL      row4
	TESTQ   DX, DX
	JNE     row16zero
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP     row16start

row16zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

row16start:
	XORQ AX, AX

row16k:
	MOVQ         (R8)(AX*8), BX
	VBROADCASTSD (R10)(AX*8), Y4
	LEAQ         (SI)(BX*8), BX
	VMOVUPD      0(BX), Y5
	VMOVUPD      32(BX), Y6
	VMOVUPD      64(BX), Y7
	VMOVUPD      96(BX), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y0, Y5, Y0
	VADDPD       Y1, Y6, Y1
	VADDPD       Y2, Y7, Y2
	VADDPD       Y3, Y8, Y3
	INCQ         AX
	CMPQ         AX, R9
	JL           row16k
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $16, CX
	JMP          row16

row4:
	CMPQ    CX, $4
	JL      row1
	TESTQ   DX, DX
	JNE     row4zero
	VMOVUPD (DI), Y0
	JMP     row4start

row4zero:
	VXORPD Y0, Y0, Y0

row4start:
	XORQ AX, AX

row4k:
	MOVQ         (R8)(AX*8), BX
	VBROADCASTSD (R10)(AX*8), Y4
	VMOVUPD      (SI)(BX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y0, Y5, Y0
	INCQ         AX
	CMPQ         AX, R9
	JL           row4k
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $4, CX
	JMP          row4

row1:
	TESTQ  CX, CX
	JE     rowdone
	TESTQ  DX, DX
	JNE    row1zero
	VMOVSD (DI), X0
	JMP    row1start

row1zero:
	VXORPD X0, X0, X0

row1start:
	XORQ AX, AX

row1k:
	MOVQ   (R8)(AX*8), BX
	VMOVSD (R10)(AX*8), X4
	VMOVSD (SI)(BX*8), X5
	VMULSD X4, X5, X5
	VADDSD X0, X5, X0
	INCQ   AX
	CMPQ   AX, R9
	JL     row1k
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    row1

rowdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
