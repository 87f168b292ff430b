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

// func matmulRowAVX2(orow, arow, b []float64, fresh bool)
//
// orow is cut into panels of up to 32 columns. Each panel keeps all its
// columns in registers, four to a YMM accumulator (Y0-Y7), starting from
// orow (or from +0 in registers when fresh, so orow need not be zeroed),
// walks k once over arow, applies every nonzero term arow[k] to the
// whole panel, and stores the panel once. Full panels of 32 columns use
// eight accumulators. A last panel of w < 32 columns uses ceil(w/4); when
// w is not a multiple of four, the last of them is loaded, fed and stored
// through the mask in Y15, whose lanes past the row's end are clear:
// those lanes load as zero, are never stored and never fault. The Go
// wrapper only calls it with len(arow) and len(orow) both at least one.
//
// Registers: DI orow panel, CX columns left, SI arow, R9 len(arow), R8 b
// at the panel's first column, R10 the b row stride in bytes, BX the b
// row of term k, AX k, DX fresh, Y13 +0, Y14 arow[k] broadcast, Y12 the
// product.

// Loading four qwords from tailmask<>+8*(4-r) gives a mask of r set
// lanes followed by 4-r clear ones, for r in 1..4.
DATA  tailmask<>+0(SB)/8, $-1
DATA  tailmask<>+8(SB)/8, $-1
DATA  tailmask<>+16(SB)/8, $-1
DATA  tailmask<>+24(SB)/8, $-1
DATA  tailmask<>+32(SB)/8, $0
DATA  tailmask<>+40(SB)/8, $0
DATA  tailmask<>+48(SB)/8, $0
DATA  tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TERM applies term k to four columns of the panel at byte offset off:
// acc = (b[k, j..j+3] · arow[k]) + acc, with b the multiply's first
// source and the product the add's (see the note at the top).
#define TERM(off, acc) \
	VMOVUPD off(BX), Y12; \
	VMULPD  Y14, Y12, Y12; \
	VADDPD  acc, Y12, acc

// MTERM is TERM for the masked last accumulator.
#define MTERM(off, acc) \
	VMASKMOVPD off(BX), Y15, Y12; \
	VMULPD     Y14, Y12, Y12; \
	VADDPD     acc, Y12, acc

#define TERMS1 TERM(0, Y0)
#define TERMS2 TERMS1; TERM(32, Y1)
#define TERMS3 TERMS2; TERM(64, Y2)
#define TERMS4 TERMS3; TERM(96, Y3)
#define TERMS5 TERMS4; TERM(128, Y4)
#define TERMS6 TERMS5; TERM(160, Y5)
#define TERMS7 TERMS6; TERM(192, Y6)
#define TERMS8 TERMS7; TERM(224, Y7)

#define LOADS1 VMOVUPD 0(DI), Y0
#define LOADS2 LOADS1; VMOVUPD 32(DI), Y1
#define LOADS3 LOADS2; VMOVUPD 64(DI), Y2
#define LOADS4 LOADS3; VMOVUPD 96(DI), Y3
#define LOADS5 LOADS4; VMOVUPD 128(DI), Y4
#define LOADS6 LOADS5; VMOVUPD 160(DI), Y5
#define LOADS7 LOADS6; VMOVUPD 192(DI), Y6
#define LOADS8 LOADS7; VMOVUPD 224(DI), Y7

#define STORES1 VMOVUPD Y0, 0(DI)
#define STORES2 STORES1; VMOVUPD Y1, 32(DI)
#define STORES3 STORES2; VMOVUPD Y2, 64(DI)
#define STORES4 STORES3; VMOVUPD Y3, 96(DI)
#define STORES5 STORES4; VMOVUPD Y4, 128(DI)
#define STORES6 STORES5; VMOVUPD Y5, 160(DI)
#define STORES7 STORES6; VMOVUPD Y6, 192(DI)
#define STORES8 STORES7; VMOVUPD Y7, 224(DI)

// The last panel's macros: LASTn_* handle n accumulators, the last one
// through the mask in Y15.
#define MLOAD(off, acc) VMASKMOVPD off(DI), Y15, acc
#define MSTORE(off, acc) VMASKMOVPD acc, Y15, off(DI)

#define LAST1_LOADS MLOAD(0, Y0)
#define LAST1_TERMS MTERM(0, Y0)
#define LAST1_STORES MSTORE(0, Y0)
#define LAST2_LOADS LOADS1; MLOAD(32, Y1)
#define LAST2_TERMS TERMS1; MTERM(32, Y1)
#define LAST2_STORES STORES1; MSTORE(32, Y1)
#define LAST3_LOADS LOADS2; MLOAD(64, Y2)
#define LAST3_TERMS TERMS2; MTERM(64, Y2)
#define LAST3_STORES STORES2; MSTORE(64, Y2)
#define LAST4_LOADS LOADS3; MLOAD(96, Y3)
#define LAST4_TERMS TERMS3; MTERM(96, Y3)
#define LAST4_STORES STORES3; MSTORE(96, Y3)
#define LAST5_LOADS LOADS4; MLOAD(128, Y4)
#define LAST5_TERMS TERMS4; MTERM(128, Y4)
#define LAST5_STORES STORES4; MSTORE(128, Y4)
#define LAST6_LOADS LOADS5; MLOAD(160, Y5)
#define LAST6_TERMS TERMS5; MTERM(160, Y5)
#define LAST6_STORES STORES5; MSTORE(160, Y5)
#define LAST7_LOADS LOADS6; MLOAD(192, Y6)
#define LAST7_TERMS TERMS6; MTERM(192, Y6)
#define LAST7_STORES STORES6; MSTORE(192, Y6)
#define LAST8_LOADS LOADS7; MLOAD(224, Y7)
#define LAST8_TERMS TERMS7; MTERM(224, Y7)
#define LAST8_STORES STORES7; MSTORE(224, Y7)

// PANEL runs one panel: start the accumulators (LOADS unless fresh),
// walk k once applying TERMS to every term whose arow[k] is not zero, and
// store them (STORES). An entry is skipped only when VUCOMISD finds it
// equal to zero, ZF set and PF clear, the branch Go's av == 0 compiles
// to: both zeros are skipped, NaN is not.
#define PANEL(LOADS, TERMS, STORES, start, kloop, kterm, knext) \
	VXORPD       Y0, Y0, Y0; \
	VXORPD       Y1, Y1, Y1; \
	VXORPD       Y2, Y2, Y2; \
	VXORPD       Y3, Y3, Y3; \
	VXORPD       Y4, Y4, Y4; \
	VXORPD       Y5, Y5, Y5; \
	VXORPD       Y6, Y6, Y6; \
	VXORPD       Y7, Y7, Y7; \
	TESTQ        DX, DX; \
	JNE          start; \
	LOADS; \
start: \
	XORQ         AX, AX; \
	MOVQ         R8, BX; \
kloop: \
	VBROADCASTSD (SI)(AX*8), Y14; \
	VUCOMISD     X13, X14; \
	JNE          kterm; \
	JPC          knext; \
kterm: \
	TERMS; \
knext: \
	ADDQ         R10, BX; \
	INCQ         AX; \
	CMPQ         AX, R9; \
	JL           kloop; \
	STORES

TEXT ·matmulRowAVX2(SB), NOSPLIT, $0-73
	MOVQ    orow_base+0(FP), DI
	MOVQ    orow_len+8(FP), CX
	MOVQ    arow_base+24(FP), SI
	MOVQ    arow_len+32(FP), R9
	MOVQ    b_base+48(FP), R8
	MOVBLZX fresh+72(FP), DX
	LEAQ    (CX*8), R10
	VXORPD  X13, X13, X13

full:
	CMPQ CX, $32
	JL   last
	PANEL(LOADS8, TERMS8, STORES8, fullstart, fullk, fullterm, fullnext)
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $32, CX
	JMP  full

last:
	// CX (0..31) columns left: AX = ceil(CX/4) accumulators. When CX is a
	// multiple of four they are all plain: the GNN's widths are, and
	// running them masked instead (an all-ones mask) cost gnn_cold 8%
	// more CPU per program, worse in 8 of 10 alternating pairs.
	// Otherwise the last holds r = CX - 4(AX-1) columns, so its mask
	// starts 4-r = 4AX-CX qwords into tailmask.
	TESTQ   CX, CX
	JE      rowdone
	LEAQ    3(CX), AX
	SHRQ    $2, AX
	LEAQ    (AX*4), BX
	SUBQ    CX, BX
	JE      plain
	LEAQ    tailmask<>(SB), R11
	VMOVUPD (R11)(BX*8), Y15
	CMPQ    AX, $1
	JE      masked1
	CMPQ    AX, $2
	JE      masked2
	CMPQ    AX, $3
	JE      masked3
	CMPQ    AX, $4
	JE      masked4
	CMPQ    AX, $5
	JE      masked5
	CMPQ    AX, $6
	JE      masked6
	CMPQ    AX, $7
	JE      masked7
	PANEL(LAST8_LOADS, LAST8_TERMS, LAST8_STORES, m8start, m8k, m8term, m8next)
	JMP     rowdone

plain:
	CMPQ AX, $1
	JE   plain1
	CMPQ AX, $2
	JE   plain2
	CMPQ AX, $3
	JE   plain3
	CMPQ AX, $4
	JE   plain4
	CMPQ AX, $5
	JE   plain5
	CMPQ AX, $6
	JE   plain6
	PANEL(LOADS7, TERMS7, STORES7, p7start, p7k, p7term, p7next)
	JMP  rowdone

masked1:
	PANEL(LAST1_LOADS, LAST1_TERMS, LAST1_STORES, m1start, m1k, m1term, m1next)
	JMP rowdone

masked2:
	PANEL(LAST2_LOADS, LAST2_TERMS, LAST2_STORES, m2start, m2k, m2term, m2next)
	JMP rowdone

masked3:
	PANEL(LAST3_LOADS, LAST3_TERMS, LAST3_STORES, m3start, m3k, m3term, m3next)
	JMP rowdone

masked4:
	PANEL(LAST4_LOADS, LAST4_TERMS, LAST4_STORES, m4start, m4k, m4term, m4next)
	JMP rowdone

masked5:
	PANEL(LAST5_LOADS, LAST5_TERMS, LAST5_STORES, m5start, m5k, m5term, m5next)
	JMP rowdone

masked6:
	PANEL(LAST6_LOADS, LAST6_TERMS, LAST6_STORES, m6start, m6k, m6term, m6next)
	JMP rowdone

masked7:
	PANEL(LAST7_LOADS, LAST7_TERMS, LAST7_STORES, m7start, m7k, m7term, m7next)
	JMP rowdone

plain1:
	PANEL(LOADS1, TERMS1, STORES1, p1start, p1k, p1term, p1next)
	JMP rowdone

plain2:
	PANEL(LOADS2, TERMS2, STORES2, p2start, p2k, p2term, p2next)
	JMP rowdone

plain3:
	PANEL(LOADS3, TERMS3, STORES3, p3start, p3k, p3term, p3next)
	JMP rowdone

plain4:
	PANEL(LOADS4, TERMS4, STORES4, p4start, p4k, p4term, p4next)
	JMP rowdone

plain5:
	PANEL(LOADS5, TERMS5, STORES5, p5start, p5k, p5term, p5next)
	JMP rowdone

plain6:
	PANEL(LOADS6, TERMS6, STORES6, p6start, p6k, p6term, p6next)
	JMP rowdone

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
