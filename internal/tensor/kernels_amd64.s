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

// func edgeScoresAVX2(score, hs, hd []float64, w int, srcAt, dstAt []int, a []float64, slope float64)
//
// Scores four edges at a time, one per lane, so the four sums are four
// independent add chains in one register. For each block of four
// columns k..k+3 it computes each edge's four products p[k] (a row of
// Y0-Y3), transposes the 4x4 block so that Y0-Y3 hold columns k..k+3
// (lane e = edge e), and adds the columns to the sums in ascending k.
// Per edge and column:
//
//	v = xs + xd             (VADDPD, xs first)
//	v = v < 0 ? v·slope : v (VCMPPD LT, VMULPD with v first, VBLENDVPD;
//	                         NaN compares false and keeps v)
//	p = v·a[k]              (v first)
//	p = v == 0 ? +0 : p     (VCMPPD EQ, VANDNPD)
//	s = s + p               (s first)
//
// s starts at +0 and so can never become -0 (an exact cancellation
// rounds to +0), so adding +0 leaves every s, NaN and ±Inf included,
// as it was: the masked product is the Go loop's skip. A width that is
// not a multiple of four ends in a block loaded through the mask in
// Y15; its missing columns load as +0, so they are skipped the same
// way. The Go wrapper checks every row index and calls it with a
// multiple of four edges and w at least one.
//
// Registers: SI, DI, R8, R9 the four source rows, R10-R13 the four
// destination rows, BX the column byte offset, CX the byte length of
// the whole blocks, AX a, DX the first edge of the group, R14 the row
// stride in bytes; Y11 a block, Y12 the sums, Y13 +0, Y14 slope, Y15
// the tail mask, Y8-Y10 scratch.

// ACT turns xs (already in row) into its masked products, with xd at
// the memory operand xd.
#define ACT(xd, row) \
	VADDPD    xd, row, row; \
	VCMPPD    $0x11, Y13, row, Y8; \
	VMULPD    Y14, row, Y9; \
	VBLENDVPD Y8, Y9, row, row; \
	VCMPPD    $0x00, Y13, row, Y8; \
	VMULPD    Y11, row, row; \
	VANDNPD   row, Y8, row

// EDGE and MEDGE compute one edge's four products into row: EDGE over
// a whole block, MEDGE over the masked last one.
#define EDGE(src, dst, row) \
	VMOVUPD (src)(BX*1), row; \
	ACT((dst)(BX*1), row)

#define MEDGE(src, dst, row) \
	VMASKMOVPD (src)(BX*1), Y15, row; \
	VMASKMOVPD (dst)(BX*1), Y15, Y10; \
	ACT(Y10, row)

// SUM4 transposes the products of Y0-Y3 into columns and adds them to
// the sums in ascending k.
#define SUM4 \
	VUNPCKLPD   Y1, Y0, Y4; \
	VUNPCKHPD   Y1, Y0, Y5; \
	VUNPCKLPD   Y3, Y2, Y6; \
	VUNPCKHPD   Y3, Y2, Y7; \
	VINSERTF128 $1, X6, Y4, Y0; \
	VINSERTF128 $1, X7, Y5, Y1; \
	VPERM2F128  $0x31, Y6, Y4, Y2; \
	VPERM2F128  $0x31, Y7, Y5, Y3; \
	VADDPD      Y0, Y12, Y12; \
	VADDPD      Y1, Y12, Y12; \
	VADDPD      Y2, Y12, Y12; \
	VADDPD      Y3, Y12, Y12

// ROW loads into reg the address of the row of the matrix at CX whose
// index is at off(BX)(DX*8).
#define ROW(off, reg) \
	MOVQ  off(BX)(DX*8), reg; \
	IMULQ R14, reg; \
	ADDQ  CX, reg

TEXT ·edgeScoresAVX2(SB), NOSPLIT, $0-160
	MOVQ         w+72(FP), R14
	MOVQ         R14, CX
	ANDQ         $3, CX
	JE           nomask
	NEGQ         CX
	LEAQ         tailmask<>(SB), AX
	VMOVUPD      32(AX)(CX*8), Y15

nomask:
	SHLQ         $3, R14
	MOVQ         a_base+128(FP), AX
	VBROADCASTSD slope+152(FP), Y14
	VXORPD       Y13, Y13, Y13
	XORQ         DX, DX

edges:
	CMPQ   DX, score_len+8(FP)
	JGE    edgesdone
	MOVQ   srcAt_base+80(FP), BX
	MOVQ   hs_base+24(FP), CX
	ROW(0, SI)
	ROW(8, DI)
	ROW(16, R8)
	ROW(24, R9)
	MOVQ   dstAt_base+104(FP), BX
	MOVQ   hd_base+48(FP), CX
	ROW(0, R10)
	ROW(8, R11)
	ROW(16, R12)
	ROW(24, R13)
	MOVQ   w+72(FP), CX
	ANDQ   $-4, CX
	SHLQ   $3, CX
	XORQ   BX, BX
	VXORPD Y12, Y12, Y12

blocks:
	CMPQ    BX, CX
	JGE     lastblock
	VMOVUPD (AX)(BX*1), Y11
	EDGE(SI, R10, Y0)
	EDGE(DI, R11, Y1)
	EDGE(R8, R12, Y2)
	EDGE(R9, R13, Y3)
	SUM4
	ADDQ    $32, BX
	JMP     blocks

lastblock:
	TESTQ      $3, w+72(FP)
	JE         store
	VMASKMOVPD (AX)(BX*1), Y15, Y11
	MEDGE(SI, R10, Y0)
	MEDGE(DI, R11, Y1)
	MEDGE(R8, R12, Y2)
	MEDGE(R9, R13, Y3)
	SUM4

store:
	MOVQ    score_base+0(FP), BX
	VMOVUPD Y12, (BX)(DX*8)
	ADDQ    $4, DX
	JMP     edges

edgesdone:
	VZEROUPPER
	RET

// The exp kernels transcribe the FMA path of math.Exp (Go's
// src/math/exp_amd64.s, after Shibata, "Efficient evaluation methods of
// elementary functions suitable for SIMD computation", ISC 2010) to four
// lanes, instruction for instruction: k = round(x·log2(e)) by
// VCVTPD2DQ, two fused reductions x - k·LN2U - k·LN2L, r = x/16, seven
// fused Horner steps, y·(y+2) three times and (y+2)·y+1 once, and the
// scale by 2^k. Every step is one IEEE operation with no table, so each
// lane gets math.Exp's bits. A group in which any lane has k outside
// [-1022, 1023] is left to math.Exp: that covers NaN and ±Inf (whose
// conversion gives the integer indefinite), overflow, and the results
// math.Exp builds as subnormals or zero, below about -708.4.

// Each constant four times over, so it can be a 256-bit memory operand;
// the literals are exp_amd64.s's. The last 32 bytes are four int32s of
// 1023 (the exponent bias and the largest k) and four of -1022 (the
// smallest k).
// 0: log2(e)
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expconst<>+24(SB)/8, $1.4426950408889634073599246810018920
// 32: LN2U, the upper bits of ln(2)
DATA expconst<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA expconst<>+56(SB)/8, $0.69314718055966295651160180568695068359375
// 64: LN2L, the rest
DATA expconst<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expconst<>+96(SB)/8, $0.0625
DATA expconst<>+104(SB)/8, $0.0625
DATA expconst<>+112(SB)/8, $0.0625
DATA expconst<>+120(SB)/8, $0.0625
// 128: 1/8!
DATA expconst<>+128(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+136(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+144(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+152(SB)/8, $2.4801587301587301587e-5
// 160: 1/7!
DATA expconst<>+160(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+168(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+176(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+184(SB)/8, $1.9841269841269841270e-4
// 192: 1/6!
DATA expconst<>+192(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+200(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+208(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+216(SB)/8, $1.3888888888888888889e-3
// 224: 1/5!
DATA expconst<>+224(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+232(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+240(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+248(SB)/8, $8.3333333333333333333e-3
// 256: 1/4!
DATA expconst<>+256(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+264(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+272(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+280(SB)/8, $4.1666666666666666667e-2
// 288: 1/3!
DATA expconst<>+288(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+296(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+304(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+312(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+320(SB)/8, $0.5
DATA expconst<>+328(SB)/8, $0.5
DATA expconst<>+336(SB)/8, $0.5
DATA expconst<>+344(SB)/8, $0.5
DATA expconst<>+352(SB)/8, $1.0
DATA expconst<>+360(SB)/8, $1.0
DATA expconst<>+368(SB)/8, $1.0
DATA expconst<>+376(SB)/8, $1.0
DATA expconst<>+384(SB)/8, $2.0
DATA expconst<>+392(SB)/8, $2.0
DATA expconst<>+400(SB)/8, $2.0
DATA expconst<>+408(SB)/8, $2.0
DATA expconst<>+416(SB)/4, $1023
DATA expconst<>+420(SB)/4, $1023
DATA expconst<>+424(SB)/4, $1023
DATA expconst<>+428(SB)/4, $1023
DATA expconst<>+432(SB)/4, $-1022
DATA expconst<>+436(SB)/4, $-1022
DATA expconst<>+440(SB)/4, $-1022
DATA expconst<>+444(SB)/4, $-1022
GLOBL expconst<>(SB), RODATA|NOPTR, $448

// EXP4 replaces the four lanes of Y1 by their exponentials, or jumps to
// fail with Y1 unchanged when a lane needs math.Exp's special cases. It
// clobbers Y2-Y5. Each step names the scalar instruction it copies; the
// operands of a multiply or add are finite and not NaN wherever the
// group gets this far, so their order cannot change a bit.
#define EXP4(fail) \
	VMULPD       expconst<>+0(SB), Y1, Y2; \
	VCVTPD2DQY   Y2, X3; \
	VPCMPGTD     expconst<>+416(SB), X3, X4; \
	VMOVDQU      expconst<>+432(SB), X5; \
	VPCMPGTD     X3, X5, X5; \
	VPOR         X4, X5, X5; \
	VPTEST       X5, X5; \
	JNE          fail; \
	VCVTDQ2PD    X3, Y2; \
	VMOVAPD      Y1, Y5; \
	VFNMADD231PD expconst<>+32(SB), Y2, Y5; \
	VFNMADD231PD expconst<>+64(SB), Y2, Y5; \
	VMULPD       expconst<>+96(SB), Y5, Y5; \
	VMOVUPD      expconst<>+128(SB), Y4; \
	VFMADD213PD  expconst<>+160(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+192(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+224(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+256(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+288(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+320(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+352(SB), Y5, Y4; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       expconst<>+384(SB), Y5, Y4; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       expconst<>+384(SB), Y5, Y4; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       expconst<>+384(SB), Y5, Y4; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       expconst<>+384(SB), Y5, Y4; \
	VFMADD213PD  expconst<>+352(SB), Y4, Y5; \
	VPADDD       expconst<>+416(SB), X3, X3; \
	VPMOVZXDQ    X3, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y5, Y1

// func expAVX2(v []float64) int
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	XORQ AX, AX

exploop:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JG      expdone
	VMOVUPD (SI)(AX*8), Y1
	EXP4(expdone)
	VMOVUPD Y1, (SI)(AX*8)
	MOVQ    DX, AX
	JMP     exploop

expdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func eluAVX2(v []float64) int
//
// Each group feeds EXP4 its negative lanes and +0 in the others (whose
// k is 0), subtracts one (the exponential first, as Go's
// math.Exp(v) - 1), and blends the results into the negative lanes
// only; Y0 holds v, Y6 the v < 0 mask (false for NaN), Y7 +0.
TEXT ·eluAVX2(SB), NOSPLIT, $0-32
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	XORQ   AX, AX
	VXORPD Y7, Y7, Y7

eluloop:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JG        eludone
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x11, Y7, Y0, Y6
	VANDPD    Y0, Y6, Y1
	EXP4(eludone)
	VSUBPD    expconst<>+352(SB), Y1, Y1
	VBLENDVPD Y6, Y1, Y0, Y0
	VMOVUPD   Y0, (SI)(AX*8)
	MOVQ      DX, AX
	JMP       eluloop

eludone:
	MOVQ AX, ret+24(FP)
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
