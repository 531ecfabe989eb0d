#include "textflag.h"

// The AVX kernels of the peak scan, the spectral bound and shape
// extraction's operator (lanes.go): four float64 values per 256-bit
// register. VMULPD, VADDPD, VSUBPD, VMULSD and VADDSD are the only
// arithmetic, each rounding one IEEE operation per lane; there is no
// fused multiply-add. VMAXPD and VCMPPD only compare.

DATA neginf<>+0(SB)/8, $0xfff0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $8

// func dotsAVX(dst, inter, c []float64)
//
// Lanes across rows: one register holds a group's four rows at column j,
// so each lane adds its row's products over j in ascending order. Four
// groups go per pass over c, each with its own accumulator; a last batch
// of one to three groups points the missing ones at its first group and
// does not store them.
TEXT ·dotsAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ inter_base+24(FP), SI
	MOVQ c_base+48(FP), BX
	MOVQ c_len+56(FP), DX
	MOVQ DX, R8
	SHLQ $5, R8                // bytes per group
	SHRQ $2, CX                // groups left

dotsBatch:
	TESTQ CX, CX
	JZ    dotsDone
	MOVQ  SI, R9
	MOVQ  SI, R10
	MOVQ  SI, R11
	CMPQ  CX, $2
	JB    dotsPointers
	LEAQ  (SI)(R8*1), R9
	CMPQ  CX, $3
	JB    dotsPointers
	LEAQ  (R9)(R8*1), R10
	CMPQ  CX, $4
	JB    dotsPointers
	LEAQ  (R10)(R8*1), R11

dotsPointers:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX              // byte offset of c[j]
	XORQ   R12, R12            // byte offset of column j in a group
	TESTQ  DX, DX
	JZ     dotsStore

dotsColumn:
	VBROADCASTSD (BX)(AX*1), Y4
	VMULPD       (SI)(R12*1), Y4, Y5
	VMULPD       (R9)(R12*1), Y4, Y6
	VMULPD       (R10)(R12*1), Y4, Y7
	VMULPD       (R11)(R12*1), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, AX
	ADDQ         $32, R12
	CMPQ         R12, R8
	JB           dotsColumn

dotsStore:
	VMOVUPD Y0, (DI)
	CMPQ    CX, $2
	JB      dotsDone
	VMOVUPD Y1, 32(DI)
	CMPQ    CX, $3
	JB      dotsDone
	VMOVUPD Y2, 64(DI)
	CMPQ    CX, $4
	JB      dotsDone
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R11)(R8*1), SI
	SUBQ    $4, CX
	JMP     dotsBatch

dotsDone:
	VZEROUPPER
	RET

// SKIPZERO loads the weight at W into X4 and jumps to skip when it is
// zero, of either sign; a NaN weight compares not-equal (NEQ_UQ) and is
// used. X15 holds +0; X14 and R13 are scratch.
#define SKIPZERO(W, skip) \
	VMOVSD (W), X4; \
	VCMPSD $4, X15, X4, X14; \
	VMOVQ  X14, R13; \
	TESTQ  R13, R13; \
	JZ     skip

// func addScaledAVX(dst []float64, rows [][]float64, w []float64)
//
// Lanes across columns: an accumulator holds dst[j..j+3], starts at +0
// and adds w[r]*rows[r][j..j+3] for every row r in ascending order whose
// weight is not zero. Sixteen columns go per pass over the rows, then
// four, then one at a time with the scalar instructions.
TEXT ·addScaledAVX(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), R8
	MOVQ   rows_base+24(FP), SI
	MOVQ   rows_len+32(FP), CX
	MOVQ   w_base+48(FP), BX
	SHLQ   $3, R8              // bytes of dst
	VXORPD X15, X15, X15
	XORQ   AX, AX              // byte offset of column j

add16:
	LEAQ   128(AX), DX
	CMPQ   DX, R8
	JA     add4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     add16Store

add16Row:
	SKIPZERO(R11, add16Next)
	VBROADCASTSD (R11), Y4
	MOVQ         (R10), DX
	VMULPD       (DX)(AX*1), Y4, Y5
	VMULPD       32(DX)(AX*1), Y4, Y6
	VMULPD       64(DX)(AX*1), Y4, Y7
	VMULPD       96(DX)(AX*1), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

add16Next:
	ADDQ $24, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  add16Row

add16Store:
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     add16

add4:
	LEAQ   32(AX), DX
	CMPQ   DX, R8
	JA     add1
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     add4Store

add4Row:
	SKIPZERO(R11, add4Next)
	VBROADCASTSD (R11), Y4
	MOVQ         (R10), DX
	VMULPD       (DX)(AX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0

add4Next:
	ADDQ $24, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  add4Row

add4Store:
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     add4

add1:
	CMPQ   AX, R8
	JAE    addDone
	VXORPD X0, X0, X0
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     add1Store

add1Row:
	SKIPZERO(R11, add1Next)
	MOVQ   (R10), DX
	VMULSD (DX)(AX*1), X4, X5
	VADDSD X5, X0, X0

add1Next:
	ADDQ $24, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  add1Row

add1Store:
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func dotAVX(a, b []float64) float64
//
// Dot's lane order: lane l of one accumulator adds a[k]*b[k] for
// k = l mod 4 over the whole groups of four, lane 0 then adds the rest,
// and two horizontal adds give (lane0 + lane1) + (lane2 + lane3).
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	MOVQ   CX, DX
	ANDQ   $-4, DX
	SHLQ   $3, DX
	SHLQ   $3, CX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

dot4:
	CMPQ    AX, DX
	JAE     dotTail
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, AX
	JMP     dot4

dotTail:
	// The scalar instructions clear the upper half of their register, so
	// lanes 2 and 3 move out first.
	VEXTRACTF128 $1, Y0, X2

dot1:
	CMPQ   AX, CX
	JAE    dotSum
	VMOVSD (SI)(AX*1), X1
	VMULSD (DI)(AX*1), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, AX
	JMP    dot1

dotSum:
	VHADDPD X2, X0, X0         // (lane0 + lane1, lane2 + lane3)
	VHADDPD X0, X0, X0
	VMOVSD  X0, ret+48(FP)
	VZEROUPPER
	RET

// func largestPartAVX(z []complex128, from, to int) (largest float64, finite bool)
//
// Parts from..to-1 are consecutive doubles from &z[0] + 8*from. Four
// VMAXPD accumulators take sixteen parts per iteration; the maximum of
// finite values does not depend on the order it is taken in. x - x is +0
// for a finite x and NaN otherwise, so OR-ing those bits together leaves
// zero exactly when every part is finite.
TEXT ·largestPartAVX(SB), NOSPLIT, $0-49
	MOVQ         z_base+0(FP), SI
	MOVQ         from+24(FP), AX
	MOVQ         to+32(FP), CX
	LEAQ         (SI)(AX*8), SI
	SUBQ         AX, CX
	VBROADCASTSD neginf<>(SB), Y0
	VMOVAPD      Y0, Y1
	VMOVAPD      Y0, Y2
	VMOVAPD      Y0, Y3
	VXORPD       Y4, Y4, Y4

large16:
	CMPQ    CX, $16
	JB      large4
	VMOVUPD (SI), Y5
	VMOVUPD 32(SI), Y6
	VMOVUPD 64(SI), Y7
	VMOVUPD 96(SI), Y8
	VMAXPD  Y5, Y0, Y0
	VMAXPD  Y6, Y1, Y1
	VMAXPD  Y7, Y2, Y2
	VMAXPD  Y8, Y3, Y3
	VSUBPD  Y5, Y5, Y5
	VSUBPD  Y6, Y6, Y6
	VSUBPD  Y7, Y7, Y7
	VSUBPD  Y8, Y8, Y8
	VORPD   Y6, Y5, Y5
	VORPD   Y8, Y7, Y7
	VORPD   Y7, Y5, Y5
	VORPD   Y5, Y4, Y4
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     large16

large4:
	CMPQ    CX, $4
	JB      largeFold
	VMOVUPD (SI), Y5
	VMAXPD  Y5, Y0, Y0
	VSUBPD  Y5, Y5, Y5
	VORPD   Y5, Y4, Y4
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     large4

largeFold:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VEXTRACTF128 $1, Y4, X5
	VORPD        X5, X4, X4
	VPERMILPD    $1, X4, X5
	VORPD        X5, X4, X4

large1:
	TESTQ  CX, CX
	JZ     largeDone
	VMOVSD (SI), X5
	VMAXSD X5, X0, X0
	VSUBSD X5, X5, X5
	VORPD  X5, X4, X4
	ADDQ   $8, SI
	DECQ   CX
	JMP    large1

largeDone:
	VMOVSD X0, largest+40(FP)
	VMOVQ  X4, AX
	TESTQ  AX, AX
	SETEQ  finite+48(FP)
	VZEROUPPER
	RET

// func firstAtLeastAVX(z []complex128, from, to int, v float64) int
//
// VCMPPD with predicate LE_OQ sets a lane where v <= part, false for a
// NaN part, as Go's part >= v is. Sixteen parts are tested per iteration;
// a block with a hit is searched again four parts at a time, and the
// lowest set bit of the mask is the first hit of its four.
TEXT ·firstAtLeastAVX(SB), NOSPLIT, $0-56
	MOVQ         z_base+0(FP), SI
	MOVQ         from+24(FP), AX
	MOVQ         to+32(FP), CX
	VBROADCASTSD v+40(FP), Y0

first16:
	LEAQ      16(AX), DX
	CMPQ      DX, CX
	JA        first4
	VCMPPD    $0x12, (SI)(AX*8), Y0, Y1
	VCMPPD    $0x12, 32(SI)(AX*8), Y0, Y2
	VCMPPD    $0x12, 64(SI)(AX*8), Y0, Y3
	VCMPPD    $0x12, 96(SI)(AX*8), Y0, Y4
	VORPD     Y2, Y1, Y1
	VORPD     Y4, Y3, Y3
	VORPD     Y3, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTQ     DX, DX
	JNZ       first4
	ADDQ      $16, AX
	JMP       first16

first4:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JA        first1
	VCMPPD    $0x12, (SI)(AX*8), Y0, Y1
	VMOVMSKPD Y1, DX
	TESTQ     DX, DX
	JNZ       firstFound
	ADDQ      $4, AX
	JMP       first4

first1:
	CMPQ      AX, CX
	JAE       firstDone
	VMOVSD    (SI)(AX*8), X1
	VCMPSD    $0x12, X1, X0, X1
	VMOVMSKPD X1, DX
	TESTQ     $1, DX
	JNZ       firstDone
	INCQ      AX
	JMP       first1

firstFound:
	BSFQ DX, DX
	ADDQ DX, AX

firstDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
