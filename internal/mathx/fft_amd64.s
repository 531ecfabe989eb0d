#include "textflag.h"

// The AVX kernel: goKernel's loops (fft.go) with two complex128 values
// per 256-bit register, real part in the low double of each 128-bit lane.
// Only VMULPD, VADDPD, VSUBPD and VADDSUBPD do arithmetic, each rounding
// one IEEE operation, so every lane computes what the scalar Go code
// computes: no fused multiply-add, and VADDSUBPD's subtract and add are
// the two halves of Go's complex multiply. The other instructions move,
// duplicate, swap or negate doubles.

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

DATA half<>+0(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

// CMUL sets X to X*W in both lanes, where WR holds W's real parts and WI
// its imaginary parts, each duplicated across its lane. T is scratch.
// With X = (xr, xi): X*WR = (xr*wr, xi*wr), T = (xi*wi, xr*wi), and
// VADDSUBPD subtracts in the low double and adds in the high one:
// (xr*wr - xi*wi, xi*wr + xr*wi), Go's (xr*wr - xi*wi, xr*wi + xi*wr)
// with one commuted addition.
#define CMUL(X, WR, WI, T) \
	VPERMILPD $5, X, T; \
	VMULPD    WR, X, X; \
	VMULPD    WI, T, T; \
	VADDSUBPD T, X, X

// LOADW splits the two twiddles at addr into WR and WI.
#define LOADW(addr, WR, WI) \
	VMOVDDUP  addr, WR; \
	VPERMILPD $15, addr, WI

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func pass1AVX(x, t0, t1 []complex128)
//
// One block of four per iteration: (x0, x2) and (x1, x3) are loaded as
// two registers so both size-2 butterflies run at once, and their
// results are regrouped into (a, b) and (c, d) for the two size-4 ones.
TEXT ·pass1AVX(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ t0_base+24(FP), SI
	MOVQ t1_base+48(FP), DX
	VBROADCASTF128 (SI), Y8
	VMOVDDUP       Y8, Y9
	VPERMILPD      $15, Y8, Y8
	LOADW((DX), Y11, Y10)
	SHLQ           $4, CX
	ADDQ           DI, CX

pass1:
	VMOVUPD     (DI), X0
	VINSERTF128 $1, 32(DI), Y0, Y0 // (x0, x2)
	VMOVUPD     16(DI), X1
	VINSERTF128 $1, 48(DI), Y1, Y1 // (x1, x3)
	CMUL(Y1, Y9, Y8, Y2)           // (b, d)
	VADDPD      Y1, Y0, Y2         // (a+b, c+d)
	VSUBPD      Y1, Y0, Y3         // (a-b, c-d)
	VPERM2F128  $0x20, Y3, Y2, Y4  // (a, b) of the size-4 butterflies
	VPERM2F128  $0x31, Y3, Y2, Y5  // (c, d)
	CMUL(Y5, Y11, Y10, Y6)         // (c*t1[0], d*t1[1])
	VADDPD      Y5, Y4, Y0
	VSUBPD      Y5, Y4, Y1
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $64, DI
	CMPQ        DI, CX
	JB          pass1
	VZEROUPPER
	RET

// func radix4AVX(x, t1, t2 []complex128)
//
// DI, BX, R10 and R11 point at the block's quarters x0..x3; AX is the
// byte offset of butterfly k within each quarter and within t1, and R8
// and R9 point at t2's halves.
TEXT ·radix4AVX(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ t1_base+24(FP), SI
	MOVQ t1_len+32(FP), DX
	MOVQ t2_base+48(FP), R8
	SHLQ $4, DX
	LEAQ (R8)(DX*1), R9
	SHLQ $4, CX
	ADDQ DI, CX

radix4Block:
	LEAQ (DI)(DX*1), BX
	LEAQ (BX)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	XORQ AX, AX

radix4:
	LOADW((SI)(AX*1), Y9, Y8)
	VMOVUPD (BX)(AX*1), Y1
	VMOVUPD (R11)(AX*1), Y3
	CMUL(Y1, Y9, Y8, Y4)      // b
	CMUL(Y3, Y9, Y8, Y5)      // d
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (R10)(AX*1), Y2
	VADDPD  Y1, Y0, Y4        // a+b
	VSUBPD  Y1, Y0, Y5        // a-b
	VADDPD  Y3, Y2, Y6        // c+d
	VSUBPD  Y3, Y2, Y7        // c-d
	LOADW((R8)(AX*1), Y9, Y8)
	CMUL(Y6, Y9, Y8, Y10)
	LOADW((R9)(AX*1), Y12, Y11)
	CMUL(Y7, Y12, Y11, Y13)
	VADDPD  Y6, Y4, Y0
	VSUBPD  Y6, Y4, Y2
	VADDPD  Y7, Y5, Y1
	VSUBPD  Y7, Y5, Y3
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, (BX)(AX*1)
	VMOVUPD Y2, (R10)(AX*1)
	VMOVUPD Y3, (R11)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JB      radix4
	LEAQ    (R11)(DX*1), DI
	CMPQ    DI, CX
	JB      radix4Block
	VZEROUPPER
	RET

// func radix2AVX(x, tab []complex128)
TEXT ·radix2AVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ tab_base+24(FP), SI
	MOVQ tab_len+32(FP), DX
	SHLQ $4, DX
	SHLQ $4, CX
	ADDQ DI, CX

radix2Block:
	LEAQ (DI)(DX*1), BX
	XORQ AX, AX

radix2:
	LOADW((SI)(AX*1), Y9, Y8)
	VMOVUPD (BX)(AX*1), Y1
	CMUL(Y1, Y9, Y8, Y2)
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD Y3, (BX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JB      radix2
	LEAQ    (BX)(DX*1), DI
	CMPQ    DI, CX
	JB      radix2Block
	VZEROUPPER
	RET

// func productAVX(z, a, b, tw []complex128, rev []int32)
//
// Bins k and k+1 per iteration. conj(b) is b with its imaginary sign bit
// flipped, as Go negates; /2 is *0.5, which rounds identically.
TEXT ·productAVX(SB), NOSPLIT, $0-120
	MOVQ         z_base+0(FP), DI
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), BX
	MOVQ         tw_base+72(FP), R8
	MOVQ         tw_len+80(FP), DX
	MOVQ         rev_base+96(FP), R9
	SHLQ         $4, DX
	LEAQ         (SI)(DX*1), R10
	LEAQ         (BX)(DX*1), R11
	VBROADCASTSD signbit<>(SB), Y15
	VBROADCASTSD half<>(SB), Y14
	XORQ         AX, AX

product:
	VMOVUPD      (SI)(AX*1), Y0
	LOADW((BX)(AX*1), Y2, Y3)
	VXORPD       Y15, Y3, Y3
	CMUL(Y0, Y2, Y3, Y4)               // pk = a[k]*conj(b[k])
	VMOVUPD      (R10)(AX*1), Y1
	LOADW((R11)(AX*1), Y5, Y6)
	VXORPD       Y15, Y6, Y6
	CMUL(Y1, Y5, Y6, Y7)               // ph = a[k+h]*conj(b[k+h])
	VADDPD       Y1, Y0, Y8
	VMULPD       Y14, Y8, Y8           // ek = (pk+ph)/2
	VSUBPD       Y1, Y0, Y9
	VMULPD       Y14, Y9, Y9           // (pk-ph)/2
	LOADW((R8)(AX*1), Y10, Y11)
	CMUL(Y9, Y10, Y11, Y12)            // ok
	VPERMILPD    $5, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8            // (re(ek)-im(ok), im(ek)+re(ok))
	MOVLQSX      (R9), R12
	MOVLQSX      4(R9), R13
	SHLQ         $4, R12
	SHLQ         $4, R13
	VMOVUPD      X8, (DI)(R12*1)
	VEXTRACTF128 $1, Y8, (DI)(R13*1)
	ADDQ         $8, R9
	ADDQ         $32, AX
	CMPQ         AX, DX
	JB           product
	VZEROUPPER
	RET
