package mathx

// avxKernel runs goKernel's floating-point operations, in the same order
// and on the same operands, two complex128 values per 256-bit instruction
// (fft_amd64.s). It uses no fused multiply-add, so every lane rounds
// exactly like the scalar Go code, which amd64 never fuses either.
var avxKernel = sbdKernel{pass1AVX, radix4AVX, radix2AVX, productAVX}

func init() {
	if hasAVX() {
		kernel = &avxKernel
	}
}

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and AVX, then
// XCR0 bits 1 and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX passes have sbdKernel's contracts, and more: every count of
// butterflies per block (len(tab), q, h) is even, which sbdKernel's
// callers guarantee by sending size-2 work to goKernel.

//go:noescape
func pass1AVX(x, t0, t1 []complex128)

//go:noescape
func radix4AVX(x, t1, t2 []complex128)

//go:noescape
func radix2AVX(x, tab []complex128)

//go:noescape
func productAVX(z, a, b, tw []complex128, rev []int32)
