package mathx

// UseGoKernel makes the Go loops the active kernel, as on a host without
// AVX, until the returned function restores the kernel chosen at init,
// so that package mathx_test can run whole k-Shape sweeps on both. No
// kernel may run while it switches.
func UseGoKernel() (restore func()) {
	saved := kernel
	kernel = &goKernel
	return func() { kernel = saved }
}

// AsmKernel reports whether the kernel chosen at init is an assembly one.
func AsmKernel() bool { return kernel != &goKernel }
