// Package mathx provides the numerical building blocks used across the
// Sieve reproduction: a radix-2 FFT with the real-input transform and the
// fused spectrum correlation every shape-based distance goes through,
// small dense linear algebra (Householder QR least squares, power-iteration
// eigensolver), and the regularized incomplete beta function behind the
// F distribution's survival function, which the nested-model F-test of
// the Granger causality machinery needs.
//
// Everything is implemented from scratch on top of the Go standard library;
// the implementations favour numerical robustness for the moderate problem
// sizes Sieve encounters (time series of 10^2..10^5 points, regression
// designs with tens of columns). The one exception is the FFT's butterfly
// passes and the correlation's product loop: on amd64 with AVX they run
// in assembly (fft_amd64.s), chosen once at init, with the same IEEE
// operations as the Go loops every other host runs, so every non-NaN
// result is bit-identical.
//
// # Concurrency
//
// Every function writes only into buffers its caller passes, so all of
// them are safe for concurrent use on distinct buffers: the only shared
// state is the process-wide table of per-size FFT plans, which are
// immutable and published through atomic pointers, and the kernel choice,
// written once during package initialization. That includes
// SolveLeastSquaresInto and DominantEigenWith, whose workspace is an
// explicit scratch value, and CorrelateSpectra, whose caller passes the
// work buffer. The scratch types themselves (LSScratch, EigenScratch —
// and the Scratch types layered on them in internal/stats,
// internal/granger, and internal/kshape) must never be shared between
// goroutines. Fan-outs keep one scratch per worker, indexed by
// parallel.ForEachWorker's worker id.
package mathx
