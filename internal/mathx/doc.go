// Package mathx provides the numerical building blocks used across the
// Sieve reproduction: a radix-2 FFT with the real-input transform and the
// fused spectrum correlation every shape-based distance goes through, the
// scan for a correlation's peak (LargestPart, FirstPartAtLeast), a
// four-lane dot product (Dot) and the two products of an implicit Gram
// operator over member rows (Rows), small dense linear algebra
// (Householder QR least squares, power-iteration eigensolver), and the
// regularized incomplete beta function behind the F distribution's
// survival function, which the nested-model F-test of the Granger
// causality machinery needs.
//
// Everything is implemented from scratch on top of the Go standard library;
// the implementations favour numerical robustness for the moderate problem
// sizes Sieve encounters (time series of 10^2..10^5 points, regression
// designs with tens of columns). The one exception is the loops k-Shape
// spends its time in: the FFT's butterfly passes and the correlation's
// product loop (fft_amd64.s), the peak scan, Dot and the Rows products
// (lanes_amd64.s) run in assembly on amd64 with AVX, chosen once at init,
// with the same IEEE operations as the Go loops every other host runs,
// so every non-NaN result is bit-identical. Where an order of operations
// is part of a result, the Go loops keep the assembly's: Dot sums in four
// lanes everywhere, and the Rows dot products run over each row in order.
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
// work buffer. The scratch types themselves (LSScratch, EigenScratch, Rows —
// and the Scratch types layered on them in internal/stats,
// internal/granger, and internal/kshape) must never be shared between
// goroutines. Fan-outs keep one scratch per worker, indexed by
// parallel.ForEachWorker's worker id.
package mathx
