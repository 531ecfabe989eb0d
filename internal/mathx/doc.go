// Package mathx provides the numerical building blocks used across the
// Sieve reproduction: a radix-2 FFT with padding-based cross-correlation,
// small dense linear algebra (Householder QR least squares, power-iteration
// eigensolver), and the special functions (regularized incomplete beta and
// gamma) that back the statistical distribution CDFs needed by the F-test,
// the Augmented Dickey-Fuller test, and the Granger causality machinery.
//
// Everything is implemented from scratch on top of the Go standard library;
// the implementations favour numerical robustness for the moderate problem
// sizes Sieve encounters (time series of 10^2..10^5 points, regression
// designs with tens of columns).
//
// # Concurrency
//
// The pure entry points — FFT, IFFT, RealFFT, RealIFFT, CrossCorrelate,
// Convolve, SolveLeastSquares, DominantEigen, and the distribution
// functions — are safe for concurrent use: their only shared state is
// the process-wide table of per-size FFT plans, which are immutable and
// published through atomic pointers. The scratch-carrying variants
// (CrossCorrelateInto, ConvolveInto, SolveLeastSquaresInto,
// DominantEigenWith) and CorrelateSpectra, whose caller passes the work
// buffer, are safe for concurrent use with DISTINCT scratch values; the scratch types themselves (FFTScratch, LSScratch,
// EigenScratch — and the Scratch types layered on them in
// internal/stats, internal/granger, and internal/kshape) must never be
// shared between goroutines. Fan-outs keep one scratch per worker,
// indexed by parallel.ForEachWorker's worker id.
package mathx
