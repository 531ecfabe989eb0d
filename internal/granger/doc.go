// Package granger implements the Granger-causality machinery Sieve
// uses to infer metric dependencies between communicating components
// (§3.3). A metric X "Granger-causes" Y when the history of X improves
// the prediction of Y beyond what Y's own history achieves; the
// comparison is a nested-model F-test between
//
//	restricted:    y_t = a0 + Σ_{i=1..L} a_i·y_{t-i}
//	unrestricted:  y_t = a0 + Σ_{i=1..L} a_i·y_{t-i} + Σ_{i=1..L} b_i·x_{t-i}
//
// over lags L up to the configured delay bound (the paper uses 500 ms
// of grid steps). Non-stationary inputs (detected with the plain
// Dickey-Fuller test: stats.ADFWith at zero augmentation lags, no
// Schwert rule) are first-differenced, since the F-test finds spurious
// regressions on unit-root series (Granger & Newbold 1974). The
// significance level (Alpha, 0.05) and the autoregressive order of both
// models (3) are constants; the cross lag is the only option.
// Bidirectional results are treated as spurious — a hidden confounder
// driving both metrics — and filtered by the caller via Direction.
//
// The pipeline's step 3 calls Prepare once per representative metric:
// the stationarity pre-check and the restricted regressions depend on no
// partner. DirectionPrepared then runs once per (representative,
// representative) pair of communicating components: it aligns the pair on
// one time base, fits the two unrestricted regressions per lag, and
// returns the winning causality with the lag and F-test p-value that
// become a DependencyEdge in the artifact's graph. Direction
// (DirectionWith with a caller-owned Scratch) is the same test on two raw
// series: prepare, prepare, then the prepared test. Of each lag
// regression only the residual sum of squares is read: it is all the
// F-test needs.
package granger
