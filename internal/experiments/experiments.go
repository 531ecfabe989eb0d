// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) against the simulated substrate. Each experiment
// returns a Result with a paper-style text table plus the key measured
// values; cmd/experiments prints them and the root benchmarks record
// them. A Suite caches the expensive pipeline runs (the OpenStack
// correct/faulty pair feeds Table 5, Figure 7 and Figure 8; the
// ShareLatex runs feed Figures 3, 4, 6 and Table 3), so regenerating the
// whole evaluation costs five ShareLatex pipelines, two OpenStack
// pipelines, two autoscaling replays, and one HTTP overhead measurement.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/lab"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/rca"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the artifact identifier ("table1" ... "figure8").
	ID string
	// Title is the paper artifact's caption.
	Title string
	// Text is the formatted, paper-style table or series listing.
	Text string
	// Values holds the headline measured numbers keyed by name, for
	// benchmark metrics and the committed oracle ROADMAP item 8 plans.
	Values map[string]float64
}

// Config sizes the experiment runs; build one from DefaultConfig (the
// paper's shapes at laptop scale) or QuickConfig (smoke tests). There
// are no per-field defaults: a zero size is a zero-length run.
type Config struct {
	// ShareLatexTicks is the capture length for ShareLatex pipelines
	// (500 ms ticks; 480 = 4 simulated minutes).
	ShareLatexTicks int
	// ShareLatexRuns is the number of randomized-load repetitions for
	// the robustness experiments (5 in the paper).
	ShareLatexRuns int
	// OpenStackTicks is the capture length for the RCA pipelines.
	OpenStackTicks int
	// AutoscaleTicks is the autoscaling replay length (7200 = one
	// simulated hour, the paper's trace length).
	AutoscaleTicks int
	// HTTPRequests is the request count for the tracing-overhead
	// experiment (10000 in the paper).
	HTTPRequests int
	// Seed drives all simulations.
	Seed int64
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		ShareLatexTicks: 480,
		ShareLatexRuns:  5,
		OpenStackTicks:  480,
		AutoscaleTicks:  7200,
		HTTPRequests:    10000,
		Seed:            42,
	}
}

// QuickConfig returns a configuration small enough for CI smoke tests.
func QuickConfig() Config {
	return Config{
		ShareLatexTicks: 200,
		ShareLatexRuns:  3,
		OpenStackTicks:  200,
		AutoscaleTicks:  1200,
		HTTPRequests:    2000,
		Seed:            42,
	}
}

// shareLatexRun is one cached randomized-load pipeline run.
type shareLatexRun struct {
	artifact *core.Artifact
	capture  *lab.CaptureResult
}

// Suite runs and caches the experiments.
type Suite struct {
	cfg Config

	slOnce sync.Once
	slRuns []shareLatexRun
	slErr  error

	osOnce    sync.Once
	osCorrect *core.Artifact
	osFaulty  *core.Artifact
	osErr     error
}

// NewSuite creates a suite with the given configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{cfg: cfg}
}

// shareLatexPipelines returns the cached randomized ShareLatex runs.
func (s *Suite) shareLatexPipelines() ([]shareLatexRun, error) {
	s.slOnce.Do(func() {
		for i := 0; i < s.cfg.ShareLatexRuns; i++ {
			a, err := sharelatex.New(s.cfg.Seed + int64(i))
			if err != nil {
				s.slErr = err
				return
			}
			pattern := loadgen.Random(s.cfg.Seed+int64(100+i), s.cfg.ShareLatexTicks, 200, 2500)
			art, capture, err := lab.Run(context.Background(), a, pattern, lab.PipelineOptions{
				Reduce: core.DefaultReduceOptions(),
			})
			if err != nil {
				s.slErr = fmt.Errorf("sharelatex run %d: %w", i, err)
				return
			}
			s.slRuns = append(s.slRuns, shareLatexRun{artifact: art, capture: capture})
		}
	})
	return s.slRuns, s.slErr
}

// openStackArtifacts returns the cached correct/faulty pipeline pair.
func (s *Suite) openStackArtifacts() (correct, faulty *core.Artifact, err error) {
	s.osOnce.Do(func() {
		pattern := loadgen.Random(s.cfg.Seed+500, s.cfg.OpenStackTicks, 150, 1500)
		for _, fault := range []bool{false, true} {
			a, err := openstack.New(s.cfg.Seed, fault)
			if err != nil {
				s.osErr = err
				return
			}
			art, _, err := lab.Run(context.Background(), a, pattern, lab.PipelineOptions{
				Reduce: core.DefaultReduceOptions(),
				// A 1 s delay bound gives two candidate lags on the 500 ms
				// grid, so inter-version lag changes are observable
				// (Fig. 7's lag-change events).
				Deps: core.DepOptions{DelayMS: 1000},
			})
			if err != nil {
				s.osErr = fmt.Errorf("openstack faulty=%v: %w", fault, err)
				return
			}
			if fault {
				s.osFaulty = art
			} else {
				s.osCorrect = art
			}
		}
	})
	return s.osCorrect, s.osFaulty, s.osErr
}

// diagnose runs the RCA engine at the given similarity threshold.
func (s *Suite) diagnose(threshold float64) (*rca.Report, error) {
	correct, faulty, err := s.openStackArtifacts()
	if err != nil {
		return nil, err
	}
	return rca.Diagnose(correct, faulty, rca.Options{SimilarityThreshold: threshold})
}

// experiment is one regenerable table or figure.
type experiment struct {
	id  string
	run func(*Suite) (*Result, error)
}

// catalog lists every experiment in paper order. It is a function, not a
// package-level variable, because TestEveryFunctionIsReachable roots
// every package-level initialiser: the experiments must stay reached
// through the commands that list them.
func catalog() []experiment {
	return []experiment{
		{"table1", (*Suite).Table1},
		{"figure3", (*Suite).Figure3},
		{"figure4", (*Suite).Figure4},
		{"figure5", (*Suite).Figure5},
		{"table3", (*Suite).Table3},
		{"figure6", (*Suite).Figure6},
		{"table4", (*Suite).Table4},
		{"table5", (*Suite).Table5},
		{"figure7", (*Suite).Figure7},
		{"figure8", (*Suite).Figure8},
	}
}

// All runs every experiment in paper order.
func (s *Suite) All() ([]*Result, error) {
	experiments := catalog()
	out := make([]*Result, 0, len(experiments))
	for _, e := range experiments {
		r, err := e.run(s)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID runs one experiment by identifier.
func (s *Suite) ByID(id string) (*Result, error) {
	for _, e := range catalog() {
		if e.id == strings.ToLower(id) {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (%s)", id, strings.Join(IDs(), ", "))
}

// IDs lists the available experiment identifiers in paper order.
func IDs() []string {
	experiments := catalog()
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// warmApp steps an application briefly so lazily-created metrics exist.
func warmApp(a *app.App, ticks int, rps float64) {
	for i := 0; i < ticks; i++ {
		a.Step(rps)
	}
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
