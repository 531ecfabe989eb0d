// Package autoscale implements the paper's first case study (§4.1, §6.2):
// an orchestration engine that turns Sieve's dependency graph into
// threshold-based scaling rules. The engine plays the role of Kapacitor
// in the paper's deployment — it streams metric values each tick,
// evaluates rule conditions, and issues scale in/out actions of a single
// instance against the running application, subject to per-component
// cooldowns and instance bounds. Two policy builders are provided, each
// taking a list of targets and a threshold band: the traditional
// per-component CPU rule (the Amazon-AWS-style baseline of Table 4) and
// the Sieve rule driven by the metric that appears most often in Granger
// relations.
package autoscale

import (
	"errors"
	"fmt"
	"strings"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/timeseries"
)

// Rule is one threshold-based scaling rule: when the guiding metric
// crosses UpThreshold the target component gains one instance; below
// DownThreshold it loses one, within 1 to maxInstances instances.
type Rule struct {
	// Target is the component whose instance count the rule adjusts.
	Target string
	// MetricComponent and Metric identify the guiding metric.
	MetricComponent, Metric string
	// UpThreshold and DownThreshold bound the metric's comfort band.
	UpThreshold, DownThreshold float64
}

func (r Rule) validate() error {
	if r.Target == "" || r.Metric == "" || r.MetricComponent == "" {
		return fmt.Errorf("autoscale: incomplete rule %+v", r)
	}
	if r.DownThreshold >= r.UpThreshold {
		return fmt.Errorf("autoscale: rule for %s has inverted thresholds (%g >= %g)",
			r.Target, r.DownThreshold, r.UpThreshold)
	}
	return nil
}

// Action records one executed scaling decision.
type Action struct {
	// TimeMS is the simulation time of the action.
	TimeMS int64
	// Component is the scaled target.
	Component string
	// Delta is +1 (scale out) or -1 (scale in).
	Delta int
	// Instances is the resulting instance count.
	Instances int
}

// probeSmoothing is the EWMA coefficient applied to probe readings.
// Rule engines evaluate windowed streams rather than raw samples
// (Kapacitor's window/mean nodes); smoothing prevents sample noise from
// ping-ponging the scaling decisions.
const probeSmoothing = 0.25

// Probe reads one metric as an instantaneous signal: gauges are read
// directly, counters are converted to per-read deltas (Kapacitor's
// derivative node), and readings are EWMA-smoothed. Unregistered metrics
// read as 0 until they appear.
type Probe struct {
	reg     *metrics.Registry
	metric  string
	last    float64
	seen    bool
	ewma    float64
	started bool
}

// NewProbe creates a probe for component registry reg and metric name.
func NewProbe(reg *metrics.Registry, metric string) *Probe {
	return &Probe{reg: reg, metric: metric}
}

// Value returns the current smoothed value.
func (p *Probe) Value() float64 {
	rd, ok := p.reg.Read(p.metric)
	if !ok {
		return 0
	}
	v := rd.Value
	if rd.Counter {
		if !p.seen {
			p.seen = true
			p.last = v
			v = 0
		} else {
			v, p.last = v-p.last, v
		}
	}
	if !p.started {
		p.started = true
		p.ewma = v
	} else {
		p.ewma = probeSmoothing*v + (1-probeSmoothing)*p.ewma
	}
	return p.ewma
}

// maxInstances caps every rule target's instance count; the floor is 1.
const maxInstances = 10

// Engine evaluates rules against a running application.
type Engine struct {
	app           *app.App
	rules         []Rule
	probes        []*Probe
	cooldownTicks int
	maxInstances  int // the constant; in-package tests lower it
	budget        int
	tick          int
	lastAction    map[string]int
	actions       []Action
}

// SetInstanceBudget caps the total instance count across all rule
// targets, modelling a fixed-capacity testbed (the paper ran on 12 VMs).
// Scale-ups that would exceed the budget are denied. 0 removes the cap.
func (e *Engine) SetInstanceBudget(total int) {
	e.budget = total
}

// totalInstances sums the instance counts of the distinct rule targets.
func (e *Engine) totalInstances() int {
	seen := map[string]bool{}
	total := 0
	for _, r := range e.rules {
		if seen[r.Target] {
			continue
		}
		seen[r.Target] = true
		total += e.app.Instances(r.Target)
	}
	return total
}

// NewEngine creates an engine with the given rules. cooldownTicks is the
// minimum number of ticks between consecutive actions on one component
// (0 means every tick is eligible).
func NewEngine(a *app.App, rules []Rule, cooldownTicks int) (*Engine, error) {
	if a == nil {
		return nil, errors.New("autoscale: nil app")
	}
	if len(rules) == 0 {
		return nil, errors.New("autoscale: no rules")
	}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if a.Registry(r.Target) == nil {
			return nil, fmt.Errorf("autoscale: unknown target component %q", r.Target)
		}
		if a.Registry(r.MetricComponent) == nil {
			return nil, fmt.Errorf("autoscale: unknown metric component %q", r.MetricComponent)
		}
	}
	probes := make([]*Probe, len(rules))
	for i, r := range rules {
		probes[i] = NewProbe(a.Registry(r.MetricComponent), r.Metric)
	}
	return &Engine{
		app:           a,
		rules:         rules,
		probes:        probes,
		cooldownTicks: cooldownTicks,
		maxInstances:  maxInstances,
		lastAction:    map[string]int{},
	}, nil
}

// Step evaluates every rule once; call it after each simulation tick.
func (e *Engine) Step() {
	e.tick++
	for i, r := range e.rules {
		v := e.probes[i].Value()

		var delta int
		switch {
		case v > r.UpThreshold:
			delta = 1
		case v < r.DownThreshold:
			delta = -1
		default:
			continue
		}

		cooldown := e.cooldownTicks
		if delta < 0 {
			cooldown *= scaleInCooldownFactor
		}
		if last, ok := e.lastAction[r.Target]; ok && e.tick-last <= cooldown {
			continue
		}
		cur := e.app.Instances(r.Target)
		next := cur + delta
		if next < 1 || next > e.maxInstances {
			continue
		}
		if delta > 0 && e.budget > 0 && e.totalInstances()+1 > e.budget {
			continue // testbed capacity exhausted
		}
		if err := e.app.Scale(r.Target, next); err != nil {
			continue
		}
		e.lastAction[r.Target] = e.tick
		e.actions = append(e.actions, Action{
			TimeMS:    e.app.Now(),
			Component: r.Target,
			Delta:     delta,
			Instances: next,
		})
	}
}

// Actions returns the executed actions in order.
func (e *Engine) Actions() []Action {
	out := make([]Action, len(e.actions))
	copy(out, e.actions)
	return out
}

// CPUPolicy builds the traditional baseline: one rule per component
// guided by its own cpu_usage gauge, as cloud providers' default
// autoscalers do (§6.2 uses 21%/1% as the refined thresholds).
func CPUPolicy(components []string, up, down float64) []Rule {
	rules := make([]Rule, 0, len(components))
	for _, c := range components {
		rules = append(rules, Rule{
			Target:          c,
			MetricComponent: c,
			Metric:          "cpu_usage",
			UpThreshold:     up,
			DownThreshold:   down,
		})
	}
	return rules
}

// scaleInCooldownFactor stretches the cooldown for scale-in actions:
// capacity is added quickly but removed conservatively, the standard
// autoscaler asymmetry that prevents decay churn after load spikes.
const scaleInCooldownFactor = 12

// SievePolicy builds Sieve's rules: one per target, in the given order,
// each guided by the metric that appears in the most Granger relations
// of the artifact's dependency graph (§4.1 step 1). Which components to
// scale is the deployment's choice, as with CPUPolicy. The paper's
// refined ShareLatex thresholds are 1400 ms (up) and 1120 ms (down) on
// web's http-requests_Project_id_GET_mean.
func SievePolicy(art *core.Artifact, targets []string, up, down float64) ([]Rule, error) {
	if art == nil || art.Graph == nil {
		return nil, errors.New("autoscale: artifact without dependency graph")
	}
	key, n := art.Graph.MostFrequentMetric()
	if n == 0 {
		return nil, errors.New("autoscale: dependency graph has no relations")
	}
	metricComp, metric, _ := strings.Cut(key, "/")
	rules := make([]Rule, 0, len(targets))
	for _, t := range targets {
		rules = append(rules, Rule{
			Target:          t,
			MetricComponent: metricComp,
			Metric:          metric,
			UpThreshold:     up,
			DownThreshold:   down,
		})
	}
	return rules, nil
}

// SLATracker counts violations of a latency SLA of the paper's form:
// "the 90th percentile of request latencies stays below thresholdMS".
// Observations are aggregated into windows; each completed window
// contributes one sample (the paper evaluates 1400 samples over the
// one-hour trace).
type SLATracker struct {
	thresholdMS float64
	windowSize  int
	buf         []float64
	samples     int
	violations  int
}

// NewSLATracker creates a tracker; windowSize is the number of
// observations per sample (>= 1).
func NewSLATracker(thresholdMS float64, windowSize int) *SLATracker {
	if windowSize < 1 {
		windowSize = 1
	}
	return &SLATracker{thresholdMS: thresholdMS, windowSize: windowSize}
}

// Observe records one end-to-end latency observation.
func (s *SLATracker) Observe(latencyMS float64) {
	s.buf = append(s.buf, latencyMS)
	if len(s.buf) < s.windowSize {
		return
	}
	p90 := timeseries.Percentile(s.buf, 90)
	s.samples++
	if p90 > s.thresholdMS {
		s.violations++
	}
	s.buf = s.buf[:0]
}

// Samples returns the number of completed SLA samples.
func (s *SLATracker) Samples() int { return s.samples }

// Violations returns the number of samples that broke the SLA.
func (s *SLATracker) Violations() int { return s.violations }

// RefineThresholds searches for up/down thresholds on a guiding metric
// from a short calibration trace of (metric value, latency) pairs, the
// paper's iterative refinement against the SLA (§4.1 step 3): up is set
// near the largest metric value that still kept latency within the SLA,
// down at a fixed fraction below. A calibration whose signal level is
// not positive admits no band with down < up and is an error.
func RefineThresholds(metricValues, latencies []float64, slaMS float64) (up, down float64, err error) {
	if len(metricValues) == 0 || len(metricValues) != len(latencies) {
		return 0, 0, fmt.Errorf("autoscale: calibration needs equal non-empty traces, got %d and %d",
			len(metricValues), len(latencies))
	}
	// Largest metric value observed while the SLA still held.
	best := 0.0
	any := false
	for i, v := range metricValues {
		if latencies[i] <= slaMS && v > best {
			best, any = v, true
		}
	}
	if !any {
		// The SLA never held; fall back to the smallest observed value so
		// the engine scales out aggressively.
		best, _ = timeseries.MinMax(metricValues)
	}
	// Scale out well before the SLA boundary: reactive scaling needs the
	// ramp time of several cooldown periods, so the trigger sits at 80%
	// of the last-safe signal level (the paper refined iteratively until
	// the SLA held; this is the one-shot equivalent).
	up = best * 0.8
	if up <= 0 {
		return 0, 0, fmt.Errorf("autoscale: calibration signal level %g leaves no threshold band with down < up", best)
	}
	return up, up * 0.8, nil
}
