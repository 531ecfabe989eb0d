package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/autoscale"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// slaThresholdMS is the paper's SLA: p90 of request latencies < 1000 ms.
const slaThresholdMS = 1000

// slaSamples is the paper's sample count over the one-hour trace.
const slaSamples = 1400

// scalableComponents are the stateless ShareLatex services eligible for
// scaling (datastores are excluded, as in typical deployments).
var scalableComponents = []string{
	"chat", "clsi", "contacts", "doc-updater", "docstore", "filestore",
	"haproxy", "real-time", "spelling", "tags", "track-changes", "web",
}

// autoscaleOutcome is one replay's measurements (the Table 4 rows).
type autoscaleOutcome struct {
	meanCPU    float64
	violations int
	samples    int
	actions    int
}

// Table4 regenerates Table 4: the WorldCup-shaped one-hour trace
// replayed twice against ShareLatex, once autoscaled by the traditional
// per-component CPU rule and once by Sieve's selected metric. Thresholds
// for both policies are refined on a peak-load calibration window
// against the SLA, following §6.2. The paper reports that the Sieve
// policy raises mean CPU usage by ~55% (fewer, better-utilized
// instances), cuts SLA violations by ~63%, and issues ~34% fewer scaling
// actions.
func (s *Suite) Table4() (*Result, error) {
	runs, err := s.shareLatexPipelines()
	if err != nil {
		return nil, err
	}
	art := runs[0].artifact

	// Sieve's guiding metric. Table 4 compares *metrics*, not scaling
	// machinery ("a traditional metric (CPU usage) and Sieve's selection
	// when used as autoscaling triggers"), so both policies scale the
	// same component set and differ only in the trigger signal.
	guideKey, relations := art.Graph.MostFrequentMetric()
	if relations == 0 {
		return nil, errors.New("experiments: table4 needs a dependency graph with relations")
	}
	guideComp, guideMetric, _ := strings.Cut(guideKey, "/")

	// A policy builds one side's rules with the threshold band up/down.
	type policy func(up, down float64) ([]autoscale.Rule, error)
	cpuPolicy := func(up, down float64) ([]autoscale.Rule, error) {
		return autoscale.CPUPolicy(scalableComponents, up, down), nil
	}
	sievePolicy := func(up, down float64) ([]autoscale.Rule, error) {
		return autoscale.SievePolicy(art, scalableComponents, up, down)
	}

	pattern := loadgen.WorldCup(s.cfg.Seed+900, s.cfg.AutoscaleTicks, 150, 2400)

	// Calibration: replay the trace without scaling, recording the
	// guiding metric, web's CPU, and the SLA quantity; thresholds are
	// then refined against the SLA (the paper's iterative refinement on
	// a peak sample — the full un-scaled replay covers both the holding
	// and the violating regime, which the refinement needs).
	calibApp, err := sharelatex.New(s.cfg.Seed + 1)
	if err != nil {
		return nil, err
	}
	guideProbe := autoscale.NewProbe(calibApp.Registry(guideComp), guideMetric)
	cpuProbe := autoscale.NewProbe(calibApp.Registry("web"), "cpu_usage")
	var guideVals, cpuVals, latencies []float64
	loadgen.Drive(calibApp, pattern, func(tick int, nowMS int64) {
		guideVals = append(guideVals, guideProbe.Value())
		cpuVals = append(cpuVals, cpuProbe.Value())
		latencies = append(latencies, calibApp.EntryLatencyMS())
	})
	upS, downS, err := autoscale.RefineThresholds(guideVals, latencies, slaThresholdMS)
	if err != nil {
		return nil, err
	}
	// The CPU baseline is refined the same way against the busiest
	// component's CPU. This is where CPU's weakness shows: component CPU
	// does not track the end-to-end SLA, so the refined trigger fires
	// late (the paper's deployment refined to 21%/1% on its hardware).
	upC, downC, err := autoscale.RefineThresholds(cpuVals, latencies, slaThresholdMS)
	if err != nil {
		return nil, err
	}

	// replay runs the trace under pol built with the band up/down.
	replay := func(pol policy, up, down float64) (autoscaleOutcome, error) {
		var out autoscaleOutcome
		rules, err := pol(up, down)
		if err != nil {
			return out, err
		}
		a, err := sharelatex.New(s.cfg.Seed + 2)
		if err != nil {
			return out, err
		}
		// Scale-out cadence proportional to the replay length so quick
		// configurations keep the same spikes-per-cooldown geometry.
		cooldown := s.cfg.AutoscaleTicks / 120
		if cooldown < 5 {
			cooldown = 5
		}
		eng, err := autoscale.NewEngine(a, rules, cooldown)
		if err != nil {
			return out, err
		}
		// Fixed testbed capacity, as in the paper's 12-VM deployment: both
		// policies compete for the same instance pool, so placing capacity
		// on the wrong components starves the bottleneck.
		eng.SetInstanceBudget(32)
		sla := autoscale.NewSLATracker(slaThresholdMS, len(pattern)/slaSamples)
		comps := a.Components()
		var cpuSum float64
		loadgen.Drive(a, pattern, func(tick int, nowMS int64) {
			eng.Step()
			sla.Observe(a.EntryLatencyMS())
			var tickCPU float64
			for _, c := range comps {
				tickCPU += a.Utilization(c) * 100
			}
			cpuSum += tickCPU / float64(len(comps))
		})
		out.meanCPU = cpuSum / float64(len(pattern))
		out.violations = sla.Violations()
		out.samples = sla.Samples()
		out.actions = len(eng.Actions())
		return out, nil
	}

	// Iterative refinement (§4.1 step 3): replay under the candidate
	// thresholds and lower them while SLA violations stay above 5% of the
	// samples, keeping the best replay. Both policies get the same
	// treatment.
	refine := func(pol policy, up, down float64) (autoscaleOutcome, float64, float64, error) {
		best, err := replay(pol, up, down)
		if err != nil {
			return best, up, down, err
		}
		bestUp, bestDown := up, down
		for iter := 0; iter < 3 && best.violations > best.samples/20; iter++ {
			up *= 0.7
			down = up * 0.8
			out, err := replay(pol, up, down)
			if err != nil {
				return best, bestUp, bestDown, err
			}
			if out.violations < best.violations {
				best, bestUp, bestDown = out, up, down
			}
		}
		return best, bestUp, bestDown, nil
	}

	cpuOut, upC, downC, err := refine(cpuPolicy, upC, downC)
	if err != nil {
		return nil, err
	}
	sieveOut, upS, downS, err := refine(sievePolicy, upS, downS)
	if err != nil {
		return nil, err
	}

	values := map[string]float64{
		"cpu_rule_mean_cpu":     cpuOut.meanCPU,
		"sieve_rule_mean_cpu":   sieveOut.meanCPU,
		"cpu_rule_violations":   float64(cpuOut.violations),
		"sieve_rule_violations": float64(sieveOut.violations),
		"cpu_rule_actions":      float64(cpuOut.actions),
		"sieve_rule_actions":    float64(sieveOut.actions),
	}
	// diff is the Difference cell: Sieve's change over the CPU rule,
	// recorded under key. Against a CPU value of 0 there is no ratio, so
	// the cell reads n/a and key stays out of the values.
	diff := func(key string, cpu, sieve float64) string {
		if cpu == 0 {
			return fmt.Sprintf("%9s", "n/a")
		}
		values[key] = (sieve/cpu - 1) * 100
		return fmt.Sprintf("%+8.1f%%", values[key])
	}

	var b strings.Builder
	b.WriteString("Table 4: CPU-threshold autoscaling vs Sieve's metric selection\n")
	fmt.Fprintf(&b, "Guiding metric (Sieve): %s  [thresholds up=%.0f down=%.0f]\n", guideKey, upS, downS)
	fmt.Fprintf(&b, "Guiding metric (CPU):   cpu_usage per component  [thresholds up=%.1f%% down=%.1f%%]\n\n", upC, downC)
	b.WriteString("Metric                               CPU rule     Sieve       Difference  (paper)\n")
	fmt.Fprintf(&b, "Mean CPU usage per component [%%]     %-12.2f %-12.2f %s   (+54.8%%)\n",
		cpuOut.meanCPU, sieveOut.meanCPU, diff("mean_cpu_diff_pct", cpuOut.meanCPU, sieveOut.meanCPU))
	fmt.Fprintf(&b, "SLA violations (out of %d)         %-12d %-12d %s   (-62.8%%)\n",
		cpuOut.samples, cpuOut.violations, sieveOut.violations,
		diff("violations_diff_pct", float64(cpuOut.violations), float64(sieveOut.violations)))
	fmt.Fprintf(&b, "Number of scaling actions            %-12d %-12d %s   (-34.4%%)\n",
		cpuOut.actions, sieveOut.actions, diff("actions_diff_pct", float64(cpuOut.actions), float64(sieveOut.actions)))

	return &Result{
		ID:     "table4",
		Title:  "Autoscaling: traditional CPU rule vs Sieve's selection",
		Text:   b.String(),
		Values: values,
	}, nil
}
