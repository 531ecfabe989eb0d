package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/lab"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Table3 regenerates Table 3: the monitoring stack's resource usage
// before and after Sieve's metric reduction. The full ShareLatex metric
// population is collected through the Telegraf-like collector into the
// Gorilla-compressed store, then the same workload is replayed shipping
// only the representative metrics selected by the pipeline. The paper
// reports reductions of 81.2% CPU, 93.8% DB size, 79.3% network-in and
// 50.7% network-out.
func (s *Suite) Table3() (*Result, error) {
	runs, err := s.shareLatexPipelines()
	if err != nil {
		return nil, err
	}
	allow := runs[0].artifact.Reduction.AllowlistKeys()

	measure := func(allowlist []string) (cpuSec float64, dbBytes, netIn, netOut int, err error) {
		a, err := sharelatex.New(s.cfg.Seed)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		pattern := loadgen.Random(s.cfg.Seed+100, s.cfg.ShareLatexTicks, 200, 2500)
		capture, err := lab.Capture(context.Background(), a, pattern, lab.CaptureOptions{Allowlist: allowlist})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		// Dashboard/autoscaler traffic: one full-window read of every stored
		// series (the paper's network-out includes query responses).
		q := tsdb.RangeQuery{Component: "*", Metric: "*", From: 0, To: a.Now()}
		if _, err := capture.DB.QueryRange(context.Background(), q); err != nil {
			return 0, 0, 0, 0, err
		}
		capture.DB.Flush()
		st := capture.DB.Stats()
		cpu := st.IngestCPU.Seconds() + capture.Collector.Stats().EncodeCPU.Seconds()
		return cpu, st.StorageBytes, st.NetworkInBytes, st.NetworkOutBytes, nil
	}

	fullCPU, fullDB, fullIn, fullOut, err := measure(nil)
	if err != nil {
		return nil, err
	}
	redCPU, redDB, redIn, redOut, err := measure(allow)
	if err != nil {
		return nil, err
	}

	pct := func(before, after float64) float64 {
		if before == 0 {
			return 0
		}
		return (1 - after/before) * 100
	}
	cpuRed := pct(fullCPU, redCPU)
	dbRed := pct(float64(fullDB), float64(redDB))
	inRed := pct(float64(fullIn), float64(redIn))
	outRed := pct(float64(fullOut), float64(redOut))

	var b strings.Builder
	b.WriteString("Table 3: monitoring overhead before/after Sieve's reduction\n")
	b.WriteString("Metric            Before       After        Reduction   (paper)\n")
	fmt.Fprintf(&b, "CPU time [s]      %-12.4f %-12.4f %6.1f%%     (81.2%%)\n", fullCPU, redCPU, cpuRed)
	fmt.Fprintf(&b, "DB size [KB]      %-12.1f %-12.1f %6.1f%%     (93.8%%)\n", float64(fullDB)/1024, float64(redDB)/1024, dbRed)
	fmt.Fprintf(&b, "Network in [KB]   %-12.1f %-12.1f %6.1f%%     (79.3%%)\n", float64(fullIn)/1024, float64(redIn)/1024, inRed)
	fmt.Fprintf(&b, "Network out [KB]  %-12.1f %-12.1f %6.1f%%     (50.7%%)\n", float64(fullOut)/1024, float64(redOut)/1024, outRed)
	fmt.Fprintf(&b, "(%d metrics shipped before, %d after)\n", runs[0].artifact.Reduction.TotalBefore(), len(allow))

	return &Result{
		ID:    "table3",
		Title: "Monitoring overhead gains from metric reduction",
		Text:  b.String(),
		Values: map[string]float64{
			"cpu_reduction_pct":     cpuRed,
			"db_reduction_pct":      dbRed,
			"net_in_reduction_pct":  inRed,
			"net_out_reduction_pct": outRed,
		},
	}, nil
}
