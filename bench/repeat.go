package main

import (
	"fmt"
	"os"
)

// runRepeat runs the named workloads n times, run i with seed+i (the
// benchmark driver also varies the seed between runs), and prints every
// end-to-end metric's median, quartiles and relative spread — the
// distance between the quartiles as a share of the median — against the
// metric's bound. It returns non-zero when a spread (other than
// setup_s's, which the driver exempts) exceeds its bound or a run was
// incorrect.
func runRepeat(e *env, cfg runConfig, names []string, n int) int {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	code := 0
	for i := 0; i < n; i++ {
		run := cfg
		run.seed = cfg.seed + int64(i)
		for _, name := range names {
			r, err := runWorkload(e, run, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !r.correct() {
				r.printTable(os.Stdout, cfg.trace)
				code = 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[name][d.Name] = append(values[name][d.Name], r.get(d.Name))
			}
			fmt.Printf("repeat %d/%d seed %d %s done\n", i+1, n, run.seed, name)
		}
	}
	for _, name := range names {
		fmt.Printf("\n== %s: %d runs, seeds %d..%d ==\n", name, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Printf("%-16s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[name][d.Name])
			spread := (q3 - q1) / q2
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				code = 1
			} else if spread > d.Bound/3 {
				verdict = "  (above a third of the bound)"
			}
			fmt.Printf("%-16s %-6s %12s %12s %12s %8.3f %6.2f%s\n", d.Name, d.Unit,
				formatValue(q1), formatValue(q2), formatValue(q3), spread, d.Bound, verdict)
			fmt.Printf("%16s", "runs:")
			for _, v := range values[name][d.Name] {
				fmt.Printf(" %s", formatValue(v))
			}
			fmt.Println()
		}
	}
	return code
}
