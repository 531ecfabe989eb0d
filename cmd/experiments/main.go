// Command experiments regenerates the paper's evaluation tables and
// figures (§6) against the simulated substrate and prints them in a
// paper-style text form.
//
// Usage:
//
//	experiments [-run all|table1|table3|table4|table5|figure3..figure8] [-quick] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sieve-microservices/sieve/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id to run (all, "+strings.Join(experiments.IDs(), ", "))
	quick := flag.Bool("quick", false, "use the small smoke-test configuration")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed
	suite := experiments.NewSuite(cfg)

	var (
		results []*experiments.Result
		err     error
	)
	start := time.Now()
	if strings.EqualFold(*run, "all") {
		results, err = suite.All()
	} else {
		var r *experiments.Result
		r, err = suite.ByID(*run)
		if r != nil {
			results = append(results, r)
		}
	}
	for _, r := range results {
		fmt.Printf("==== %s: %s ====\n%s\n", r.ID, r.Title, r.Text)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("regenerated %d artifact(s) in %s\n", len(results), time.Since(start).Round(time.Millisecond))
}
