// Command loadgen generates workload patterns (WorldCup-shaped, random,
// constant, or step) and either prints them as CSV or replays them
// against a bundled application simulator, reporting per-tick entry
// latency and utilization.
//
// Usage:
//
//	loadgen -kind worldcup -ticks 7200                 # print CSV
//	loadgen -kind random -drive sharelatex -ticks 600  # replay and report
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/sieve-microservices/sieve"
)

func main() {
	kind := flag.String("kind", "worldcup", "pattern kind: worldcup, random, constant, steps")
	ticks := flag.Int("ticks", 7200, "pattern length in 500ms ticks")
	seed := flag.Int64("seed", 42, "generator seed")
	base := flag.Float64("base", 150, "base requests/second")
	peak := flag.Float64("peak", 2600, "peak requests/second")
	drive := flag.String("drive", "", "replay against an app: sharelatex or openstack")
	flag.Parse()

	if err := run(*kind, *ticks, *seed, *base, *peak, *drive); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(kind string, ticks int, seed int64, base, peak float64, drive string) error {
	if ticks <= 0 {
		return fmt.Errorf("-ticks %d: must be at least 1", ticks)
	}
	flags, rates := [2]string{"-base", "-peak"}, [2]float64{base, peak}
	for i, rps := range rates {
		if math.IsNaN(rps) || math.IsInf(rps, 0) || rps < 0 {
			return fmt.Errorf("%s %g: must be a finite, non-negative requests/second", flags[i], rps)
		}
	}
	var pattern sieve.Pattern
	switch kind {
	case "worldcup":
		pattern = sieve.WorldCupLoad(seed, ticks, base, peak)
	case "random":
		pattern = sieve.RandomLoad(seed, ticks, base, peak)
	case "constant":
		pattern = sieve.ConstantLoad(base, ticks)
	case "steps":
		pattern = stepPattern(base, peak, ticks)
	default:
		return fmt.Errorf("unknown pattern kind %q", kind)
	}

	if drive == "" {
		fmt.Println("tick,rps")
		for i, v := range pattern {
			fmt.Printf("%d,%.2f\n", i, v)
		}
		return nil
	}

	var (
		app *sieve.App
		err error
	)
	switch drive {
	case "sharelatex":
		app, err = sieve.NewShareLatex(seed)
	case "openstack":
		app, err = sieve.NewOpenStack(seed, false)
	default:
		return fmt.Errorf("unknown app %q", drive)
	}
	if err != nil {
		return err
	}

	fmt.Println("tick,rps,entry_latency_ms,max_utilization")
	comps := app.Components()
	for i, rps := range pattern {
		app.Step(rps)
		maxUtil := 0.0
		for _, c := range comps {
			if u := app.Utilization(c); u > maxUtil {
				maxUtil = u
			}
		}
		fmt.Printf("%d,%.1f,%.1f,%.3f\n", i, rps, app.EntryLatencyMS(), maxUtil)
	}
	return nil
}

func stepPattern(low, high float64, ticks int) sieve.Pattern {
	p := make(sieve.Pattern, ticks)
	for i := range p {
		if (i/60)%2 == 0 {
			p[i] = low
		} else {
			p[i] = high
		}
	}
	return p
}
