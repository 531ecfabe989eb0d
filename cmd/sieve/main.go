// Command sieve runs the full three-step pipeline against one of the
// bundled application simulators and prints the reduction summary and
// the inferred dependency graph.
//
// Usage:
//
//	sieve [-app sharelatex|openstack] [-faulty] [-ticks N] [-seed N] [-dot] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sieve-microservices/sieve"
)

func main() {
	appName := flag.String("app", "sharelatex", "application to analyze (sharelatex or openstack)")
	faulty := flag.Bool("faulty", false, "openstack only: activate Launchpad bug #1533942")
	ticks := flag.Int("ticks", 480, "load duration in 500ms ticks")
	seed := flag.Int64("seed", 42, "simulation seed")
	dot := flag.Bool("dot", false, "print the dependency graph in Graphviz DOT format")
	verbose := flag.Bool("v", false, "print every metric-level edge")
	save := flag.String("save", "", "write the artifact as JSON to this path")
	flag.Parse()

	if err := run(*appName, *faulty, *ticks, *seed, *dot, *verbose, *save); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(appName string, faulty bool, ticks int, seed int64, dot, verbose bool, save string) error {
	if ticks <= 0 {
		return fmt.Errorf("-ticks %d: must be at least 1", ticks)
	}
	if faulty && appName != "openstack" {
		return fmt.Errorf("-faulty: the injected bug is OpenStack's, not %s's (add -app openstack)", appName)
	}
	var (
		app *sieve.App
		err error
	)
	switch appName {
	case "sharelatex":
		app, err = sieve.NewShareLatex(seed)
	case "openstack":
		app, err = sieve.NewOpenStack(seed, faulty)
	default:
		return fmt.Errorf("unknown app %q (sharelatex or openstack)", appName)
	}
	if err != nil {
		return err
	}

	pattern := sieve.RandomLoad(seed+1, ticks, 150, 2000)
	artifact, capture, err := sieve.Run(app, pattern, sieve.DefaultPipelineOptions())
	if err != nil {
		return err
	}

	fmt.Printf("application: %s (%d components)\n", artifact.App, len(artifact.Dataset.Components()))
	fmt.Printf("capture: %d metrics over %d ticks (%d points stored, %d KB wire)\n",
		artifact.Dataset.TotalMetrics(), ticks,
		capture.DB.Stats().Points, capture.DB.Stats().NetworkInBytes/1024)
	before, after := artifact.Reduction.TotalBefore(), artifact.Reduction.TotalAfter()
	ratio := "n/a" // too short a capture to cluster: nothing survives
	if after > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(before)/float64(after))
	}
	fmt.Printf("reduction: %d -> %d metrics (%s)\n", before, after, ratio)

	for _, comp := range artifact.Dataset.Components() {
		cr := artifact.Reduction[comp]
		fmt.Printf("  %-18s %3d metrics -> %d clusters (silhouette %.2f)\n",
			comp, cr.Total, len(cr.Clusters), cr.Silhouette)
	}

	fmt.Printf("\ndependencies: %d edges across %d component pairs (%d tested, %d bidirectional filtered)\n",
		len(artifact.Graph.Edges), len(artifact.Graph.ComponentPairs()),
		artifact.Graph.Tested, artifact.Graph.Bidirectional)
	if verbose {
		for _, e := range artifact.Graph.Edges {
			fmt.Printf("  %s/%s -> %s/%s (lag %dms, p=%.2g)\n",
				e.From, e.FromMetric, e.To, e.ToMetric, e.LagMS, e.PValue)
		}
	}
	signal := "(none)" // no Granger relation, so no scaling signal
	if key, n := artifact.Graph.MostFrequentMetric(); n > 0 {
		signal = fmt.Sprintf("%s (%d relations)", key, n)
	}
	fmt.Printf("most frequent metric in relations: %s\n", signal)

	if dot {
		fmt.Println("\n" + artifact.Graph.DOT())
	}
	if save != "" {
		data, err := sieve.MarshalArtifact(artifact)
		if err != nil {
			return err
		}
		if err := os.WriteFile(save, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("artifact written to %s (%d KB)\n", save, len(data)/1024)
	}
	return nil
}
