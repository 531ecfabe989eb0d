// Quickstart: build a tiny three-tier application, run the full Sieve
// pipeline on it, and print what Sieve learned — which metrics matter and
// how the components depend on each other. main_test.go holds the output
// to testdata/quickstart.golden.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/sieve-microservices/sieve"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A custom topology: a load balancer fronting an API server backed by
	// a database. Each component exports a handful of metric families
	// (redundant variants of the same signals, plus constants that carry
	// no information — exactly what real services do).
	spec := sieve.AppSpec{
		Name:   "quickstart",
		TickMS: 500,
		Components: []sieve.ComponentSpec{
			{
				Name: "loadbalancer", Addr: "10.0.0.1:80",
				ServiceMS: 1, CapacityPerInstance: 2000, Entry: true,
				Calls: []sieve.ComponentCall{{Target: "api", Prob: 1}},
				Families: []sieve.MetricFamily{
					{Base: "requests", Driver: sieve.DriverRate, Noise: 0.03, Variants: []string{"rate", "rate_5m"}},
					{Base: "response_ms", Driver: sieve.DriverLatency, Noise: 0.03, Variants: []string{"mean", "p95"}},
				},
				Constants: map[string]float64{"version": 1},
			},
			{
				Name: "api", Addr: "10.0.0.2:8080",
				ServiceMS: 15, CapacityPerInstance: 800,
				Calls: []sieve.ComponentCall{{Target: "db", Prob: 0.7}},
				Families: []sieve.MetricFamily{
					{Base: "requests", Driver: sieve.DriverRate, Noise: 0.03, Variants: []string{"rate", "count"}},
					{Base: "latency_ms", Driver: sieve.DriverLatency, Noise: 0.03, Variants: []string{"mean", "p95", "p99"}},
					{Base: "memory_mb", Driver: sieve.DriverMemory, Noise: 0.02},
				},
			},
			{
				Name: "db", Addr: "10.0.0.3:5432",
				ServiceMS: 6, CapacityPerInstance: 3000,
				Families: []sieve.MetricFamily{
					{Base: "queries_rate", Driver: sieve.DriverRate, Noise: 0.03},
					{Base: "query_time_ms", Driver: sieve.DriverOwnLatency, Noise: 0.03},
				},
			},
		},
	}

	app, err := sieve.NewApp(spec, 42)
	if err != nil {
		return err
	}

	// Step 1-3: load the app with a randomized workload, reduce metrics,
	// and identify dependencies.
	artifact, _, err := sieve.Run(app, sieve.RandomLoad(1, 300, 200, 1800), sieve.DefaultPipelineOptions())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Captured %d metrics; Sieve reduced them to %d representatives.\n\n",
		artifact.Reduction.TotalBefore(), artifact.Reduction.TotalAfter())

	for _, comp := range artifact.Dataset.Components() {
		cr := artifact.Reduction[comp]
		fmt.Fprintf(w, "%s: %d metrics -> %d clusters\n", comp, cr.Total, len(cr.Clusters))
		for _, cluster := range cr.Clusters {
			fmt.Fprintf(w, "  cluster %d (representative %s): %v\n", cluster.ID, cluster.Representative, cluster.Metrics)
		}
		if len(cr.Filtered) > 0 {
			fmt.Fprintf(w, "  filtered as unvarying: %v\n", cr.Filtered)
		}
	}

	fmt.Fprintf(w, "\nInferred dependencies (%d tested, %d bidirectional filtered):\n",
		artifact.Graph.Tested, artifact.Graph.Bidirectional)
	for _, e := range artifact.Graph.Edges {
		fmt.Fprintf(w, "  %s/%s -> %s/%s (lag %dms, p=%.2g)\n",
			e.From, e.FromMetric, e.To, e.ToMetric, e.LagMS, e.PValue)
	}

	metric, n := artifact.Graph.MostFrequentMetric()
	fmt.Fprintf(w, "\nBest monitoring signal: %s (appears in %d relations)\n", metric, n)
	return nil
}
