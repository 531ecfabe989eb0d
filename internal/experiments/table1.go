package experiments

import (
	"fmt"
	"strings"

	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
)

// Table1 regenerates Table 1: the metric populations exposed by the
// evaluated applications. The paper reports 889 metrics for ShareLatex
// and 17,608 for OpenStack's full API surface (our simulator reproduces
// the 508-metric deployment slice of Table 5; ROADMAP item 8 plans the
// committed results file that will carry the deviation).
func (s *Suite) Table1() (*Result, error) {
	slApp, err := sharelatex.New(s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Warm both fault phases so every lazily-created series registers.
	warmApp(slApp, 20, 500)
	slCount := 0
	for _, reg := range slApp.Registries() {
		slCount += len(reg.Snapshot())
	}

	osCorrect, err := openstack.New(s.cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	warmApp(osCorrect, 20, 300)
	osFaulty, err := openstack.New(s.cfg.Seed, true)
	if err != nil {
		return nil, err
	}
	warmApp(osFaulty, 20, 300)

	// Union across versions: a metric counts if either version exports it.
	union := map[string]bool{}
	for _, reg := range append(osCorrect.Registries(), osFaulty.Registries()...) {
		for _, rd := range reg.Snapshot() {
			union[rd.Component+"/"+rd.Metric] = true
		}
	}
	osCount := len(union)

	var b strings.Builder
	b.WriteString("Table 1: Metrics exposed by microservices-based applications\n")
	b.WriteString("Application      Number of metrics (paper)   Number of metrics (this repro)\n")
	fmt.Fprintf(&b, "ShareLatex       889                         %d\n", slCount)
	fmt.Fprintf(&b, "OpenStack        17,608 (full API surface)   %d (deployment slice, Table 5)\n", osCount)

	return &Result{
		ID:    "table1",
		Title: "Metrics exposed by microservices-based applications",
		Text:  b.String(),
		Values: map[string]float64{
			"sharelatex_metrics": float64(slCount),
			"openstack_metrics":  float64(osCount),
		},
	}, nil
}
