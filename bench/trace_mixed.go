package main

import (
	"fmt"
	"time"

	"github.com/sieve-microservices/sieve/internal/server"
)

// mixedProbes is how many times each telemetry surface is timed.
const mixedProbes = 50

// traceMixed times what only the mixed workload turns on — the telemetry
// surfaces that run beside ingest and queries: the /stats and /metrics
// handlers and one self-scrape pass — on an in-process twin holding the
// prefilled ShareLatex window.
func traceMixed(e *env, cfg runConfig, r *result) error {
	dir, err := e.mkdir("trace-mixed")
	if err != nil {
		return err
	}
	opts := durableTwinOptions(dir)
	opts.AppName = pipeApp
	opts.SelfScrapeInterval = time.Second // the loop only runs under Start; the twin calls the pass itself
	var clock int64
	opts.SelfScrapeClock = func() int64 { clock += 1000; return clock }
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	sim, err := newSimulator(cfg.seed, pipePrefillTicks)
	if err != nil {
		return err
	}
	for i := 0; i < pipePrefillTicks; i++ {
		p, err := sim.next()
		if err != nil {
			return err
		}
		if _, err := serveDirect(srv.Handler(), "POST", "/write", "text/plain", "", p); err != nil {
			return err
		}
	}
	probe := func(f func() error) (float64, error) {
		times := make([]float64, 0, mixedProbes)
		for i := 0; i < mixedProbes; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return median(times), nil
	}
	get := func(path string) func() error {
		return func() error {
			_, err := serveDirect(srv.Handler(), "GET", path, "", "", nil)
			return err
		}
	}
	stats, err := probe(get("/stats"))
	if err != nil {
		return fmt.Errorf("traced /stats: %w", err)
	}
	metrics, err := probe(get("/metrics"))
	if err != nil {
		return fmt.Errorf("traced /metrics: %w", err)
	}
	self, err := probe(func() error {
		_, err := srv.SelfScrapeOnce()
		return err
	})
	if err != nil {
		return fmt.Errorf("traced self-scrape: %w", err)
	}
	r.set("server.stats_ms", stats, mixedProbes)
	r.set("server.metrics_scrape_ms", metrics, mixedProbes)
	r.set("server.selfscrape_call_ms", self, mixedProbes)
	return nil
}
