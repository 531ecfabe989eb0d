package main

import (
	"net/http"
	"testing"

	"github.com/sieve-microservices/sieve/internal/server"
	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// The parser is fed sieved's real exposition: two scrapes of an in-memory
// server's /metrics around a known amount of work, both of which must
// also pass the exposition-format lint.
func TestScrapeDeltaOnRealExposition(t *testing.T) {
	srv, err := server.New(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	scrapeOnce := func() scrape {
		rec, err := serveDirect(srv.Handler(), http.MethodGet, "/metrics", "", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.Lint(rec.Body.Bytes()); err != nil {
			t.Fatalf("exposition fails lint: %v", err)
		}
		s, err := parseScrape(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := scrapeOnce()
	g := newBatchGen(1, 0, false)
	for i := 0; i < 3; i++ {
		p, _ := g.next()
		if _, err := serveDirect(srv.Handler(), http.MethodPost, "/write", "text/plain", "", p); err != nil {
			t.Fatal(err)
		}
	}
	d := delta(before, scrapeOnce())
	if got := d["sieve_ingest_samples_total"]; got != 3*batchSamples {
		t.Errorf("sieve_ingest_samples_total rose by %v, want %d", got, 3*batchSamples)
	}
	if got := d["sieve_http_write_seconds_count"]; got != 3 {
		t.Errorf("sieve_http_write_seconds_count rose by %v, want 3", got)
	}
	if got := d["sieve_http_write_seconds_sum"]; got <= 0 {
		t.Errorf("sieve_http_write_seconds_sum rose by %v, want > 0", got)
	}
	if got := d["sieve_remote_write_samples_total"]; got != 0 {
		t.Errorf("sieve_remote_write_samples_total rose by %v on a /write-only load", got)
	}
	if _, ok := d["sieve_http_write_seconds_bucket"]; ok {
		t.Error("bucket lines must be skipped")
	}
	if got := scrapeOnce()["sieve_store_series"]; got != batchSamples*3 {
		t.Errorf("gauge sieve_store_series = %v, want %d", got, batchSamples*3)
	}
}

func TestParseScrapeRejectsGarbage(t *testing.T) {
	if _, err := parseScrape([]byte("sieve_x notanumber\n")); err == nil {
		t.Error("unparseable value accepted")
	}
	if _, err := parseScrape([]byte("justaname\n")); err == nil {
		t.Error("line without a value accepted")
	}
	s, err := parseScrape([]byte("# HELP a b\n# TYPE a counter\na 3\nh_bucket{le=\"1\"} 2\nh_sum 0.5\n\n"))
	if err != nil || s["a"] != 3 || s["h_sum"] != 0.5 || len(s) != 2 {
		t.Errorf("parse = %v, %v", s, err)
	}
}
