package metrics

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

func TestGaugeAndCounter(t *testing.T) {
	r := NewRegistry("web")
	g := r.Gauge("cpu_usage")
	g.Set(0.5)
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %g, want 0.75", got)
	}

	c := r.Counter("requests_total")
	c.Inc(3)
	c.Inc(2)
	c.Inc(-5) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %g, want 5", got)
	}
}

func TestRegistryIdentityAndNames(t *testing.T) {
	r := NewRegistry("web")
	if r.Component() != "web" {
		t.Errorf("component = %q", r.Component())
	}
	g1 := r.Gauge("m")
	g2 := r.Gauge("m")
	if g1 != g2 {
		t.Error("same name must return the same gauge")
	}
	r.Counter("z_total")
	r.Gauge("a_first")
	names := r.Names()
	if len(names) != 3 || names[0] != "a_first" || names[2] != "z_total" {
		t.Errorf("names = %v", names)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry("web")
	r.Gauge("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when re-registering gauge as counter")
		}
	}()
	r.Counter("m")
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry("db")
	r.Gauge("b_gauge").Set(2)
	r.Counter("a_counter").Inc(1)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d readings", len(snap))
	}
	if snap[0].Metric != "a_counter" || snap[0].Kind != KindCounter || snap[0].Value != 1 {
		t.Errorf("first reading = %+v", snap[0])
	}
	if snap[1].Metric != "b_gauge" || snap[1].Kind != KindGauge || snap[1].Value != 2 {
		t.Errorf("second reading = %+v", snap[1])
	}
	if snap[0].Component != "db" {
		t.Errorf("component = %q", snap[0].Component)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry("web")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits_total").Inc(1)
				r.Gauge("load").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != 8000 {
		t.Errorf("concurrent counter = %g, want 8000", got)
	}
}

func TestCollectorScrapesIntoDB(t *testing.T) {
	db := tsdb.NewSharded(1)
	web := NewRegistry("web")
	redis := NewRegistry("redis")
	web.Gauge("cpu").Set(0.5)
	web.Counter("reqs_total").Inc(10)
	redis.Gauge("mem").Set(100)

	c, err := NewCollector(db, web, redis)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.ScrapeOnce(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("shipped %d samples, want 3", n)
	}
	// Names without '*' or '?' match that one series alone.
	res, err := db.QueryRange(context.Background(), tsdb.RangeQuery{Component: "web", Metric: "cpu", From: 0, To: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 1 || res[0].Points[0] != (tsdb.Point{T: 1000, V: 0.5}) {
		t.Errorf("stored series = %+v", res)
	}

	st := c.Stats()
	if st.Scrapes != 1 || st.BytesSent == 0 || st.EncodeCPU <= 0 {
		t.Errorf("collector stats = %+v", st)
	}
	if db.Stats().NetworkInBytes != st.BytesSent {
		t.Error("db net-in must equal collector bytes sent")
	}
}

func TestCollectorAllowlistReducesTraffic(t *testing.T) {
	mkTargets := func() []*Registry {
		web := NewRegistry("web")
		for _, m := range []string{"cpu", "mem", "net", "disk", "extra1", "extra2"} {
			web.Gauge(m).Set(1)
		}
		return []*Registry{web}
	}

	full := tsdb.NewSharded(1)
	cFull, err := NewCollector(full, mkTargets()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cFull.ScrapeOnce(0); err != nil {
		t.Fatal(err)
	}

	reduced := tsdb.NewSharded(1)
	cRed, err := NewCollector(reduced, mkTargets()...)
	if err != nil {
		t.Fatal(err)
	}
	cRed.SetAllowlist([]string{"web/cpu"})
	n, err := cRed.ScrapeOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reduced scrape shipped %d samples, want 1", n)
	}
	if cRed.Stats().BytesSent >= cFull.Stats().BytesSent {
		t.Errorf("allowlist did not reduce traffic: %d vs %d", cRed.Stats().BytesSent, cFull.Stats().BytesSent)
	}

	// Clearing the filter restores full shipping.
	cRed.SetAllowlist(nil)
	n, err = cRed.ScrapeOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("after clearing allowlist shipped %d, want 6", n)
	}
}

func TestNewCollectorNilDB(t *testing.T) {
	if _, err := NewCollector(nil); err == nil {
		t.Fatal("expected error for nil db")
	}
}

func TestKindString(t *testing.T) {
	if KindGauge.String() != "gauge" || KindCounter.String() != "counter" {
		t.Error("kind names wrong")
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Error("unknown kind formatting")
	}
}

// TestScrapeOnceEmptyAllowlistSkipsWrite: an allowlist matching nothing
// must not ship an empty payload (remote writers reject empty bodies).
func TestScrapeOnceEmptyAllowlistSkipsWrite(t *testing.T) {
	db := tsdb.NewSharded(1)
	web := NewRegistry("web")
	web.Gauge("cpu").Set(0.5)
	c, err := NewCollector(db, web)
	if err != nil {
		t.Fatal(err)
	}
	c.SetAllowlist([]string{"nothing/matches"})
	n, err := c.ScrapeOnce(500)
	if err != nil || n != 0 {
		t.Fatalf("ScrapeOnce = %d, %v; want 0, nil", n, err)
	}
	if got := c.Stats().Scrapes; got != 1 {
		t.Fatalf("scrapes = %d, want 1", got)
	}
	if got := db.Stats().NetworkInBytes; got != 0 {
		t.Fatalf("empty scrape shipped %d wire bytes", got)
	}
}
