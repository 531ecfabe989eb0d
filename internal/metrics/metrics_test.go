package metrics

import (
	"context"
	"slices"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

func TestGaugeAndCounter(t *testing.T) {
	r := NewRegistry("web")
	r.Set("cpu_usage", 0.5)
	r.Set("cpu_usage", 0.75)
	if got, _ := r.Read("cpu_usage"); got.Value != 0.75 || got.Counter {
		t.Errorf("gauge = %+v, want 0.75", got)
	}

	r.Add("requests_total", 3)
	r.Add("requests_total", 2)
	r.Add("requests_total", -5) // ignored: counters are monotone
	if got, _ := r.Read("requests_total"); got.Value != 5 || !got.Counter {
		t.Errorf("counter = %+v, want 5", got)
	}
}

// TestReadUnknownCreatesNoRow: Read of a name never written reports
// false and leaves the registry as it was.
func TestReadUnknownCreatesNoRow(t *testing.T) {
	r := NewRegistry("web")
	r.Set("m", 1)
	if rd, ok := r.Read("absent"); ok || rd != (Reading{}) {
		t.Errorf("Read(absent) = %+v, %v; want zero, false", rd, ok)
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Metric != "m" {
		t.Errorf("snapshot after Read = %+v", snap)
	}
}

// TestSnapshotInNameOrder: rows born out of order scrape in name order.
func TestSnapshotInNameOrder(t *testing.T) {
	r := NewRegistry("web")
	r.Set("m", 1)
	r.Add("z_total", 1)
	r.Set("a_first", 1)
	r.Set("m", 2)
	r.Set("n", 1)
	var names []string
	for _, rd := range r.Snapshot() {
		names = append(names, rd.Metric)
	}
	if want := []string{"a_first", "m", "n", "z_total"}; !slices.Equal(names, want) {
		t.Errorf("names = %v, want %v", names, want)
	}
	if rd, _ := r.Read("m"); rd.Value != 2 {
		t.Errorf("m = %g after births around it, want 2", rd.Value)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, again func(r *Registry)
	}{
		{"gauge then counter", func(r *Registry) { r.Set("m", 1) }, func(r *Registry) { r.Add("m", 1) }},
		{"counter then gauge", func(r *Registry) { r.Add("m", 1) }, func(r *Registry) { r.Set("m", 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry("web")
			tc.first(r)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic when writing a metric as the other kind")
				}
			}()
			tc.again(r)
		})
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry("db")
	r.Set("b_gauge", 2)
	r.Add("a_counter", 1)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d readings", len(snap))
	}
	if snap[0] != (Reading{Component: "db", Metric: "a_counter", Counter: true, Value: 1}) {
		t.Errorf("first reading = %+v", snap[0])
	}
	if snap[1] != (Reading{Component: "db", Metric: "b_gauge", Value: 2}) {
		t.Errorf("second reading = %+v", snap[1])
	}
	// The snapshot is a copy: writes after it do not show through.
	r.Set("b_gauge", 3)
	if snap[1].Value != 2 {
		t.Errorf("snapshot changed under a later write: %+v", snap[1])
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
				r.Add("hits_total", 1)
				r.Set("load", float64(j))
			}
		}()
	}
	wg.Wait()
	if got, _ := r.Read("hits_total"); got.Value != 8000 {
		t.Errorf("concurrent counter = %g, want 8000", got.Value)
	}
}

func TestCollectorScrapesIntoDB(t *testing.T) {
	db := tsdb.NewSharded(1)
	web := NewRegistry("web")
	redis := NewRegistry("redis")
	web.Set("cpu", 0.5)
	web.Add("reqs_total", 10)
	redis.Set("mem", 100)

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
			web.Set(m, 1)
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

// TestScrapeOnceEmptyAllowlistSkipsWrite: an allowlist matching nothing
// must not ship an empty payload (remote writers reject empty bodies).
func TestScrapeOnceEmptyAllowlistSkipsWrite(t *testing.T) {
	db := tsdb.NewSharded(1)
	web := NewRegistry("web")
	web.Set("cpu", 0.5)
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
