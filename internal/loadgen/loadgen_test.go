package loadgen

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

func TestConstantAndSteps(t *testing.T) {
	p := Constant(50, 10)
	if len(p) != 10 || p[0] != 50 || p[9] != 50 {
		t.Errorf("Constant = %v", p)
	}
}

func TestRandomPatternPropertiesAndDeterminism(t *testing.T) {
	a := Random(7, 500, 50, 400)
	b := Random(7, 500, 50, 400)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	var minV, maxV = math.Inf(1), math.Inf(-1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random not deterministic for a fixed seed")
		}
		if a[i] < 0 {
			t.Fatal("negative load")
		}
		minV = math.Min(minV, a[i])
		maxV = math.Max(maxV, a[i])
	}
	if maxV-minV < 100 {
		t.Errorf("random workload barely varies: [%g, %g]", minV, maxV)
	}
	c := Random(8, 500, 50, 400)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 250 {
		t.Error("different seeds produce near-identical workloads")
	}
}

func TestWorldCupShape(t *testing.T) {
	p := WorldCup(3, 1000, 100, 800)
	if len(p) != 1000 {
		t.Fatalf("len = %d", len(p))
	}
	var sum, peak float64
	for _, v := range p {
		if v < 0 {
			t.Fatal("negative load")
		}
		sum += v
		if v > peak {
			peak = v
		}
	}
	mean := sum / float64(len(p))
	// Spiky trace: peak well above the mean.
	if peak < 2*mean {
		t.Errorf("peak %g vs mean %g: trace not spiky", peak, mean)
	}
	if mean < 50 {
		t.Errorf("mean %g implausibly low", mean)
	}
}

// TestWorldCupShortTraces: every trace length, down to none at all,
// yields finite non-negative load (a zero spike width once made the
// spike centre NaN below 50 ticks, and zero ticks panicked).
func TestWorldCupShortTraces(t *testing.T) {
	for ticks := 0; ticks <= 64; ticks++ {
		p := WorldCup(1, ticks, 100, 800)
		if len(p) != ticks {
			t.Fatalf("ticks=%d: len = %d", ticks, len(p))
		}
		for i, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("ticks=%d: tick %d load %v, want finite and >= 0", ticks, i, v)
			}
		}
	}
}

func TestDriveAdvancesApp(t *testing.T) {
	a, err := openstack.New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	Drive(a, Constant(100, 20), func(tick int, nowMS int64) {
		ticks++
		if nowMS != int64(tick+1)*a.TickMS() {
			t.Fatalf("clock skew at tick %d: %d", tick, nowMS)
		}
	})
	if ticks != 20 {
		t.Errorf("onTick ran %d times, want 20", ticks)
	}
	if a.Now() != 20*a.TickMS() {
		t.Errorf("clock = %d", a.Now())
	}
}

// failingWriter rejects every write after the first n.
type failingWriter struct {
	db    *tsdb.Sharded
	okay  int
	calls int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.okay {
		return 0, fmt.Errorf("writer down")
	}
	return f.db.Write(p)
}

func TestDriveCollectorScrapesEveryTick(t *testing.T) {
	a, err := openstack.New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.NewSharded(1)
	coll, err := metrics.NewCollector(db, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := DriveCollector(context.Background(), a, Constant(100, 20), coll); err != nil {
		t.Fatal(err)
	}
	if got := coll.Stats().Scrapes; got != 20 {
		t.Fatalf("scrapes = %d, want 20", got)
	}
	if db.Stats().Points == 0 {
		t.Fatal("no points shipped")
	}
	if err := DriveCollector(context.Background(), a, Constant(100, 20), nil); err == nil {
		t.Fatal("nil collector must be rejected")
	}
}

func TestDriveCollectorStopsOnScrapeError(t *testing.T) {
	a, err := openstack.New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	fw := &failingWriter{db: tsdb.NewSharded(1), okay: 5}
	coll, err := metrics.NewCollector(fw, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	err = DriveCollector(context.Background(), a, Constant(100, 50), coll)
	if err == nil || !strings.Contains(err.Error(), "writer down") {
		t.Fatalf("err = %v, want scrape failure", err)
	}
	// The drive loop must stop soon after the failure, not burn through
	// the whole pattern.
	if fw.calls > 7 {
		t.Fatalf("writer called %d times after failing at call 6", fw.calls)
	}
}

func TestDriveCollectorHonorsContext(t *testing.T) {
	a, err := openstack.New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.NewSharded(1)
	coll, err := metrics.NewCollector(db, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := DriveCollector(ctx, a, Constant(100, 20), coll); err == nil {
		t.Fatal("cancelled context must surface")
	}
	if got := coll.Stats().Scrapes; got != 0 {
		t.Fatalf("scrapes after pre-cancelled drive = %d", got)
	}
}
