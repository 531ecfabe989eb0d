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
	s := Steps(10, 100, 8, 2)
	want := []float64{10, 10, 100, 100, 10, 10, 100, 100}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Steps = %v, want %v", s, want)
		}
	}
	if got := Steps(1, 2, 3, 0); len(got) != 3 {
		t.Error("Steps must clamp switchEvery")
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

func TestSessionsModel(t *testing.T) {
	sessions := []Session{
		{StartTick: 0, DurationTicks: 3, RPS: 2},
		{StartTick: 2, DurationTicks: 2, RPS: 5},
		{StartTick: -1, DurationTicks: 3, RPS: 1}, // partially before window
	}
	p := FromSessions(sessions, 5)
	want := []float64{3, 3, 7, 5, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("FromSessions = %v, want %v", p, want)
		}
	}
}

func TestSyntheticSessionsFollowEnvelope(t *testing.T) {
	envelope := make(Pattern, 200)
	for i := 100; i < 200; i++ {
		envelope[i] = 1 // all arrivals in the second half
	}
	sessions := SyntheticSessions(5, envelope, 100, 2)
	if len(sessions) == 0 {
		t.Fatal("no sessions generated")
	}
	for _, s := range sessions {
		if s.StartTick < 100 {
			t.Fatalf("session started at %d during zero-envelope phase", s.StartTick)
		}
		if s.RPS <= 0 || s.DurationTicks <= 0 {
			t.Fatalf("degenerate session %+v", s)
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

func TestBootAndDeleteSucceedsOnHealthyCloud(t *testing.T) {
	a, err := openstack.New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	res := BootAndDelete(a, 3, 5, 1, nil)
	if res.Runs != 3 {
		t.Errorf("runs = %d", res.Runs)
	}
	if res.Failed != 0 {
		t.Errorf("healthy cloud failed %d/%d boot_and_delete runs", res.Failed, res.Runs)
	}
}

func TestBootAndDeleteFailsOnFaultyCloud(t *testing.T) {
	a, err := openstack.New(1, true)
	if err != nil {
		t.Fatal(err)
	}
	res := BootAndDelete(a, 3, 5, 1, nil)
	if res.Succeeded != 0 {
		t.Errorf("faulty cloud succeeded %d/%d runs; bug #1533942 must fail launches", res.Succeeded, res.Runs)
	}
	if res.String() == "" {
		t.Error("empty summary")
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
	if err := DriveCollector(context.Background(), a, Constant(100, 20), coll, 1); err != nil {
		t.Fatal(err)
	}
	if got := coll.Stats().Scrapes; got != 20 {
		t.Fatalf("scrapes = %d, want 20", got)
	}
	if db.Stats().Points == 0 {
		t.Fatal("no points shipped")
	}
	if err := DriveCollector(context.Background(), a, Constant(100, 20), nil, 1); err == nil {
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
	err = DriveCollector(context.Background(), a, Constant(100, 50), coll, 1)
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
	if err := DriveCollector(ctx, a, Constant(100, 20), coll, 1); err == nil {
		t.Fatal("cancelled context must surface")
	}
	if got := coll.Stats().Scrapes; got != 0 {
		t.Fatalf("scrapes after pre-cancelled drive = %d", got)
	}
}
