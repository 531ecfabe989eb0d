package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// shardedTestSamples builds a deterministic mixed-series workload large
// enough to cross block-seal boundaries on some series.
func shardedTestSamples(seed int64, n int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Component: fmt.Sprintf("comp-%d", rng.Intn(13)),
			Metric:    fmt.Sprintf("metric_%d", rng.Intn(7)),
			T:         int64(i) * 100,
			V:         rng.NormFloat64() * 50,
		}
	}
	return out
}

// storeDump reads every series fully back out of a store.
func storeDump(t *testing.T, st *Sharded) map[string][]Point {
	t.Helper()
	res, err := queryMatch(st, "*", "*", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]Point{}
	for _, r := range res {
		out[r.Component+"/"+r.Metric] = r.Points
	}
	return out
}

// TestShardedMatchesDBAtAnyShardCount is the acceptance invariant: the
// same ingest stream stored through 1, 3, or 8 shards yields identical
// series keys, identical points, and identical point/series counts (the
// single-shard store is the reference). Sharding must never change data.
func TestShardedMatchesDBAtAnyShardCount(t *testing.T) {
	samples := shardedTestSamples(7, 4000)
	payload := EncodeLineProtocol(samples)

	ref := NewSharded(1)
	if n, err := ref.Write(payload); err != nil || n != len(samples) {
		t.Fatalf("reference Write = %d, %v", n, err)
	}
	want := storeDump(t, ref)
	refStats := ref.Stats()

	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := NewSharded(shards)
			if st.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", st.NumShards(), shards)
			}
			if n, err := st.Write(payload); err != nil || n != len(samples) {
				t.Fatalf("Sharded.Write = %d, %v", n, err)
			}
			if got := storeDump(t, st); !reflect.DeepEqual(got, want) {
				t.Fatal("sharded store contents differ from the single-shard reference")
			}
			stats := st.Stats()
			if stats.Points != refStats.Points || stats.Series != refStats.Series {
				t.Fatalf("stats points/series = %d/%d, want %d/%d",
					stats.Points, stats.Series, refStats.Points, refStats.Series)
			}
			if stats.NetworkInBytes != len(payload) {
				t.Fatalf("NetworkInBytes = %d, want %d", stats.NetworkInBytes, len(payload))
			}
			if st.MaxTime() != ref.MaxTime() {
				t.Fatalf("MaxTime = %d, want %d", st.MaxTime(), ref.MaxTime())
			}
		})
	}
}

// TestShardedConcurrentWriters hammers one Sharded store from many
// goroutines (the scenario the per-shard locks exist for; run under
// -race in CI) and checks nothing is lost or duplicated.
func TestShardedConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 500
	st := NewSharded(4)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples := shardedTestSamples(int64(w), perWriter)
			// Half the writers speak the wire format, half push decoded
			// samples, covering both ingest doors.
			if w%2 == 0 {
				payload := EncodeLineProtocol(samples)
				if _, err := st.Write(payload); err != nil {
					t.Error(err)
				}
			} else {
				st.WriteSamples(samples, 0)
			}
		}(w)
	}
	wg.Wait()
	st.Flush()
	if got := st.Stats().Points; got != writers*perWriter {
		t.Fatalf("stored %d points, want %d", got, writers*perWriter)
	}
	total := 0
	for _, pts := range storeDump(t, st) {
		total += len(pts)
	}
	if total != writers*perWriter {
		t.Fatalf("queried %d points back, want %d", total, writers*perWriter)
	}
}

// TestShardedRejectsMalformedPayload: a bad batch must store nothing.
func TestShardedRejectsMalformedPayload(t *testing.T) {
	st := NewSharded(4)
	if _, err := st.Write([]byte("good,metric=a value=1 500\ngarbage\n")); err == nil {
		t.Fatal("want parse error")
	}
	if got := st.Stats().Points; got != 0 {
		t.Fatalf("malformed batch stored %d points", got)
	}
	if st.MaxTime() != 0 {
		t.Fatal("malformed batch advanced MaxTime")
	}
}

// TestShardedDefaultShardCount pins the n<=0 fallback.
func TestShardedDefaultShardCount(t *testing.T) {
	if NewSharded(0).NumShards() < 1 {
		t.Fatal("default shard count must be at least 1")
	}
}

// TestLowWaterMark pins the take a caching reader orders its scans by:
// the minimum timestamp inserted across shards since the previous take,
// math.MaxInt64 when nothing was, reset by the take — and set by WAL
// replay, so a reopened store reports what it re-inserted.
func TestLowWaterMark(t *testing.T) {
	dir := t.TempDir()
	open := func() *Sharded {
		s, err := OpenSharded(4, DurabilityOptions{Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if got := s.TakeLowWater(); got != math.MaxInt64 {
		t.Fatalf("idle store: low water %d, want MaxInt64", got)
	}
	samples := shardedTestSamples(3, 400) // T = 0, 100, ..., spread over every shard
	if err := s.WriteSamples(samples[200:], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSamples(samples[50:200], 0); err != nil {
		t.Fatal(err)
	}
	if got := s.TakeLowWater(); got != samples[50].T {
		t.Fatalf("low water %d, want the minimum across shards %d", got, samples[50].T)
	}
	if got := s.TakeLowWater(); got != math.MaxInt64 {
		t.Fatalf("second take: %d, want MaxInt64 (the first take resets)", got)
	}
	if err := s.WriteSamples(samples[300:], 0); err != nil {
		t.Fatal(err)
	}
	if got := s.TakeLowWater(); got != samples[300].T {
		t.Fatalf("low water after a reset %d, want %d", got, samples[300].T)
	}

	// Abandoned un-Closed: the next life replays the WAL.
	reopened := open()
	defer reopened.Close()
	if got := reopened.TakeLowWater(); got != samples[50].T {
		t.Fatalf("after WAL replay: low water %d, want %d", got, samples[50].T)
	}
}

// TestLowWaterMarkSkipsReservedComponent: a sample of ReservedComponent,
// which the online pipeline never analyses, does not lower the mark —
// self-scrape stamped behind the cached window end must not read as a
// late write every cycle.
func TestLowWaterMarkSkipsReservedComponent(t *testing.T) {
	s := NewSharded(4)
	samples := shardedTestSamples(3, 100)
	if err := s.WriteSamples(samples[50:], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSamples([]Sample{{Component: ReservedComponent, Metric: "store_points", T: 1, V: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.TakeLowWater(); got != samples[50].T {
		t.Fatalf("low water %d, want the lowest application timestamp %d", got, samples[50].T)
	}
	if err := s.WriteSamples([]Sample{{Component: ReservedComponent, Metric: "store_points", T: 2, V: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.TakeLowWater(); got != math.MaxInt64 {
		t.Fatalf("low water after a reserved write alone %d, want MaxInt64", got)
	}
}

// TestLowWaterMarkConcurrentIngest races takes against writers (run
// under -race in CI) and checks no write goes unreported: the minimum
// over every take equals the minimum written.
func TestLowWaterMarkConcurrentIngest(t *testing.T) {
	s := NewSharded(4)
	samples := shardedTestSamples(5, 4000)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Descending, so the mark keeps moving.
			for i := len(samples) - 1 - w; i >= 0; i -= writers {
				if _, err := s.IngestParsed(samples[i:i+1], 0, time.Now()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	low := int64(math.MaxInt64)
	take := func() {
		if got := s.TakeLowWater(); got < low {
			low = got
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		take()
	}
	if low != samples[0].T {
		t.Fatalf("minimum over all takes %d, want %d", low, samples[0].T)
	}
}
