package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
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
