package tsdb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// assertCatalog compares every consumer of the catalog with the store
// model's keys.
func assertCatalog(t *testing.T, s *Sharded, m *storeModel, step string) []string {
	t.Helper()
	want := m.keys()
	got := s.catalogKeys()
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: cached keys %v, model %v", step, got, want)
	}
	if n := s.Stats().Series; n != len(want) {
		t.Fatalf("%s: Stats.Series = %d, want %d", step, n, len(want))
	}
	// Every key holds at least one point, so a match-all count query
	// must answer for exactly the catalog.
	res, err := s.QueryRange(context.Background(), RangeQuery{
		Component: "*", Metric: "*", From: -1 << 62, To: 1 << 62, Agg: AggCount, StepMS: 1 << 62,
	})
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	var answered []string
	for _, r := range res {
		answered = append(answered, r.Component+"/"+r.Metric)
	}
	if len(answered) != len(want) || (len(want) > 0 && !reflect.DeepEqual(answered, want)) {
		t.Fatalf("%s: QueryRange answered for %v, want %v", step, answered, want)
	}
	if scanned := s.catalogKeys(); len(scanned) != len(want) || (len(want) > 0 && !reflect.DeepEqual(scanned, want)) {
		t.Fatalf("%s: the catalog lists %v, want %v", step, scanned, want)
	}
	return want
}

func catalogSample(comp, metric string, t int64) Sample {
	return Sample{Component: comp, Metric: metric, T: t, V: float64(t % 97)}
}

func hasKey(keys []string, key string) bool {
	i := sort.SearchStrings(keys, key)
	return i < len(keys) && keys[i] == key
}

// cachedCatalog is the catalog a read loads now: the same pointer as an
// earlier call's means every reader in between shared one key slice, a
// new one that the generation moved and a reader rebuilt it.
func cachedCatalog(s *Sharded) *catalog {
	s.catalogKeys()
	return s.cat.Load()
}

// TestQueryEngineCatalogScriptedLife walks one store through every event
// that can change where its keys live and compares the cached catalog
// with the store model after each. Births and a retention pass that
// drops a block change the key set and rebuild the catalog; more
// samples, a checkpoint, a failed checkpoint, a compaction and rewriting
// keys a block holds into emptied shards only move keys between memory,
// the overlay and the blocks, and every reader keeps sharing one key
// slice.
func TestQueryEngineCatalogScriptedLife(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenSharded(shards, DurabilityOptions{
				Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1,
				RetentionMS: 1_000_000, Downsample: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			m := newStoreModel(1_000_000)
			write := func(samples ...Sample) {
				t.Helper()
				if err := s.WriteSamples(samples, 0); err != nil {
					t.Fatal(err)
				}
				m.add(samples)
			}
			checkpoint := func() {
				t.Helper()
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				m.checkpoint()
			}
			// event runs one step of the life and checks that it rebuilt the
			// catalog, or kept it, as rebuilds says.
			event := func(step string, rebuilds bool, run func()) []string {
				t.Helper()
				before := cachedCatalog(s)
				run()
				if after := cachedCatalog(s); (after != before) != rebuilds {
					t.Fatalf("%s: catalog rebuilt = %v, want %v", step, after != before, rebuilds)
				}
				return assertCatalog(t, s, m, step)
			}
			assertCatalog(t, s, m, "empty store")

			keys := event("birth", true, func() {
				write(catalogSample("a", "x", 1000), catalogSample("b", "y", 1000), catalogSample("b", "x", 1000))
			})
			if !hasKey(keys, "a/x") || len(keys) != 3 {
				t.Fatalf("birth: keys %v", keys)
			}
			event("more samples", false, func() {
				for i := int64(2); i < 50; i++ {
					write(catalogSample("a", "x", i*1000), catalogSample("b", "y", i*1000))
				}
			})

			// A failed checkpoint: the cut moves the series from the shards
			// to the overlay, the block write fails, and the overlay stays.
			blocksDir := filepath.Join(dir, "blocks")
			if err := os.RemoveAll(blocksDir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blocksDir, []byte("not a dir"), 0o644); err != nil {
				t.Fatal(err)
			}
			event("failed checkpoint", false, func() {
				if err := s.Checkpoint(); err == nil {
					t.Fatal("checkpoint against a dead blocks dir should fail")
				}
				m.failCheckpoint()
			})
			if s.dur.flushing == nil || len(s.dur.flushing.series) != len(keys) {
				t.Fatal("the failed checkpoint did not keep its cut")
			}
			if err := os.Remove(blocksDir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(blocksDir, 0o755); err != nil {
				t.Fatal(err)
			}

			// Checkpoint: the kept cut becomes a block. A reader spinning
			// through the whole checkpoint must see the same keys throughout.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got := s.catalogKeys(); !reflect.DeepEqual(got, keys) {
						t.Errorf("mid-checkpoint keys %v, want %v", got, keys)
						return
					}
				}
			}()
			event("checkpoint", false, checkpoint)
			close(stop)
			wg.Wait()
			for _, sh := range s.shards {
				if len(sh.data) != 0 {
					t.Fatal("checkpoint left series in shard memory")
				}
			}

			// The shards re-create every series, but the block holds the
			// keys: the union, and so the generation, holds.
			event("rewrite after checkpoint", false, func() {
				write(catalogSample("a", "x", 55_000), catalogSample("b", "y", 55_000), catalogSample("b", "x", 55_000))
			})

			// A first birth next to a key memory and the block both hold.
			keys = event("rebirth", true, func() {
				write(catalogSample("a", "x", 60_000), catalogSample("c", "z", 60_000))
			})
			if len(keys) != 4 {
				t.Fatalf("rebirth: keys %v", keys)
			}

			// Second block, then compaction merges the two and attaches
			// companions: same keys, different blocks.
			event("second checkpoint", false, checkpoint)
			event("compaction", false, func() {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				m.compact()
			})
			if n := s.Stats().Blocks; n != 1 {
				t.Fatalf("compaction left %d blocks", n)
			}

			// Retention: a sample far ahead moves the horizon past the
			// merged block; the next checkpoint drops it and the keys that
			// lived only there.
			event("late birth", true, func() { write(catalogSample("d", "w", 10_000_000)) })
			keys = event("retention drop", true, checkpoint)
			if !reflect.DeepEqual(keys, []string{"d/w"}) {
				t.Fatalf("retention drop: keys %v, want only d/w", keys)
			}

			// A dropped key is born again.
			keys = event("rebirth after drop", true, func() { write(catalogSample("a", "x", 10_000_500)) })
			if !reflect.DeepEqual(keys, []string{"a/x", "d/w"}) {
				t.Fatalf("rebirth after drop: keys %v", keys)
			}
		})
	}

	// The in-memory store shares the mechanism.
	s, m := NewSharded(4), newStoreModel(0)
	write := func(samples ...Sample) {
		t.Helper()
		if err := s.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
		m.add(samples)
	}
	assertCatalog(t, s, m, "memory: empty")
	write(catalogSample("a", "x", 1), catalogSample("b", "y", 1))
	assertCatalog(t, s, m, "memory: birth")
	s.Flush()
	write(catalogSample("a", "x", 2), catalogSample("c", "z", 2))
	if keys := assertCatalog(t, s, m, "memory: second birth"); len(keys) != 3 {
		t.Fatalf("memory: keys %v", keys)
	}
}

// TestQueryEngineCatalogConcurrent races births, queries, Stats and
// checkpoints (run under -race in CI). Whatever interleaving happens, a
// reader that starts after a write was acknowledged must find its key.
func TestQueryEngineCatalogConcurrent(t *testing.T) {
	s, err := OpenSharded(4, DurabilityOptions{Dir: t.TempDir(), Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, births = 4, 60
	var done atomic.Bool
	var wg, bg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < births; i++ {
				comp, metric := fmt.Sprintf("w%d", w), fmt.Sprintf("m%03d", i)
				if err := s.WriteSamples([]Sample{catalogSample(comp, metric, int64(i)*1000)}, 0); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				// Acknowledged: every read path must know the key now.
				if !hasKey(s.catalogKeys(), comp+"/"+metric) {
					t.Errorf("%s/%s acknowledged but not in the catalog", comp, metric)
					return
				}
				res, err := s.QueryRange(context.Background(), RangeQuery{Component: comp, Metric: metric, From: 0, To: 1 << 40})
				if err != nil || len(res) != 1 || len(res[0].Points) != 1 {
					t.Errorf("%s/%s acknowledged but QueryRange answered %v, %v", comp, metric, res, err)
					return
				}
			}
		}(w)
	}
	background := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for !done.Load() {
				f()
			}
		}()
	}
	background(func() {
		if err := s.Checkpoint(); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})
	background(func() {
		if err := s.Compact(); err != nil {
			t.Errorf("compact: %v", err)
		}
	})
	background(func() {
		keys := s.catalogKeys()
		if !sort.StringsAreSorted(keys) {
			t.Errorf("catalog not sorted: %v", keys)
		}
		if n := s.Stats().Series; n < len(keys) {
			t.Errorf("Stats.Series %d went below an earlier catalog's %d", n, len(keys))
		}
	})
	background(func() {
		if _, err := s.QueryRange(context.Background(), RangeQuery{Component: "w?", Metric: "*", From: 0, To: 1 << 40, Agg: AggMax, StepMS: 60_000}); err != nil {
			t.Errorf("query: %v", err)
		}
	})
	wg.Wait()
	done.Store(true)
	bg.Wait()
	m := newStoreModel(0)
	for w := 0; w < writers; w++ {
		for i := 0; i < births; i++ {
			m.add([]Sample{catalogSample(fmt.Sprintf("w%d", w), fmt.Sprintf("m%03d", i), int64(i)*1000)})
		}
	}
	if keys := assertCatalog(t, s, m, "after the race"); len(keys) != writers*births {
		t.Fatalf("%d keys, want %d", len(keys), writers*births)
	}
}
