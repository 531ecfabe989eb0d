package tsdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestSeriesRefShardPlacement pins that hashing a sample's component and
// metric piecewise places it exactly where FNV-1a over its key does, so
// partitioning without building keys moves no series between shards.
func TestSeriesRefShardPlacement(t *testing.T) {
	names := []string{"", "a", "web", "sieve", "a/b", "comp-031-07", "metric_07", "ü/∑", "x y"}
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		s := NewSharded(n)
		for _, c := range names {
			for _, m := range names {
				key := c + "/" + m
				h := fnv.New32a()
				h.Write([]byte(key))
				want := int(h.Sum32() % uint32(n))
				if got := s.shardIndex(key); got != want {
					t.Fatalf("shards=%d shardIndex(%q) = %d, want %d", n, key, got, want)
				}
				if got := s.shardOf(c, m); got != want {
					t.Fatalf("shards=%d shardOf(%q, %q) = %d, want %d", n, c, m, got, want)
				}
			}
		}
	}
}

// poolDropAllocs is the allocation noise TestSeriesRefIngestAllocsFlat
// tolerates between two measurements: none, except under the race
// detector (see race_test.go).
var poolDropAllocs float64

// TestSeriesRefIngestAllocsFlat pins the write path's series lookup:
// once every series of the batches exists, an in-memory or durable
// four-shard store allocates no more to ingest 512 samples than 64.
// Building a key string per sample to find its series costs one heap
// allocation per sample (64 and 512 here).
func TestSeriesRefIngestAllocsFlat(t *testing.T) {
	const comps, mets = 8, 8 // 64 series
	batch := func(points int, t0 int64) []Sample {
		out := make([]Sample, 0, points*comps*mets)
		for p := 0; p < points; p++ {
			out = append(out, recoveryBatch(int(t0)+p, comps, mets)...)
		}
		return out
	}
	stores := map[string]func(t *testing.T) *Sharded{
		"memory":  func(*testing.T) *Sharded { return NewSharded(4) },
		"durable": func(t *testing.T) *Sharded { return openCrashable(t, t.TempDir(), 4) },
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			// Fill every tail to the seal once: from here a tail takes 511
			// more points before the next seal allocates a chunk.
			if err := s.WriteSamples(batch(blockSize, 0), 0); err != nil {
				t.Fatal(err)
			}
			small, large := batch(1, blockSize), batch(8, blockSize)
			allocs := func(b []Sample) float64 {
				return testing.AllocsPerRun(10, func() {
					if err := s.WriteSamples(b, 0); err != nil {
						t.Fatal(err)
					}
				})
			}
			a64, a512 := allocs(small), allocs(large)
			t.Logf("allocs per WriteSamples: %v for %d samples, %v for %d", a64, len(small), a512, len(large))
			if a512 > a64+poolDropAllocs {
				t.Errorf("%d samples allocate %v, %d allocate %v: the lookup allocates per sample", len(large), a512, len(small), a64)
			}
		})
	}
}

// TestWALRedefinesSeriesAfterRoll pins that a WAL id dies with its
// segment: after a checkpoint's rotate, and after a roll in the middle
// of an append, the next batch defines its series again in the new
// segment — which therefore replays alone to exactly that batch, and
// holds the same bytes a fresh log writes for it.
func TestWALRedefinesSeriesAfterRoll(t *testing.T) {
	first := walBatch("c", 8, 1000)
	second := walBatch("c", 8, 2000) // the same four series
	fresh := func(t *testing.T) []byte {
		dir := t.TempDir()
		w, err := openTestWAL(dir, FsyncNever, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.append(second); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, walSegmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, how := range []string{"rotate", "roll"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			segMax := int64(1 << 20)
			if how == "roll" {
				segMax = 200 // the first batch fits, the second does not
			}
			w, err := openTestWAL(dir, FsyncNever, segMax)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.append(first); err != nil {
				t.Fatal(err)
			}
			if how == "rotate" {
				if _, err := w.rotate(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.append(second); err != nil {
				t.Fatal(err)
			}
			last := w.seq
			for key, sr := range w.series {
				if sr.walSeg != last {
					t.Errorf("series %s holds an id of segment %d, want the open segment %d", key, sr.walSeg, last)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if seqs, _ := listWALSegments(osFS{}, dir); len(seqs) != 2 {
				t.Fatalf("segments %v, want two", seqs)
			}
			path := filepath.Join(dir, walSegmentName(last))
			var sink sampleSink
			good, recs, n, err := replaySegment(osFS{}, path, &sink)
			if err != nil || good >= 0 || recs != 1 || n != len(second) {
				t.Fatalf("replaySegment alone: good=%d records=%d samples=%d err=%v", good, recs, n, err)
			}
			if !reflect.DeepEqual(sink.got, second) {
				t.Fatalf("the new segment alone replays to %v, want %v", sink.got, second)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, fresh(t)) {
				t.Error("the new segment's bytes differ from a fresh log's for the same batch")
			}
		})
	}
}

// TestWALFailedAppendLeavesNoSeries pins that a series is born only once
// its batch is in the WAL: an append that fails leaves no key, point or
// catalog entry behind, and the retried batch then stores and recovers
// like any other.
func TestWALFailedAppendLeavesNoSeries(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 1)
	ref := newStoreModel(0)
	recoveryWrite(t, ref, walBatch("kept", 4, 1000), s)
	sh := s.shards[0]
	w := s.dur.wal
	w.mu.Lock()
	live := w.f
	closed, err := os.Open(filepath.Join(w.dir, walSegmentName(w.seq)))
	if err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	closed.Close()
	w.f = closed
	w.mu.Unlock()

	doomed := append(walBatch("kept", 4, 2000), walBatch("doomed", 4, 2000)...)
	if err := s.WriteSamples(doomed, 0); err == nil {
		t.Fatal("write on a closed WAL file should fail")
	}
	if st := s.Stats(); st.Series != 4 || st.Points != 4 {
		t.Errorf("after the failed write: %d series, %d points, want 4 and 4", st.Series, st.Points)
	}
	sh.mu.Lock()
	for key := range sh.data {
		if key[:4] != "kept" {
			t.Errorf("the failed write left series %q in memory", key)
		}
	}
	sh.mu.Unlock()
	assertSameContents(t, s, ref, "after a failed append")

	w.mu.Lock()
	w.f = live
	w.mu.Unlock()
	recoveryWrite(t, ref, doomed, s)
	assertSameContents(t, s, ref, "after the retry")
	assertSameContents(t, openCrashable(t, dir, 1), ref, "recovered after the retry")
}

// TestWALDictRollbackOnRollFailure fails the segment roll an append
// starts with: the ids that append gave out in the old segment must be
// taken back, or the next append would reference ids whose definitions
// never reached disk and replay would cut the log there.
func TestWALDictRollbackOnRollFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := openTestWAL(dir, FsyncInterval, 300)
	if err != nil {
		t.Fatal(err)
	}
	ok1 := walBatch("ok", 4, 1000)
	if _, err := w.append(ok1); err != nil {
		t.Fatal(err)
	}
	// A closed handle fails the roll's fsync, before the segment changes.
	w.mu.Lock()
	live := w.f
	closed, err := os.Open(filepath.Join(dir, walSegmentName(w.seq)))
	if err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	closed.Close()
	w.f = closed
	w.mu.Unlock()
	big := walBatch("new", 32, 2000)
	if _, err := w.append(big); err == nil {
		t.Fatal("append whose roll fails should fail")
	}
	w.mu.Lock()
	w.f = live
	if w.nextID != 4 {
		t.Errorf("nextID = %d after the failed roll, want 4 (the ok batch's series)", w.nextID)
	}
	w.mu.Unlock()
	ok2 := walBatch("new", 4, 3000)
	if _, err := w.append(ok2); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if st.Repaired {
		t.Error("unexpected repair")
	}
	if want := append(append([]Sample{}, ok1...), ok2...); !reflect.DeepEqual(want, got) {
		t.Fatalf("replay after a failed roll: got %d samples, want %d", len(got), len(want))
	}
}

// walDirDigest hashes every WAL segment under root: relative path and
// bytes, in path order.
func walDirDigest(t *testing.T, root string) string {
	t.Helper()
	var paths []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && filepath.Ext(path) == ".wal" {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWALBytesPinned pins the WAL's bytes for two fixed write sequences,
// so a change to how the writer finds a series' id cannot change what it
// writes: one through a bare writer whose small segment cap rolls in
// the middle of appends and which is rotated once, one through a
// four-shard store with a checkpoint cut between writes that reuse the
// same series and add new ones. The store's pin is of its one log, in
// which each batch is one record per shard, in shard order.
func TestWALBytesPinned(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		dir := t.TempDir()
		w, err := openTestWAL(dir, FsyncNever, 700)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := w.append(walBatch(fmt.Sprintf("c%d", i%3), 16, int64(i)*1000)); err != nil {
				t.Fatal(err)
			}
			if i == 5 {
				if _, err := w.rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if seqs, _ := listWALSegments(osFS{}, dir); len(seqs) < 4 {
			t.Fatalf("%d segments, want the cap and the rotate to roll several", len(seqs))
		}
		if got, want := walDirDigest(t, dir), "82c9ef4764468449b1f7a8d50e83633e8c4c7501d5cbfda9366d4c41bd539260"; got != want {
			t.Errorf("WAL digest %s, want %s", got, want)
		}
	})
	t.Run("store", func(t *testing.T) {
		dir := t.TempDir()
		s := openCrashable(t, dir, 4)
		for i := 0; i < 10; i++ {
			recoveryWrite(t, nil, recoveryBatch(i, 4+i%3, 5), s)
			if i == 4 {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := walDirDigest(t, filepath.Join(dir, "wal")), "06bab25843386c9aa27162d7566bf62160031f0c499b57e80b455271fb65e15f"; got != want {
			t.Errorf("WAL digest %s, want %s", got, want)
		}
	})
}

// BenchmarkWALReplay replays a hard-stopped four-shard store's WAL into a
// fresh in-memory store of the same shape: 200 batches of the ingest
// workload's shape (64 components x 8 metrics, one sample each), every
// series in every batch. It reports ns per replayed sample.
func BenchmarkWALReplay(b *testing.B) {
	const batches, comps, mets = 200, 64, 8
	dir := b.TempDir()
	s, err := OpenSharded(4, DurabilityOptions{Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if err := s.WriteSamples(recoveryBatch(i, comps, mets), 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.dur.wal.close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The store's own replay reads its own filesystem, a memFS here:
		// the log on disk goes through the same sink.
		re := NewSharded(4)
		if _, err := replayWAL(osFS{}, filepath.Join(dir, "wal"), storeReplay{re}); err != nil {
			b.Fatal(err)
		}
		if got := re.Stats().Points; got != batches*comps*mets {
			b.Fatalf("replayed %d points, want %d", got, batches*comps*mets)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*comps*mets), "ns/sample")
}
