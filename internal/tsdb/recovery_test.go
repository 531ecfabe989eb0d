package tsdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// openCrashable opens a durable store with background tickers disabled
// and no explicit fsync, so tests can simulate a hard stop (SIGKILL) by
// simply abandoning the store: nothing is flushed or closed, and the
// next OpenSharded on the directory must recover purely from what the
// engine already put on disk.
func openCrashable(t *testing.T, dir string, shards int) *Sharded {
	t.Helper()
	s, err := OpenSharded(shards, DurabilityOptions{Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatalf("OpenSharded(%s): %v", dir, err)
	}
	return s
}

// recoveryWrite sends one line-protocol batch to every given store and
// adds it to the model ref (nil for none).
func recoveryWrite(t *testing.T, ref *storeModel, samples []Sample, stores ...*Sharded) {
	t.Helper()
	if ref != nil {
		ref.add(samples)
	}
	payload := EncodeLineProtocol(samples)
	for _, st := range stores {
		if _, err := st.Write(payload); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
}

func recoveryBatch(batch, comps, mets int) []Sample {
	out := make([]Sample, 0, comps*mets)
	for c := 0; c < comps; c++ {
		for m := 0; m < mets; m++ {
			out = append(out, Sample{
				Component: fmt.Sprintf("comp-%02d", c),
				Metric:    fmt.Sprintf("metric_%02d", m),
				T:         int64(batch) * 500,
				V:         float64(batch*c) + float64(m)*0.25,
			})
		}
	}
	return out
}

// recoveryWrites is batches from..to-1 of recoveryBatch, each one
// line-protocol write.
func recoveryWrites(from, to, comps, mets int) []op {
	var ops []op
	for i := from; i < to; i++ {
		ops = append(ops, op{Kind: opWrite, Batch: recoveryBatch(i, comps, mets)})
	}
	return ops
}

// scanAll reads every series over all time, so a script checks the
// store between writes, not only after its lifecycle ops.
var scanAll = op{Kind: opScan, Q: RangeQuery{Component: "*", Metric: "*", From: math.MinInt64, To: math.MaxInt64}}

// TestDurableRecoveryFromWALOnly hard-stops a store that never
// checkpointed: the next life holds exactly what the WAL replays.
func TestDurableRecoveryFromWALOnly(t *testing.T) {
	ops := recoveryWrites(0, 30, 8, 4)
	ops = append(ops, op{Kind: opCrash, Shards: 4})
	playScript(t, storeScript{name: "wal only", shards: 4, fsync: FsyncNever, ops: ops})
}

// TestDurableRecoveryBlocksPlusWAL hard-stops a store with its data
// split across a block and WAL segments; the second life's checkpoint
// seals the replay into a second block, and a third life opens on
// blocks alone.
func TestDurableRecoveryBlocksPlusWAL(t *testing.T) {
	ops := recoveryWrites(0, 20, 6, 5)
	ops = append(ops, op{Kind: opCheckpoint})
	ops = append(ops, recoveryWrites(20, 35, 6, 5)...)
	ops = append(ops, scanAll,
		op{Kind: opCrash, Shards: 3},
		op{Kind: opCheckpoint},
		op{Kind: opClose, Shards: 3})
	playScript(t, storeScript{name: "blocks plus WAL", shards: 3, fsync: FsyncNever, ops: ops})
}

// TestDurableRecoveryShardCountChangeAfterCheckpoint: blocks are
// shard-agnostic, so growing the count after a graceful close (empty
// WAL) must be exact.
func TestDurableRecoveryShardCountChangeAfterCheckpoint(t *testing.T) {
	ops := recoveryWrites(0, 10, 5, 3)
	ops = append(ops, op{Kind: opClose, Shards: 6})
	playScript(t, storeScript{name: "reshard after checkpoint", shards: 2, fsync: FsyncNever, ops: ops})
}

// TestDurableCheckpointFailureSurfaced forces checkpoints to fail (the
// blocks dir is replaced by a regular file, the shape of a persistently
// sick disk) and asserts the failure is visible in Stats instead of
// being swallowed, then clears once checkpoints succeed again — and that
// no data was lost across the failed attempts.
func TestDurableCheckpointFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	ref := newStoreModel(0)
	for i := 0; i < 6; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 3), s)
	}
	blocksDir := filepath.Join(dir, "blocks")
	if err := os.RemoveAll(blocksDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocksDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Checkpoint(); err == nil {
			t.Fatal("checkpoint against a dead blocks dir should fail")
		}
		st := s.Stats()
		if st.CheckpointFailures != i {
			t.Fatalf("CheckpointFailures = %d, want %d", st.CheckpointFailures, i)
		}
		if st.LastCheckpointError == "" {
			t.Fatal("LastCheckpointError empty after a failed checkpoint")
		}
	}
	// Failed cuts must have spliced the data back: nothing lost.
	assertSameContents(t, s, ref, "after failed checkpoints")
	// Disk repaired: the next checkpoint succeeds and clears the error.
	if err := os.Remove(blocksDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(blocksDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after repair: %v", err)
	}
	st := s.Stats()
	if st.CheckpointFailures != 2 {
		t.Fatalf("CheckpointFailures = %d, want 2 (count is cumulative)", st.CheckpointFailures)
	}
	if st.LastCheckpointError != "" {
		t.Fatalf("LastCheckpointError = %q, want cleared", st.LastCheckpointError)
	}
	assertSameContents(t, s, ref, "after recovered checkpoint")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointFailureLeavesNoTmpDir fails a checkpoint at the
// last step that can fail before the publish point — the rename, onto a
// pre-created non-empty directory of the block's final name — once per
// retry, as a flusher against a sick disk would. Every attempt takes a
// fresh sequence number, so a writer that does not clean up leaves one
// partly written tmp- directory per retry on the disk that is already
// in trouble.
func TestDurableCheckpointFailureLeavesNoTmpDir(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	ref := newStoreModel(0)
	var batches []Sample
	for i := 0; i < 6; i++ {
		batch := recoveryBatch(i, 4, 3)
		recoveryWrite(t, ref, batch, s)
		batches = append(batches, batch...)
	}
	blocksDir := filepath.Join(dir, "blocks")
	minT, maxT := batches[0].T, maxSampleT(batches)
	var obstacles []string
	for seq := uint64(1); seq <= 3; seq++ {
		obstacle := filepath.Join(blocksDir, blockDirName(seq, minT, maxT))
		if err := os.MkdirAll(filepath.Join(obstacle, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		obstacles = append(obstacles, obstacle)
	}
	for range obstacles {
		if err := s.Checkpoint(); err == nil {
			t.Fatal("checkpoint renaming onto a non-empty directory should fail")
		}
		entries, err := os.ReadDir(blocksDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), blockTmpPrefix) {
				t.Fatalf("failed checkpoint left %s behind", e.Name())
			}
		}
		assertSameContents(t, s, ref, "after failed checkpoint")
	}
	for _, obstacle := range obstacles {
		if err := os.RemoveAll(obstacle); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with the way clear: %v", err)
	}
	if got := listBlockDirs(t, blocksDir); len(got) != 1 {
		t.Fatalf("blocks after recovery = %v, want one", got)
	}
	assertSameContents(t, s, ref, "after recovered checkpoint")
	// Hard stop and reopen: the block alone must carry everything.
	re := openCrashable(t, dir, 2)
	defer re.Close()
	assertSameContents(t, re, ref, "reopened after recovered checkpoint")
}

// TestDurablePartialWriteReportsStored kills one shard's WAL and writes
// a batch spanning all shards: Write must report exactly the samples the
// healthy shards stored alongside the error, so a client can tell a
// partial success from a clean failure (and not blindly replay the whole
// payload, duplicating the stored points).
func TestDurablePartialWriteReportsStored(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	batch := recoveryBatch(0, 8, 3)
	// Sever shard 0's WAL out from under it: appends to it now fail.
	if err := s.shards[0].wal.close(); err != nil {
		t.Fatal(err)
	}
	var healthy int
	for _, smp := range batch {
		if s.shardIndex(smp.Key()) != 0 {
			healthy++
		}
	}
	if healthy == 0 || healthy == len(batch) {
		t.Fatalf("batch must span both shards, got %d/%d on shard 1", healthy, len(batch))
	}
	n, err := s.Write(EncodeLineProtocol(batch))
	if err == nil {
		t.Fatal("write through a dead WAL should fail")
	}
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("want ErrStorage-wrapped failure (front ends map it to 5xx), got %v", err)
	}
	if n != healthy {
		t.Fatalf("Write reported %d stored samples, want %d (healthy shard's share)", n, healthy)
	}
	// The healthy shard's samples really are queryable.
	res, err := queryMatch(s, "*", "*", 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	var served int
	for _, r := range res {
		served += len(r.Points)
	}
	if served != healthy {
		t.Fatalf("stored %d points, want %d", served, healthy)
	}
	// No Close: shard 0's WAL is already gone; the store is abandoned
	// like a crashed process.
}

func TestDurableCrashMidFlush(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	ref := newStoreModel(0)
	for i := 0; i < 12; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 4), s)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 20; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 4), s)
	}
	// Simulate dying inside the next flush, after the chunks were
	// partially written but before the rename published the block: a
	// tmp- directory exists and the WAL was not pruned.
	tmp := filepath.Join(dir, "blocks", blockTmpPrefix+"b-00000099-0-0")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, blockChunksName), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openCrashable(t, dir, 2)
	defer re.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("tmp block directory should be removed during recovery")
	}
	assertSameContents(t, re, ref, "mid-flush crash recovery")
}

func TestDurableTruncatedWALTail(t *testing.T) {
	dir := t.TempDir()
	// Single shard so the lost tail is exactly the last written batch.
	s := openCrashable(t, dir, 1)
	ref := newStoreModel(0)
	for i := 0; i < 10; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 4), s)
	}
	// The 11th batch is torn mid-record by the crash.
	recoveryWrite(t, nil, recoveryBatch(10, 4, 4), s)

	shardDir := filepath.Join(dir, "wal", "shard-0000")
	seqs, err := listWALSegments(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(shardDir, walSegmentName(seqs[len(seqs)-1]))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	re := openCrashable(t, dir, 1)
	defer re.Close()
	// Recovery keeps every fsync-able record before the torn one and
	// nothing after: identical to the model that never saw batch 10.
	assertSameContents(t, re, ref, "truncated-tail recovery")
}

// TestDurableRecovery100kPoints is the acceptance-scale crash test: over
// 100k points across shards, hard stop with data split between a sealed
// block and live WAL segments, then a restart that must serve identical
// query results with zero loss.
func TestDurableRecovery100kPoints(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 4)
	ref := newStoreModel(0)
	const batches, comps, mets = 130, 32, 25 // 130*32*25 = 104,000 points
	for i := 0; i < batches; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, comps, mets), s)
		if i == batches/2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Stats().Points; got < 100000 {
		t.Fatalf("test must ingest >= 100k points, got %d", got)
	}
	re := openCrashable(t, dir, 4)
	defer re.Close()
	assertSameContents(t, re, ref, "100k-point recovery")
}

func TestDurableRetentionDropsOldBlocks(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(2, DurabilityOptions{
		Dir: dir, Fsync: FsyncNever, FlushInterval: -1, RetentionMS: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	old := []Sample{{Component: "a", Metric: "m", T: 500, V: 1}, {Component: "b", Metric: "m", T: 900, V: 2}}
	recoveryWrite(t, nil, old, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// New data far beyond the horizon: the first block (maxT 900) is now
	// more than RetentionMS behind the high-water mark.
	recoveryWrite(t, nil, []Sample{{Component: "a", Metric: "m", T: 50_000, V: 3}}, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 surviving block, found %d", len(entries))
	}
	pts, err := readSeries(s, "a", "m", 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].T != 50_000 {
		t.Fatalf("expired points still served: %v", pts)
	}
	// Series b lived only in the dropped block.
	if keys := s.catalogKeys(); fmt.Sprint(keys) != "[a/m]" {
		t.Errorf("catalog after retention dropped b/m: %v; want only a/m", keys)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Retention holds across restart.
	re := openCrashable(t, dir, 2)
	defer re.Close()
	pts, err = readSeries(re, "a", "m", 0, 1<<62)
	if err != nil || len(pts) != 1 {
		t.Fatalf("post-restart query = %v, %v", pts, err)
	}
}

// TestDurableStaleWALSegmentsNotReplayed covers a checkpoint that died
// between publishing its block and pruning the WAL: the stale segments
// hold records the block already covers, and replaying them would
// duplicate every point. Recovery must drop them using the WAL cuts
// recorded in the block's meta.
func TestDurableStaleWALSegmentsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 1)
	ref := newStoreModel(0)
	for i := 0; i < 8; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 3), s)
	}
	// Stash the live segments, checkpoint (which prunes them), then put
	// them back — exactly the on-disk state of a crash mid-prune.
	shardDir := filepath.Join(dir, "wal", "shard-0000")
	seqs, err := listWALSegments(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, seq := range seqs {
		name := walSegmentName(seq)
		data, err := os.ReadFile(filepath.Join(shardDir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = data
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(shardDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re := openCrashable(t, dir, 1)
	defer re.Close()
	assertSameContents(t, re, ref, "stale-segment recovery")
}

// TestDurableConcurrentIngestCheckpointQuery exercises the cut under
// contention (run with -race in CI): writers, a checkpointer, and readers
// all race, and no point may ever be observed twice or lost.
func TestDurableConcurrentIngestCheckpointQuery(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 4)
	const writers, batchesPerWriter = 4, 25
	// A fully-written series queried throughout: every read must see all
	// of it, whichever side of a checkpoint cut it lands on.
	const stablePoints = 64
	stable := make([]Sample, stablePoints)
	for i := range stable {
		stable[i] = Sample{Component: "stable", Metric: "m", T: int64(i) * 500, V: float64(i)}
	}
	recoveryWrite(t, nil, stable, s)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batchesPerWriter; i++ {
				samples := []Sample{{
					Component: fmt.Sprintf("w%d", w),
					Metric:    "m",
					T:         int64(i) * 500,
					V:         float64(i),
				}}
				if _, err := s.Write(EncodeLineProtocol(samples)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			pts, err := readSeries(s, "stable", "m", 0, 1<<62)
			if err != nil {
				t.Errorf("stable query: %v", err)
				return
			}
			if len(pts) != stablePoints {
				t.Errorf("stable series: saw %d points mid-checkpoint, want %d (cut must be invisible)", len(pts), stablePoints)
				return
			}
			_, _ = readSeries(s, "w0", "m", 0, 1<<62)
			_ = s.catalogKeys()
			_ = s.Stats()
		}
	}()
	// Query-engine readers racing the same cut: a matcher query and an
	// aggregated query over the fully-written series must see every point
	// exactly once — never duplicated by the overlay/block swap, never
	// hidden by a drained shard — whichever side of a checkpoint the
	// series lands on. The expected sum is stable because the data is
	// in-order (bitwise accumulation order survives the block rewrite).
	wantSum := float64(stablePoints*(stablePoints-1)) / 2
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			res, err := queryMatch(s, "stable", "*", 0, 1<<62)
			if err != nil {
				t.Errorf("stable matcher query: %v", err)
				return
			}
			if len(res) != 1 || len(res[0].Points) != stablePoints {
				t.Errorf("stable matcher: saw %+v mid-checkpoint, want 1 series with %d points", res, stablePoints)
				return
			}
			agg, err := s.QueryRange(context.Background(), RangeQuery{
				Component: "stable", Metric: "m",
				From: 0, To: 1 << 62, Agg: AggSum, StepMS: 1 << 62,
			})
			if err != nil {
				t.Errorf("stable aggregated query: %v", err)
				return
			}
			if len(agg) != 1 || len(agg[0].Points) != 1 || agg[0].Points[0].V != wantSum {
				t.Errorf("stable sum: saw %+v mid-checkpoint, want one bucket of %v", agg, wantSum)
				return
			}
			// Matcher fan-out across everything, including half-written
			// series: counts per series may grow but must never exceed
			// what a writer has acked.
			all, err := queryMatch(s, "*", "*", 0, 1<<62)
			if err != nil {
				t.Errorf("wildcard matcher: %v", err)
				return
			}
			for _, r := range all {
				if r.Component[0] == 'w' && len(r.Points) > batchesPerWriter {
					t.Errorf("%s/%s: %d points exceeds the %d ever written (duplicated by a racing cut)",
						r.Component, r.Metric, len(r.Points), batchesPerWriter)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openCrashable(t, dir, 4)
	defer re.Close()
	for w := 0; w < writers; w++ {
		pts, err := readSeries(re, fmt.Sprintf("w%d", w), "m", 0, 1<<62)
		if err != nil {
			t.Fatalf("w%d: %v", w, err)
		}
		if len(pts) != batchesPerWriter {
			t.Errorf("w%d: %d points, want %d", w, len(pts), batchesPerWriter)
		}
	}
}

// copyDirRecursive copies a directory tree — the crash-simulation
// primitive: block directories are preserved aside before compaction
// deletes them, then restored to recreate the exact on-disk state of a
// hard stop inside the compaction protocol.
func copyDirRecursive(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDirRecursive(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// listBlockDirs returns the published block directory names under a
// store's blocks dir, sorted.
func listBlockDirs(t *testing.T, blocksDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(blocksDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), blockTmpPrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestDurableRecoveryCompactionTmpDir simulates a hard stop in the
// first compaction crash window: the merged block was still being built
// under its tmp- prefix, the rename never happened. Recovery must remove
// the tmp directory and serve exactly the uncompacted contents.
func TestDurableRecoveryCompactionTmpDir(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 3)
	ref := newStoreModel(0)
	for i := 0; i < 8; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 5, 3), s)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate the interrupted merge: a half-built merged block is a
	// tmp- directory with arbitrary contents (here: a copy of a source).
	blocksDir := filepath.Join(dir, "blocks")
	sources := listBlockDirs(t, blocksDir)
	if len(sources) == 0 {
		t.Fatal("no blocks on disk")
	}
	tmpDir := filepath.Join(blocksDir, blockTmpPrefix+sources[0])
	copyDirRecursive(t, filepath.Join(blocksDir, sources[0]), tmpDir)

	// Hard stop (no Close), reopen: tmp dir cleaned, bytes unchanged.
	re := openCrashable(t, dir, 3)
	defer re.Close()
	if _, err := os.Stat(tmpDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tmp compaction dir survived recovery: %v", err)
	}
	assertSameContents(t, re, ref, "tmp-dir crash recovery")
}

// TestDurableRecoveryCompactionCrashWindow simulates a hard stop in the
// second compaction crash window: the merged block's rename succeeded
// but the source blocks were not yet deleted, so the store directory
// holds the points twice. Recovery must recognize the sources as covered
// by the merged block's sequence range, delete them, and serve exactly
// what the model holds — with Stats.Points counted once, not twice.
func TestDurableRecoveryCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 4)
	ref := newStoreModel(0)
	for i := 0; i < 12; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 6, 4), s)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	blocksDir := filepath.Join(dir, "blocks")
	sources := listBlockDirs(t, blocksDir)
	aside := t.TempDir()
	for _, name := range sources {
		copyDirRecursive(t, filepath.Join(blocksDir, name), filepath.Join(aside, name))
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	merged := listBlockDirs(t, blocksDir)
	if len(merged) >= len(sources) {
		t.Fatalf("compaction left %d blocks, had %d sources", len(merged), len(sources))
	}
	// Recreate the crash window: sources back on disk beside the merged
	// block, then a hard stop (no Close, nothing flushed).
	for _, name := range sources {
		if _, err := os.Stat(filepath.Join(blocksDir, name)); errors.Is(err, os.ErrNotExist) {
			copyDirRecursive(t, filepath.Join(aside, name), filepath.Join(blocksDir, name))
		}
	}
	re := openCrashable(t, dir, 4)
	defer re.Close()
	assertSameContents(t, re, ref, "crash-window recovery")
	// Stale-source cleanup is physical, not just logical: the superseded
	// directories are gone again after the open.
	if got := listBlockDirs(t, blocksDir); !reflect.DeepEqual(got, merged) {
		t.Errorf("blocks on disk after recovery = %v, want %v", got, merged)
	}
}

// TestDurableRecoveryKilledMidBlockRemoval covers the third compaction
// crash window: the sources are being deleted when the process dies.
// removeBlockDir first renames a source to a tmp- name, so what a kill
// leaves is a partly emptied tmp- directory, which recovery sweeps. The
// test also pins why the rename is there: the same partly emptied
// directory under its published b- name makes the store refuse to open
// (sievebench's SIGKILL check hit exactly that once compaction got fast
// enough to end where the kill lands).
func TestDurableRecoveryKilledMidBlockRemoval(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	ref := newStoreModel(0)
	for i := 0; i < 4; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 3), s)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	blocksDir := filepath.Join(dir, "blocks")
	sources := listBlockDirs(t, blocksDir)
	victim := t.TempDir()
	copyDirRecursive(t, filepath.Join(blocksDir, sources[0]), filepath.Join(victim, sources[0]))
	if err := os.Remove(filepath.Join(victim, sources[0], blockMetaName)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	merged := listBlockDirs(t, blocksDir)
	if len(merged) != 1 {
		t.Fatalf("compaction left %v", merged)
	}
	entries, err := os.ReadDir(blocksDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("retired sources left something behind: %v", entries)
	}

	// Killed after the rename, between two unlinks.
	leftover := filepath.Join(blocksDir, blockTmpPrefix+sources[0])
	copyDirRecursive(t, filepath.Join(victim, sources[0]), leftover)
	re := openCrashable(t, dir, 2)
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("half-removed source survived recovery: %v", err)
	}
	assertSameContents(t, re, ref, "killed mid block removal")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The same directory under its published name is not recoverable.
	copyDirRecursive(t, filepath.Join(victim, sources[0]), filepath.Join(blocksDir, sources[0]))
	if bad, err := OpenSharded(2, DurabilityOptions{Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1}); err == nil {
		bad.Close()
		t.Fatal("a b- directory without meta.json opened")
	}
}

// TestDurableRecoveryCompanionTmpFile opens a block directory holding a
// tmp-ds-*.json, which older releases left when a companion write into
// the published block crashed before its rename: the file is not a
// companion, and the block must serve its raw chunks unchanged.
func TestDurableRecoveryCompanionTmpFile(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	ref := newStoreModel(0)
	for i := 0; i < 5; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 3), s)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blocksDir := filepath.Join(dir, "blocks")
	blocks := listBlockDirs(t, blocksDir)
	if len(blocks) == 0 {
		t.Fatal("no blocks on disk")
	}
	tmpFile := filepath.Join(blocksDir, blocks[0], blockTmpPrefix+downsampledName(300_000))
	if err := os.WriteFile(tmpFile, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openCrashable(t, dir, 2)
	defer re.Close()
	assertSameContents(t, re, ref, "companion tmp-file recovery")
}

// TestDurableRecoveryCompanionBackfillCrashWindow: a block written
// without companions is rewritten alone, under the identical sequence
// range one level up, when a store with Downsample compacts it. A hard
// stop between that rename and the source's removal leaves both
// directories; reopening keeps only the rewrite, with its companions,
// and serves the same contents.
func TestDurableRecoveryCompanionBackfillCrashWindow(t *testing.T) {
	dir := t.TempDir()
	s := openCrashable(t, dir, 2)
	ref := newStoreModel(0)
	for i := 0; i < 6; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 4, 3), s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	blocksDir := filepath.Join(dir, "blocks")
	sources := listBlockDirs(t, blocksDir)
	if len(sources) != 1 {
		t.Fatalf("blocks on disk = %v, want one", sources)
	}
	aside := filepath.Join(t.TempDir(), sources[0])
	copyDirRecursive(t, filepath.Join(blocksDir, sources[0]), aside)

	backfill, _ := openCompactable(t, dir, 2, FsyncNever, 0)
	if err := backfill.Compact(); err != nil {
		t.Fatal(err)
	}
	rewritten := listBlockDirs(t, blocksDir)
	if len(rewritten) != 1 || rewritten[0] == sources[0] {
		t.Fatalf("blocks after the backfill = %v, want one replacing %s", rewritten, sources[0])
	}
	// The crash window: the source back beside its rewrite, then a hard
	// stop.
	copyDirRecursive(t, aside, filepath.Join(blocksDir, sources[0]))
	re := openCrashable(t, dir, 2)
	defer re.Close()
	if got := listBlockDirs(t, blocksDir); !reflect.DeepEqual(got, rewritten) {
		t.Fatalf("blocks on disk after recovery = %v, want %v", got, rewritten)
	}
	if b := re.dur.blocks[0]; b.meta.Level != 1 || len(b.ds) != len(downsampleResolutions) {
		t.Fatalf("surviving block is level %d with %d companions, want level 1 with %d",
			b.meta.Level, len(b.ds), len(downsampleResolutions))
	}
	assertSameContents(t, re, ref, "companion backfill crash window")
}

// TestDurableWALRepairIsLogged: a torn tail cut at open is logged once,
// naming the directory, the segment, the offset cut and the later
// segments removed; a clean reopen logs nothing.
func TestDurableWALRepairIsLogged(t *testing.T) {
	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn})))
	defer slog.SetDefault(prev)

	dir := t.TempDir()
	s := openCrashable(t, dir, 1)
	for i := 0; i < 3; i++ {
		recoveryWrite(t, nil, recoveryBatch(i, 2, 2), s)
	}
	// A later segment the repair must remove with the torn tail.
	if _, err := s.shards[0].wal.rotate(); err != nil {
		t.Fatal(err)
	}
	recoveryWrite(t, nil, recoveryBatch(3, 2, 2), s)
	shardDir := filepath.Join(dir, "wal", "shard-0000")
	seqs, err := listWALSegments(shardDir)
	if err != nil || len(seqs) != 2 {
		t.Fatalf("segments %v (%v), want 2", seqs, err)
	}
	torn := filepath.Join(shardDir, walSegmentName(seqs[0]))
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	re := openCrashable(t, dir, 1)
	fi, err = os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	got := logs.String()
	if n := strings.Count(got, "level=WARN"); n != 1 {
		t.Fatalf("%d warnings after a torn-tail reopen, want 1:\n%s", n, got)
	}
	for _, want := range []string{
		"dir=" + shardDir,
		"segment=" + walSegmentName(seqs[0]),
		fmt.Sprintf("offset=%d", fi.Size()),
		"removed=[" + walSegmentName(seqs[1]) + "]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("repair warning lacks %q:\n%s", want, got)
		}
	}

	logs.Reset()
	if err := openCrashable(t, dir, 1).Close(); err != nil {
		t.Fatal(err)
	}
	if logs.Len() != 0 {
		t.Errorf("clean reopen logged:\n%s", logs.String())
	}
}
