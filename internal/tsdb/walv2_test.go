package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// frameV1 appends one complete v1 record (header + payload) for batch —
// exactly the bytes a pre-dictionary writer put on disk, used to
// fabricate old-process segments for the mixed-version tests.
func frameV1(buf []byte, batch []Sample) []byte {
	payload := appendWALSamples(nil, batch)
	var hdr [walRecordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// writeV1Segment fabricates a v1-only segment file as an old process
// would have left it.
func writeV1Segment(t *testing.T, dir string, seq uint64, batches ...[]Sample) {
	t.Helper()
	var buf []byte
	for _, b := range batches {
		buf = frameV1(buf, b)
	}
	if err := os.WriteFile(filepath.Join(dir, walSegmentName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWALV2CodecRoundtrip(t *testing.T) {
	in := []Sample{
		{Component: "web", Metric: "cpu", T: 0, V: 0.5},
		{Component: "db", Metric: "mem_bytes", T: -42, V: -1e300},
		{Component: "web", Metric: "cpu", T: 1 << 40, V: 7},
		{Component: "", Metric: "", T: 5, V: 0},
	}
	dict := map[string]uint64{}
	var frames []byte
	for _, s := range in {
		key := s.Key()
		if _, ok := dict[key]; !ok {
			id := uint64(len(dict))
			dict[key] = id
			frames = appendSeriesFrame(frames, id, s.Component, s.Metric)
		}
	}
	frames = appendSamplesFrameV2(frames, in, idRefs(in, func(component, metric string) uint64 {
		return dict[component+"/"+metric]
	}))
	// Walk the frames as replay would and collect the decoded samples.
	var dec walDecoder
	var sink sampleSink
	for off := 0; off < len(frames); {
		length := int(binary.LittleEndian.Uint32(frames[off:]))
		payload := frames[off+walRecordHeader : off+walRecordHeader+length]
		if _, err := dec.replayRecord(payload, &sink); err != nil {
			t.Fatalf("decode: %v", err)
		}
		off += walRecordHeader + length
	}
	if out := sink.got; !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%v\nout=%v", in, out)
	}
}

// TestWALDictMixedVersionSegmentReplay replays a shard directory holding
// a fabricated v1 segment from an "old process" next to v2 segments
// written by the current writer: recovery must see every sample of both,
// in order.
func TestWALDictMixedVersionSegmentReplay(t *testing.T) {
	dir := t.TempDir()
	old1 := walBatch("old-a", 8, 1000)
	old2 := walBatch("old-b", 8, 2000)
	writeV1Segment(t, dir, 1, old1, old2)

	w, err := openTestWAL(dir, FsyncNever, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	new1 := walBatch("new-a", 8, 3000)
	new2 := walBatch("old-a", 8, 4000) // same series as the v1 segment
	for _, b := range [][]Sample{new1, new2} {
		if _, err := w.append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	var want []Sample
	want = append(want, old1...)
	want = append(want, old2...)
	want = append(want, new1...)
	want = append(want, new2...)
	got, st := replayAll(t, dir)
	if st.Repaired {
		t.Error("unexpected repair on clean mixed-version WAL")
	}
	if st.Records != 4 {
		t.Errorf("Records = %d, want 4 (series records do not count)", st.Records)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mixed replay mismatch: got %d samples, want %d", len(got), len(want))
	}
}

// TestWALMixedRecordsInOneSegment replays a single segment holding a v1
// record between v2 records — the per-record version dispatch, not just
// per-segment.
func TestWALMixedRecordsInOneSegment(t *testing.T) {
	dir := t.TempDir()
	b1 := walBatch("v2-first", 4, 1000)
	b2 := walBatch("v1-mid", 4, 2000)
	b3 := walBatch("v2-last", 4, 3000)

	var buf []byte
	buf = appendSeriesFrame(buf, 0, "v2-first", "m0")
	buf = appendSeriesFrame(buf, 1, "v2-first", "m1")
	buf = appendSeriesFrame(buf, 2, "v2-first", "m2")
	buf = appendSeriesFrame(buf, 3, "v2-first", "m3")
	ids := map[string]uint64{"m0": 0, "m1": 1, "m2": 2, "m3": 3}
	buf = appendSamplesFrameV2(buf, b1, idRefs(b1, func(_, metric string) uint64 { return ids[metric] }))
	buf = frameV1(buf, b2)
	buf = appendSeriesFrame(buf, 4, "v2-last", "m0")
	buf = appendSeriesFrame(buf, 5, "v2-last", "m1")
	buf = appendSeriesFrame(buf, 6, "v2-last", "m2")
	buf = appendSeriesFrame(buf, 7, "v2-last", "m3")
	buf = appendSamplesFrameV2(buf, b3, idRefs(b3, func(_, metric string) uint64 { return ids[metric] + 4 }))
	if err := os.WriteFile(filepath.Join(dir, walSegmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	var want []Sample
	want = append(want, b1...)
	want = append(want, b2...)
	want = append(want, b3...)
	got, st := replayAll(t, dir)
	if st.Repaired || st.Records != 3 {
		t.Errorf("stats = %+v, want 3 records, no repair", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("mixed-record segment replay mismatch")
	}
}

// TestWALMixedVersionTornTailRepair crashes the log across the version
// boundary: a clean v1 segment, then a v2 segment torn mid-record, then
// a later v1 segment. Repair must keep everything before the tear,
// truncate the tear, and drop the later segment.
func TestWALMixedVersionTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	old := walBatch("old", 8, 1000)
	writeV1Segment(t, dir, 1, old)

	w, err := openTestWAL(dir, FsyncNever, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	kept := walBatch("new", 8, 2000)
	torn := walBatch("new", 8, 3000)
	for _, b := range [][]Sample{kept, torn} {
		if _, err := w.append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// A segment written after the tear, as if the crash raced a roll.
	writeV1Segment(t, dir, 3, walBatch("later", 4, 4000))

	seqs, _ := listWALSegments(dir)
	if len(seqs) != 3 {
		t.Fatalf("expected 3 segments, got %d", len(seqs))
	}
	path := filepath.Join(dir, walSegmentName(2))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	var want []Sample
	want = append(want, old...)
	want = append(want, kept...)
	got, st := replayAll(t, dir)
	if !st.Repaired {
		t.Error("expected repair across the version boundary")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("torn-tail replay: got %d samples, want %d", len(got), len(want))
	}
	if seqs, _ := listWALSegments(dir); len(seqs) != 2 {
		t.Errorf("later segment should be dropped, have %d segments", len(seqs))
	}
	// After repair the directory replays cleanly and identically.
	got2, st2 := replayAll(t, dir)
	if st2.Repaired || !reflect.DeepEqual(want, got2) {
		t.Error("repaired mixed WAL should replay cleanly and identically")
	}
}

// TestMixedVersionStoreRecovery is the store-level mixed-dir pin:
// fabricated v1 segments (an old process's WAL) sit in the shard
// directories when the current process opens, ingests more (v2), hard-
// stops, reopens, checkpoints, and reopens again — identical to the
// store model fed the same samples at every step, including after a
// shard-count change.
func TestMixedVersionStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	ref := newStoreModel(0)

	// An old process's WAL: v1-only segments, all fabricated into shard
	// 0's directory — replay routes by today's hash, not disk position,
	// so placement must not matter.
	shard0 := filepath.Join(dir, "wal", "shard-0000")
	if err := os.MkdirAll(shard0, 0o755); err != nil {
		t.Fatal(err)
	}
	var oldBatches [][]Sample
	for i := 0; i < 4; i++ {
		oldBatches = append(oldBatches, recoveryBatch(i, 6, 4))
	}
	writeV1Segment(t, shard0, 1, oldBatches...)
	for _, b := range oldBatches {
		ref.add(b)
	}

	// First life: recover the v1 data, append v2 on top, hard-stop.
	s := openCrashable(t, dir, 4)
	for i := 4; i < 8; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 6, 4), s)
	}
	assertSameContents(t, s, ref, "mixed dir, first life")

	// Second life: both versions replay into one store.
	re := openCrashable(t, dir, 4)
	assertSameContents(t, re, ref, "mixed v1+v2 recovery")
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over mixed WAL: %v", err)
	}
	assertSameContents(t, re, ref, "after checkpoint of mixed WAL")
	for i := 8; i < 10; i++ {
		recoveryWrite(t, ref, recoveryBatch(i, 6, 4), re)
	}

	// Third life at a different shard count.
	re2 := openCrashable(t, dir, 2)
	assertSameContents(t, re2, ref, "mixed recovery + reshard")
}

// TestWALDictCompressionRatio pins the tentpole's size win on the
// standard ingest-bench workload shape: the v2 dictionary + delta
// encoding must keep WAL bytes per sample at least 2.5x below what the
// v1 encoding of the same batches costs.
func TestWALDictCompressionRatio(t *testing.T) {
	dir := t.TempDir()
	w, err := openTestWAL(dir, FsyncNever, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	var v1Bytes, samples int64
	for i := 0; i < 1024; i++ {
		batch := make([]Sample, 0, 16*8)
		for c := 0; c < 16; c++ {
			for m := 0; m < 8; m++ {
				batch = append(batch, Sample{
					Component: fmt.Sprintf("comp-%03d-%02d", i%32, c),
					Metric:    fmt.Sprintf("metric_%02d", m),
					T:         int64(i) * 500,
					V:         float64(i*c) + float64(m)*0.25,
				})
			}
		}
		if _, err := w.append(batch); err != nil {
			t.Fatal(err)
		}
		v1Bytes += int64(walRecordHeader + len(appendWALSamples(nil, batch)))
		samples += int64(len(batch))
	}
	v2Bytes := w.sizeBytes()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(v1Bytes) / float64(v2Bytes)
	t.Logf("v1 %.2f B/sample, v2 %.2f B/sample, ratio %.2fx",
		float64(v1Bytes)/float64(samples), float64(v2Bytes)/float64(samples), ratio)
	if ratio < 2.5 {
		t.Errorf("v2 WAL only %.2fx smaller than v1, want >= 2.5x", ratio)
	}
	// The size win must not cost fidelity.
	got, st := replayAll(t, dir)
	if st.Repaired || int64(st.Samples) != samples || int64(len(got)) != samples {
		t.Fatalf("replay of ratio workload: %+v, want %d samples", st, samples)
	}
}

// FuzzWALDecode drives the v2 record decoder with arbitrary payloads
// streamed through one decoder (so fuzzed series records poison later
// sample records, exactly like a corrupt segment would): it must never
// panic, and every decoded sample must resolve to a dictionary entry
// the same stream defined.
func FuzzWALDecode(f *testing.F) {
	f.Add(appendWALSamples(nil, walBatch("c", 4, 1000)))
	var series []byte
	series = appendSeriesFrame(series, 0, "web", "cpu")
	f.Add(series[walRecordHeader:])
	var smp []byte
	one := []Sample{{Component: "web", Metric: "cpu", T: 5, V: 1}}
	smp = appendSamplesFrameV2(smp, one, idRefs(one, func(string, string) uint64 { return 0 }))
	f.Add(smp[walRecordHeader:])
	f.Add([]byte{walV2Marker})
	f.Add([]byte{walV2Marker, walRecSeries, 0x00})
	f.Add([]byte{walV2Marker, walRecSamples, 0x01, 0x00, 0x00})
	f.Add([]byte{walV2Marker, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec walDecoder
		// Feed the payload twice through the same decoder: the second
		// pass sees whatever dictionary the first pass built.
		for pass := 0; pass < 2; pass++ {
			var sink sampleSink
			n, err := dec.replayRecord(data, &sink)
			if err != nil {
				if len(sink.got) != 0 {
					t.Fatalf("rejected record applied %d samples", len(sink.got))
				}
				continue
			}
			if n != len(sink.got) {
				t.Fatalf("replayRecord reported %d samples, applied %d", n, len(sink.got))
			}
			for _, s := range sink.got {
				if len(data) > 0 && data[0] == walV2Marker {
					found := false
					for _, ident := range dec.dict {
						if ident.component == s.Component && ident.metric == s.Metric {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("decoded sample references identity %q/%q the stream never defined", s.Component, s.Metric)
					}
				}
			}
		}
	})
}

// FuzzWALDecodeRoundtrip fuzzes the encode side: any batch derived from
// the fuzz input must encode to v2 frames that decode back bit-identical.
func FuzzWALDecodeRoundtrip(f *testing.F) {
	f.Add([]byte("seed"), int64(1000), 3.5)
	f.Fuzz(func(t *testing.T, name []byte, baseT int64, v float64) {
		comp := string(name)
		batch := []Sample{
			{Component: comp, Metric: "m0", T: baseT, V: v},
			{Component: comp, Metric: "m1", T: baseT + 1, V: -v},
			{Component: comp, Metric: "m0", T: baseT - 7, V: v * 2},
		}
		var frames []byte
		frames = appendSeriesFrame(frames, 0, comp, "m0")
		frames = appendSeriesFrame(frames, 1, comp, "m1")
		ids := map[string]uint64{"m0": 0, "m1": 1}
		frames = appendSamplesFrameV2(frames, batch, idRefs(batch, func(_, metric string) uint64 { return ids[metric] }))
		var dec walDecoder
		var sink sampleSink
		for off := 0; off < len(frames); {
			length := int(binary.LittleEndian.Uint32(frames[off:]))
			payload := frames[off+walRecordHeader : off+walRecordHeader+length]
			if got := crc32.Checksum(payload, castagnoli); got != binary.LittleEndian.Uint32(frames[off+4:]) {
				t.Fatal("self-produced frame fails its own CRC")
			}
			if _, err := dec.replayRecord(payload, &sink); err != nil {
				t.Fatalf("self-produced frame undecodable: %v", err)
			}
			off += walRecordHeader + length
		}
		if out := sink.got; !reflect.DeepEqual(batch, out) {
			t.Fatalf("roundtrip mismatch:\n in=%v\nout=%v", batch, out)
		}
	})
}

// openGroupCommit opens a durable store under FsyncAlways with the
// background tickers disabled — the group-commit path, crash-simulable
// by abandoning the store.
func openGroupCommit(t testing.TB, dir string, shards int) *Sharded {
	t.Helper()
	s, err := OpenSharded(shards, DurabilityOptions{Dir: dir, Fsync: FsyncAlways, FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatalf("OpenSharded(%s): %v", dir, err)
	}
	return s
}

// TestGroupCommitConcurrentEquivalence hammers an FsyncAlways store with
// concurrent writers at shards {1,4} and pins three things: the stored
// contents equal the store model fed the same samples, every acked batch survives a hard stop (the FsyncAlways
// contract group commit must not weaken), and the group-commit
// telemetry moved.
func TestGroupCommitConcurrentEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s := openGroupCommit(t, dir, shards)
			tel := s.Telemetry()

			const writers, batches = 8, 20
			ref := newStoreModel(0)
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < batches; i++ {
						// Distinct series per writer: arrival order within
						// any series is deterministic, so the model (fed
						// sequentially below) must match.
						batch := []Sample{
							{Component: fmt.Sprintf("writer-%02d", g), Metric: "a", T: int64(i) * 100, V: float64(g*1000 + i)},
							{Component: fmt.Sprintf("writer-%02d", g), Metric: "b", T: int64(i) * 100, V: float64(i)},
						}
						if err := s.WriteSamples(batch, 0); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("writer %d: %v", g, err)
				}
			}
			for g := 0; g < writers; g++ {
				for i := 0; i < batches; i++ {
					ref.add([]Sample{
						{Component: fmt.Sprintf("writer-%02d", g), Metric: "a", T: int64(i) * 100, V: float64(g*1000 + i)},
						{Component: fmt.Sprintf("writer-%02d", g), Metric: "b", T: int64(i) * 100, V: float64(i)},
					})
				}
			}
			assertSameContents(t, s, ref, "live store vs model")

			if tel.WALGroupCommitBatches.Count() == 0 {
				t.Error("sieve_wal_group_commit_batches never observed a leader fsync")
			}
			if tel.WALFsyncSeconds.Count() == 0 {
				t.Error("sieve_wal_fsync_seconds never observed")
			}
			if tel.WALBytesWritten.Value() == 0 {
				t.Error("sieve_wal_bytes_written_total is zero after ingest")
			}

			// Hard stop: every acked write was fsynced, so recovery must
			// be byte-identical — no Close, the files are as the crash
			// left them.
			re := openCrashable(t, dir, shards)
			assertSameContents(t, re, ref, "recovery after hard stop")
		})
	}
}

// TestGroupCommitConcurrentIngestCheckpointClose drives the commit queue
// through its lifecycle edges under the race detector: writers block in
// commitWait while checkpoints rotate the WAL out from under them and
// close shuts the queue down mid-flight. Writers may see errors after
// close — the pin is no deadlock, no race, no lost acked data.
func TestGroupCommitConcurrentIngestCheckpointClose(t *testing.T) {
	dir := t.TempDir()
	s := openGroupCommit(t, dir, 4)

	const writers = 6
	stop := make(chan struct{})
	acked := make([][]Sample, writers)
	var wg, warm sync.WaitGroup
	warm.Add(writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 3 {
					// Guarantee real data is in flight before the main
					// goroutine starts checkpointing and closing.
					warm.Done()
				}
				select {
				case <-stop:
					if i < 3 {
						warm.Done()
					}
					return
				default:
				}
				batch := []Sample{{
					Component: fmt.Sprintf("writer-%02d", g),
					Metric:    "m",
					T:         int64(i) * 10,
					V:         float64(i),
				}}
				if err := s.WriteSamples(batch, 0); err != nil {
					// Tolerated only while shutting down.
					select {
					case <-stop:
						if i < 3 {
							warm.Done()
						}
						return
					default:
						t.Errorf("writer %d: %v", g, err)
						if i < 3 {
							warm.Done()
						}
						return
					}
				}
				acked[g] = append(acked[g], batch...)
			}
		}(g)
	}
	warm.Wait()
	for i := 0; i < 3; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint under concurrent ingest: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	ref := newStoreModel(0)
	for _, batches := range acked {
		for _, smp := range batches {
			ref.add([]Sample{smp})
		}
	}
	re := openCrashable(t, dir, 4)
	assertSameContents(t, re, ref, "acked data after checkpoint+close churn")

	// Close while writers are still in flight: appends fail cleanly, no
	// deadlock, no panic.
	dir2 := t.TempDir()
	s2 := openGroupCommit(t, dir2, 2)
	var wg2 sync.WaitGroup
	stop2 := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg2.Add(1)
		go func(g int) {
			defer wg2.Done()
			for i := 0; ; i++ {
				select {
				case <-stop2:
					return
				default:
				}
				_ = s2.WriteSamples([]Sample{{
					Component: fmt.Sprintf("w-%d", g), Metric: "m", T: int64(i), V: 1,
				}}, 0)
			}
		}(g)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close under fire: %v", err)
	}
	close(stop2)
	wg2.Wait()
}

// TestGroupCommitSingleWriterStillSyncs pins the degenerate cohort: a
// lone FsyncAlways writer gets one fsync per append (cohort size 1, no
// savings) and a clean ack, exactly the pre-group-commit contract.
func TestGroupCommitSingleWriterStillSyncs(t *testing.T) {
	dir := t.TempDir()
	s := openGroupCommit(t, dir, 1)
	tel := s.Telemetry()
	for i := 0; i < 5; i++ {
		recoveryWrite(t, nil, walBatch("solo", 4, int64(i)*1000), s)
	}
	if got := tel.WALGroupCommitBatches.Count(); got != 5 {
		t.Errorf("leader fsyncs = %d, want 5 (one per serial append)", got)
	}
	if saved := tel.WALFsyncsSaved.Value(); saved != 0 {
		t.Errorf("fsyncs saved = %d for a serial writer, want 0", saved)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ref := newStoreModel(0)
	for i := 0; i < 5; i++ {
		ref.add(walBatch("solo", 4, int64(i)*1000))
	}
	re := openCrashable(t, dir, 1)
	assertSameContents(t, re, ref, "serial FsyncAlways recovery")
}

// TestGroupCommitBatchedAppendsShareOneFsync pins the coalescing
// arithmetic deterministically: three appends land before any waiter
// runs, then the first commitWait becomes leader with all three already
// queued — one fsync, cohort size 3, two fsyncs saved. The concurrent
// benches drive the same path under real contention, but whether
// waiters actually pile up there depends on the disk's fsync latency,
// so the counter semantics are pinned here instead.
func TestGroupCommitBatchedAppendsShareOneFsync(t *testing.T) {
	tel := newStoreTelemetry(telemetry.NewRegistry())
	ww, err := openWALWriter(t.TempDir(), FsyncAlways, 1<<20, tel, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWAL(ww)
	groupH, saved := tel.WALGroupCommitBatches, tel.WALFsyncsSaved
	var last uint64
	for i := 0; i < 3; i++ {
		seq, err := w.append(walBatch("c", 2, int64(i)*1000))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := w.commitWait(last); err != nil {
		t.Fatal(err)
	}
	if got := groupH.Count(); got != 1 {
		t.Errorf("leader fsyncs = %d, want 1 for three queued appends", got)
	}
	if got := saved.Value(); got != 2 {
		t.Errorf("fsyncs saved = %d, want 2 (cohort of 3)", got)
	}
	// Earlier members of the cohort are already durable: waiting on them
	// must return immediately without another fsync.
	if err := w.commitWait(1); err != nil {
		t.Fatal(err)
	}
	if got := groupH.Count(); got != 1 {
		t.Errorf("leader fsyncs = %d after waiting on a covered seq, want still 1", got)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALV2SegmentFilesAreSmaller is a plain-bytes sanity check next to
// the ratio pin: the same batch appended twice writes its strings once.
func TestWALV2SegmentFilesAreSmaller(t *testing.T) {
	dir := t.TempDir()
	w, err := openTestWAL(dir, FsyncNever, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	batch := walBatch("component-with-a-long-name", 16, 1000)
	if _, err := w.append(batch); err != nil {
		t.Fatal(err)
	}
	firstSize := w.sizeBytes()
	if _, err := w.append(batch); err != nil {
		t.Fatal(err)
	}
	secondCost := w.sizeBytes() - firstSize
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if secondCost >= firstSize {
		t.Errorf("second append cost %d bytes >= first %d: dictionary not reused", secondCost, firstSize)
	}
	v1Cost := int64(walRecordHeader + len(appendWALSamples(nil, batch)))
	if secondCost*2 >= v1Cost {
		t.Errorf("steady-state v2 append = %d bytes, v1 = %d: want > 2x smaller", secondCost, v1Cost)
	}
}

// TestWALDictRollbackOnWriteFailure forces a write failure and checks
// the ids assigned by the failed append are taken back, from the writer's
// counter and from the series that held them: the next successful append
// must re-define its series and replay cleanly.
func TestWALDictRollbackOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := openTestWAL(dir, FsyncNever, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ok1 := walBatch("ok", 4, 1000)
	if _, err := w.append(ok1); err != nil {
		t.Fatal(err)
	}
	// Swap the segment file for a closed one: the next write fails after
	// the dictionary speculatively assigned ids for the new series.
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
	if _, err := w.append(walBatch("doomed", 4, 2000)); err == nil {
		t.Fatal("append on closed file should fail")
	}
	w.mu.Lock()
	w.f = live
	if w.nextID != 4 {
		t.Errorf("nextID = %d after rollback, want 4 (the ok batch's series)", w.nextID)
	}
	for key, sr := range w.series {
		if kept := key[:2] == "ok"; kept != (sr.walSeg == w.seq) {
			t.Errorf("series %s: holds an id of the open segment = %v, want %v", key, !kept, kept)
		}
	}
	w.mu.Unlock()
	ok2 := walBatch("doomed", 4, 3000)
	if _, err := w.append(ok2); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var want []Sample
	want = append(want, ok1...)
	want = append(want, ok2...)
	got, st := replayAll(t, dir)
	if st.Repaired {
		t.Error("unexpected repair")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-rollback replay mismatch: got %d samples, want %d", len(got), len(want))
	}
}
