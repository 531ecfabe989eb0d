package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// openTestWAL opens a writer the way OpenSharded does, with a fresh
// instrument set of its own.
func openTestWAL(dir string, policy FsyncPolicy, segMax int64) (*testWAL, error) {
	w, err := openWALWriter(osFS{}, dir, policy, segMax, newStoreTelemetry(telemetry.NewRegistry()), 0)
	if err != nil {
		return nil, err
	}
	return newTestWAL(w), nil
}

// testWAL is a walWriter with the series table a shard keeps beside it,
// so tests append plain sample batches; the series carry their WAL ids
// from one append to the next, as a shard's do.
type testWAL struct {
	*walWriter
	series map[string]*series
}

func newTestWAL(w *walWriter) *testWAL {
	return &testWAL{walWriter: w, series: map[string]*series{}}
}

func (w *testWAL) append(samples []Sample) (uint64, error) {
	refs := make([]*series, len(samples))
	for i, s := range samples {
		sr := w.series[s.Key()]
		if sr == nil {
			sr = newSeries(s.Component, s.Metric)
			w.series[s.Key()] = sr
		}
		refs[i] = sr
	}
	return w.walWriter.append(samples, refs)
}

// idRefs gives each sample a stand-in series carrying the WAL id
// id(component, metric), for encoding sample frames by hand.
func idRefs(samples []Sample, id func(component, metric string) uint64) []*series {
	refs := make([]*series, len(samples))
	for i, s := range samples {
		refs[i] = &series{walID: id(s.Component, s.Metric)}
	}
	return refs
}

// sampleSink is a replaySink that collects the replayed samples in
// replay order.
type sampleSink struct{ got []Sample }

func (k *sampleSink) resolve(component, metric string) seriesRef {
	return seriesRef{sr: newSeries(component, metric)}
}

func (k *sampleSink) add(ref seriesRef, t int64, v float64) {
	c, m := ref.sr.ident()
	k.got = append(k.got, Sample{Component: c, Metric: m, T: t, V: v})
}

func walBatch(comp string, n int, base int64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Component: comp, Metric: fmt.Sprintf("m%d", i%4), T: base + int64(i)*500, V: float64(i) * 1.5}
	}
	return out
}

// appendWALSamples encodes a batch as one v1 record payload (the format
// decodeWALSamples reads). The writer emits v2; this encoder exists so
// the codec and mixed-version tests can produce pre-dictionary segments.
func appendWALSamples(buf []byte, samples []Sample) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(samples)))
	for _, s := range samples {
		buf = binary.AppendUvarint(buf, uint64(len(s.Component)))
		buf = append(buf, s.Component...)
		buf = binary.AppendUvarint(buf, uint64(len(s.Metric)))
		buf = append(buf, s.Metric...)
		buf = binary.AppendVarint(buf, s.T)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.V))
	}
	return buf
}

func replayAll(t *testing.T, dir string) ([]Sample, walReplayStats) {
	t.Helper()
	var sink sampleSink
	st, err := replayWAL(osFS{}, dir, &sink)
	if err != nil {
		t.Fatalf("replayWAL: %v", err)
	}
	return sink.got, st
}

func TestWALSampleCodecRoundtrip(t *testing.T) {
	in := []Sample{
		{Component: "web", Metric: "cpu", T: 0, V: 0.5},
		{Component: "db", Metric: "mem_bytes", T: -42, V: -1e300},
		{Component: "", Metric: "", T: 1 << 40, V: 0},
	}
	out, err := decodeWALSamples(appendWALSamples(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%v\nout=%v", in, out)
	}
	if _, err := decodeWALSamples([]byte{0xff}); err == nil {
		t.Error("expected error for truncated payload")
	}
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openTestWAL(dir, FsyncNever, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var want []Sample
	for i := 0; i < 10; i++ {
		b := walBatch(fmt.Sprintf("c%d", i), 16, int64(i)*1000)
		if _, err := w.append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		want = append(want, b...)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if st.Repaired {
		t.Error("unexpected repair on clean WAL")
	}
	if st.Records != 10 || st.Samples != 160 {
		t.Errorf("replay stats = %+v, want 10 records / 160 samples", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replayed samples differ from appended")
	}
}

func TestWALSegmentRollAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment cap: every record rolls to a new segment.
	w, err := openTestWAL(dir, FsyncNever, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.append(walBatch("c", 8, int64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listWALSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected several rolled segments, got %d", len(seqs))
	}
	cut, err := w.rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(walBatch("after", 8, 99000)); err != nil {
		t.Fatal(err)
	}
	if err := w.removeSegmentsBelow(cut); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	for _, s := range got {
		if s.Component != "after" {
			t.Fatalf("pre-cut sample %v survived pruning", s)
		}
	}
	if len(got) != 8 {
		t.Fatalf("got %d post-cut samples, want 8", len(got))
	}
}

func TestWALTruncatedTailRepair(t *testing.T) {
	dir := t.TempDir()
	w, err := openTestWAL(dir, FsyncNever, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var want []Sample
	for i := 0; i < 3; i++ {
		b := walBatch("c", 8, int64(i)*1000)
		if _, err := w.append(b); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			want = append(want, b...)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Chop a few bytes off the last record, as a crash mid-write would.
	seqs, _ := listWALSegments(osFS{}, dir)
	path := filepath.Join(dir, walSegmentName(seqs[len(seqs)-1]))
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if !st.Repaired {
		t.Error("expected Repaired=true for truncated tail")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("got %d samples, want the 16 before the truncated record", len(got))
	}
	// After repair the WAL replays cleanly.
	got2, st2 := replayAll(t, dir)
	if st2.Repaired || !reflect.DeepEqual(want, got2) {
		t.Error("repaired WAL should replay cleanly and identically")
	}
}

func TestWALCorruptRecordDiscardsRest(t *testing.T) {
	dir := t.TempDir()
	// One record per segment, three segments.
	w, err := openTestWAL(dir, FsyncNever, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.append(walBatch("c", 4, int64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listWALSegments(osFS{}, dir)
	if len(seqs) != 3 {
		t.Fatalf("expected 3 segments, got %d", len(seqs))
	}
	// Flip a payload byte in the middle segment.
	path := filepath.Join(dir, walSegmentName(seqs[1]))
	data, _ := os.ReadFile(path)
	data[walRecordHeader+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if !st.Repaired {
		t.Error("expected repair")
	}
	if len(got) != 4 {
		t.Fatalf("got %d samples, want only the 4 before the corruption", len(got))
	}
	// Segments after the corruption point are gone.
	seqs, _ = listWALSegments(osFS{}, dir)
	if len(seqs) != 2 {
		t.Fatalf("expected later segment removed, have %d segments", len(seqs))
	}
}

// TestWALIntervalFsyncFailureSurfacesOnce drives the FsyncInterval tick
// (flush, called by hand so no timer decides the order) through a failed
// fsync: a closed handle stands in for the open segment's, so the tick's
// fsync fails. Exactly the next append fails, naming the background
// fsync, and writes nothing; the following tick retries, and once that
// succeeds appends are acknowledged again. A tick with nothing appended
// since the last successful fsync issues none.
func TestWALIntervalFsyncFailureSurfacesOnce(t *testing.T) {
	w, err := openTestWAL(t.TempDir(), FsyncInterval, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	fsyncs := w.tel.WALFsyncSeconds
	tick := func(wantFsyncs uint64) {
		t.Helper()
		w.flush()
		if got := fsyncs.Count(); got != wantFsyncs {
			t.Fatalf("after a tick: %d fsyncs, want %d", got, wantFsyncs)
		}
	}
	write := func(i int) error {
		_, err := w.append(walBatch("c", 2, int64(i)*1000))
		return err
	}

	if err := write(0); err != nil {
		t.Fatal(err)
	}
	tick(1)
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	closed, err := os.Open(filepath.Join(w.dir, walSegmentName(w.seq)))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	live := w.f
	w.f = closed
	tick(2)
	w.f = live

	_, size := w.usage()
	err = write(2)
	if err == nil || !strings.Contains(err.Error(), "background") || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after a failed tick: err %v, want the background fsync's os.ErrClosed", err)
	}
	if _, got := w.usage(); got != size {
		t.Errorf("failed append wrote %d bytes, want none", got-size)
	}
	// The retry tick commits write 1; had it failed, write 3 would fail.
	tick(3)
	for i := 3; i < 5; i++ {
		if err := write(i); err != nil {
			t.Fatalf("append %d after the retry: %v", i, err)
		}
	}
	tick(4)
	tick(4) // nothing appended since: no fsync
}
