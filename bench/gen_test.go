package main

import (
	"bytes"
	"testing"

	"github.com/sieve-microservices/sieve/internal/promremote"
	"github.com/sieve-microservices/sieve/internal/snappy"
	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// stream returns the first n payloads of a generator, copied.
func stream(seed int64, writer int, remote bool, n int) [][]byte {
	g := newBatchGen(seed, writer, remote)
	out := make([][]byte, n)
	for i := range out {
		p, _ := g.next()
		out[i] = append([]byte(nil), p...)
	}
	return out
}

func TestBatchGenDeterministicPerSeed(t *testing.T) {
	for _, remote := range []bool{false, true} {
		a, b := stream(7, 0, remote, 120), stream(7, 0, remote, 120)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("remote=%v: batch %d differs between two generators with the same seed", remote, i)
			}
		}
		other := stream(8, 0, remote, 1)
		if bytes.Equal(a[0], other[0]) {
			t.Errorf("remote=%v: seeds 7 and 8 produced the same first batch", remote)
		}
	}
	if bytes.Equal(stream(7, 0, false, 1)[0], stream(7, 1, false, 1)[0]) {
		t.Error("writers 0 and 1 share a stream")
	}
}

// The two encodings of a stream must carry the same samples, every batch
// must be one 512-sample scrape at one timestamp, and churn must rename
// a component every churnEvery batches.
func TestBatchGenEncodingsAgree(t *testing.T) {
	line, remote := stream(3, 0, false, 2*churnEvery), stream(3, 0, true, 2*churnEvery)
	keys := map[string]bool{}
	for i := range line {
		want, err := tsdb.ParseLineProtocol(line[i])
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(want) != batchSamples {
			t.Fatalf("batch %d holds %d samples, want %d", i, len(want), batchSamples)
		}
		plain, err := snappy.Decode(remote[i])
		if err != nil {
			t.Fatalf("batch %d: snappy: %v", i, err)
		}
		req, err := promremote.Unmarshal(plain)
		if err != nil {
			t.Fatalf("batch %d: protobuf: %v", i, err)
		}
		if req.SampleCount() != batchSamples {
			t.Fatalf("batch %d: remote encoding holds %d samples", i, req.SampleCount())
		}
		for s, ts := range req.TimeSeries {
			component, metric, err := promremote.MapSeries(ts.Labels, "job")
			if err != nil {
				t.Fatal(err)
			}
			got := tsdb.Sample{Component: component, Metric: metric, T: ts.Samples[0].TimestampMS, V: ts.Samples[0].Value}
			if got != want[s] {
				t.Fatalf("batch %d sample %d: remote %+v, line %+v", i, s, got, want[s])
			}
			if got.T != want[0].T {
				t.Fatalf("batch %d spans timestamps %d and %d", i, want[0].T, got.T)
			}
			keys[got.Key()] = true
		}
	}
	// 8 targets × 512 series, plus 8 new series per rename.
	if want := ingestTargets*batchSamples + 2*ingestMetrics; len(keys) != want {
		t.Errorf("%d distinct series after %d batches, want %d", len(keys), len(line), want)
	}
}

func TestDashScheduleDeterministic(t *testing.T) {
	a, b := dashSchedule(5, 0, dashBaseMS+4*dashBlockMS), dashSchedule(5, 0, dashBaseMS+4*dashBlockMS)
	for i := range a {
		for j := range a[i] {
			if a[i][j].path != b[i][j].path {
				t.Fatalf("round %d query %d differs between two schedules with the same seed", i, j)
			}
		}
		if len(a[i]) != len(dashShapes) {
			t.Fatalf("round %d has %d queries", i, len(a[i]))
		}
	}
	if c := dashSchedule(6, 0, dashBaseMS+4*dashBlockMS); c[0][0].path == a[0][0].path && c[1][0].path == a[1][0].path && c[2][0].path == a[2][0].path {
		t.Error("seeds 5 and 6 select the same components")
	}
}

func TestSimulatorDeterministicPerSeed(t *testing.T) {
	next := func(seed int64) []byte {
		s, err := newSimulator(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		for i := 0; i < 4; i++ {
			if last, err = s.next(); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	if !bytes.Equal(next(9), next(9)) {
		t.Error("same seed, different scrapes")
	}
	if bytes.Equal(next(9), next(10)) {
		t.Error("seeds 9 and 10 produced the same scrape")
	}
}
