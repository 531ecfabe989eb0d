package tsdb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineProtocolRoundTrip(t *testing.T) {
	samples := []Sample{
		{Component: "web", Metric: "http_requests_mean", T: 1500, V: 123.456},
		{Component: "redis", Metric: "mem_bytes", T: 2000, V: 1e9},
		{Component: "db", Metric: "neg", T: 2500, V: -0.25},
	}
	data := EncodeLineProtocol(samples)
	got, err := ParseLineProtocol(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], samples[i])
		}
	}
}

func TestLineProtocolRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = Sample{
				Component: "comp" + string(rune('a'+rng.Intn(26))),
				Metric:    "metric_" + string(rune('a'+rng.Intn(26))),
				T:         rng.Int63n(1 << 42),
				V:         rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)),
			}
		}
		got, err := ParseLineProtocol(EncodeLineProtocol(samples))
		if err != nil || len(got) != n {
			return false
		}
		for i := range samples {
			if got[i] != samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLineProtocolMalformed(t *testing.T) {
	bad := []string{
		"nocomma value=1 5",
		"c,metric=m 5",
		"c,metric=m value=x 5",
		"c,metric=m value=1 x",
		"c,metric=m value=1",
		"c,wrong=m value=1 5",
		",metric=m value=1 5",
	}
	for _, line := range bad {
		if _, err := ParseLineProtocol([]byte(line)); err == nil {
			t.Errorf("line %q: expected parse error", line)
		}
	}
	// Blank lines are fine.
	if _, err := ParseLineProtocol([]byte("\n\n")); err != nil {
		t.Errorf("blank lines: %v", err)
	}
}

func TestDBWriteQueryRoundTrip(t *testing.T) {
	db := NewSharded(1)
	var samples []Sample
	for i := 0; i < 100; i++ {
		samples = append(samples, Sample{Component: "web", Metric: "cpu", T: int64(i) * 500, V: float64(i)})
	}
	n, err := db.Write(EncodeLineProtocol(samples))
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("wrote %d samples, want 100", n)
	}

	pts, err := readSeries(db, "web", "cpu", 0, 50*500)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("query returned %d points, want 50", len(pts))
	}
	for i, p := range pts {
		if p.T != int64(i)*500 || p.V != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}

	if pts, err := readSeries(db, "web", "nope", 0, 100); err != nil || len(pts) != 0 {
		t.Errorf("unknown series: %d points, err = %v; want none", len(pts), err)
	}
}

func TestDBQuerySpansSealedBlocks(t *testing.T) {
	db := NewSharded(1)
	// More than blockSize points forces at least one sealed block.
	total := blockSize + 100
	var samples []Sample
	for i := 0; i < total; i++ {
		samples = append(samples, Sample{Component: "c", Metric: "m", T: int64(i), V: float64(i)})
	}
	if _, err := db.Write(EncodeLineProtocol(samples)); err != nil {
		t.Fatal(err)
	}
	pts, err := readSeries(db, "c", "m", 0, int64(total))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != total {
		t.Fatalf("got %d points, want %d", len(pts), total)
	}
	for i, p := range pts {
		if p.V != float64(i) {
			t.Fatalf("point %d = %+v after block seal", i, p)
		}
	}
}

func TestDBStatsAccounting(t *testing.T) {
	db := NewSharded(1)
	var samples []Sample
	for i := 0; i < 600; i++ {
		samples = append(samples, Sample{Component: "c", Metric: "m", T: int64(i) * 500, V: float64(i % 7)})
	}
	payload := EncodeLineProtocol(samples)
	if _, err := db.Write(payload); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Points != 600 || st.Series != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.NetworkInBytes != len(payload) {
		t.Errorf("net in = %d, want %d", st.NetworkInBytes, len(payload))
	}
	if st.NetworkOutBytes != ackBytes {
		t.Errorf("net out = %d, want one ack (%d)", st.NetworkOutBytes, ackBytes)
	}
	if st.IngestCPU <= 0 {
		t.Error("ingest CPU not accounted")
	}

	// Flushing compresses the tail: storage must shrink below raw size.
	raw := 16 * 600
	db.Flush()
	st = db.Stats()
	if st.StorageBytes >= raw {
		t.Errorf("storage after flush = %d, want < raw %d", st.StorageBytes, raw)
	}

	// Queries add network-out traffic.
	before := st.NetworkOutBytes
	if _, err := readSeries(db, "c", "m", 0, 1<<40); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().NetworkOutBytes; got != before+16*600 {
		t.Errorf("net out after query = %d, want %d", got, before+16*600)
	}
}

func TestDBWriteSamples(t *testing.T) {
	db := NewSharded(1)
	samples := []Sample{{Component: "a", Metric: "m", T: 1, V: 2}}
	db.WriteSamples(samples, 42)
	st := db.Stats()
	if st.Points != 1 || st.NetworkInBytes != 42 {
		t.Errorf("stats = %+v", st)
	}
	if keys := db.catalogKeys(); len(keys) != 1 || keys[0] != "a/m" {
		t.Errorf("keys = %v", keys)
	}
}

func TestDBWriteRejectsGarbage(t *testing.T) {
	db := NewSharded(1)
	if _, err := db.Write([]byte("garbage")); err == nil {
		t.Error("expected parse error")
	}
	if !strings.Contains(db.Stats().IngestCPU.String(), "") { // stats remain readable
		t.Error("stats unavailable after failed write")
	}
	if db.Stats().Points != 0 {
		t.Error("failed write must not store points")
	}
}
