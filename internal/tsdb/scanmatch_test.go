package tsdb

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// scanToResults replays a ScanMatch into per-series point slices so the
// stream can be compared against raw QueryRange output.
func scanToResults(t *testing.T, sc *Sharded, component, metric string, from, to int64) []SeriesResult {
	t.Helper()
	var (
		mu   sync.Mutex
		keys []string
		pts  [][]Point
	)
	err := sc.ScanMatch(component, metric, from, to, func(ks []string) {
		keys = append([]string(nil), ks...)
		pts = make([][]Point, len(ks))
	}, func(i int, ts int64, v float64) {
		// Different series may be visited concurrently; per-index slices
		// only need the lock to satisfy the race detector on the header.
		mu.Lock()
		pts[i] = append(pts[i], Point{T: ts, V: v})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []SeriesResult
	for i, key := range keys {
		if len(pts[i]) == 0 {
			continue
		}
		comp, met := splitKey(key)
		out = append(out, SeriesResult{Component: comp, Metric: met, Points: pts[i]})
	}
	return out
}

// TestScanMatchMatchesQueryMatch pins the streaming contract at shard
// counts {1, 4}: under in-order ingest, the per-series point streams
// delivered by ScanMatch are bit-identical to a raw QueryRange's stably
// sorted results — same keys, same order, same bits — across sealed
// chunks and tails.
func TestScanMatchMatchesQueryMatch(t *testing.T) {
	build := func(st *Sharded) {
		var samples []Sample
		for c := 0; c < 3; c++ {
			for m := 0; m < 4; m++ {
				for i := 0; i < blockSize+37; i++ {
					v := math.Sin(float64(i)) * float64(c+1)
					if i%97 == 0 {
						v = math.NaN() // NaN points must stream like any other
					}
					samples = append(samples, Sample{
						Component: fmt.Sprintf("comp%d", c),
						Metric:    fmt.Sprintf("metric%d", m),
						T:         int64(i) * 10,
						V:         v,
					})
				}
			}
		}
		if err := st.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
	}

	stores := map[string]*Sharded{
		"shards=1": NewSharded(1),
		"sharded":  NewSharded(4),
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			build(st)
			for _, r := range []struct {
				comp, met string
				from, to  int64
			}{
				{"*", "*", 0, int64(blockSize+40) * 10},
				{"comp1", "*", 100, 3000},
				{"*", "metric2", 0, 50},
				{"comp0", "metric0", 400, 400}, // empty range
			} {
				want, err := queryMatch(st, r.comp, r.met, r.from, r.to)
				if err != nil {
					t.Fatal(err)
				}
				got := scanToResults(t, st, r.comp, r.met, r.from, r.to)
				if len(got) != len(want) {
					t.Fatalf("%+v: %d series streamed, %d queried", r, len(got), len(want))
				}
				for i := range want {
					if got[i].Component != want[i].Component || got[i].Metric != want[i].Metric {
						t.Fatalf("%+v: series %d is %s/%s, want %s/%s", r, i,
							got[i].Component, got[i].Metric, want[i].Component, want[i].Metric)
					}
					if len(got[i].Points) != len(want[i].Points) {
						t.Fatalf("%+v: series %d has %d streamed points, %d queried", r, i,
							len(got[i].Points), len(want[i].Points))
					}
					for j, p := range want[i].Points {
						g := got[i].Points[j]
						if g.T != p.T || math.Float64bits(g.V) != math.Float64bits(p.V) {
							t.Fatalf("%+v: series %d point %d = %+v, want %+v", r, i, j, g, p)
						}
					}
				}
			}
		})
	}
}

// TestScanMatchAllocs pins the streaming scan's per-point allocation cost
// at zero: growing the sealed data 8x must not change the allocation
// count of a full scan (per-series and per-key costs stay).
func TestScanMatchAllocs(t *testing.T) {
	build := func(points int) *Sharded {
		db := NewSharded(1)
		samples := make([]Sample, 0, points)
		for i := 0; i < points; i++ {
			samples = append(samples, Sample{
				Component: "c", Metric: "m", T: int64(i), V: float64(i),
			})
		}
		if err := db.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
		db.Flush()
		return db
	}
	measure := func(db *Sharded, points int) float64 {
		sink := 0.0
		return testing.AllocsPerRun(20, func() {
			err := db.ScanMatch("*", "*", 0, int64(points), nil, func(_ int, _ int64, v float64) {
				sink += v
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := 2*blockSize, 16*blockSize
	a1 := measure(build(small), small)
	a2 := measure(build(big), big)
	if a2 > a1+8 {
		t.Fatalf("streaming scan allocations grew with point count: %v -> %v allocs/op", a1, a2)
	}
}
