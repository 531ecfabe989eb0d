package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

func scanEquivStore(t *testing.T, shards, points int) *tsdb.Sharded {
	t.Helper()
	db := tsdb.NewSharded(shards)
	var samples []tsdb.Sample
	for c := 0; c < 3; c++ {
		for m := 0; m < 3; m++ {
			for i := 0; i < points; i++ {
				v := math.Cos(float64(i)/7) * float64(c+m+1)
				if i%89 == 0 {
					v = math.NaN()
				}
				samples = append(samples, tsdb.Sample{
					Component: fmt.Sprintf("svc%d", c),
					Metric:    fmt.Sprintf("metric%d", m),
					T:         int64(i) * 50,
					V:         v,
				})
			}
		}
	}
	if err := db.WriteSamples(samples, 0); err != nil {
		t.Fatal(err)
	}
	db.Flush()
	return db
}

func requireSameDataset(t *testing.T, got, want *Dataset) {
	t.Helper()
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%d components, want %d", len(got.Series), len(want.Series))
	}
	for comp, metrics := range want.Series {
		if len(got.Series[comp]) != len(metrics) {
			t.Fatalf("component %q has %d metrics, want %d", comp, len(got.Series[comp]), len(metrics))
		}
		for met, reg := range metrics {
			g := got.Series[comp][met]
			if g == nil {
				t.Fatalf("missing series %s/%s", comp, met)
			}
			if g.Start != reg.Start || g.StepMS != reg.StepMS || len(g.Values) != len(reg.Values) {
				t.Fatalf("series %s/%s grid differs: %+v vs %+v", comp, met, g, reg)
			}
			for i := range reg.Values {
				if math.Float64bits(g.Values[i]) != math.Float64bits(reg.Values[i]) {
					t.Fatalf("series %s/%s value %d = %v, want %v (must be bit-identical)",
						comp, met, i, g.Values[i], reg.Values[i])
				}
			}
		}
	}
}

// TestScanMatchRebuildMatchesQueryMatch pins the streaming decode paths
// bit-for-bit against the materializing reference (raw QueryRange +
// Resample per series, refDataset): a DatasetFromDB assembly, a
// WindowCache full rebuild and its incremental tail advances must all
// equal it, at shard counts {1, 4}.
func TestScanMatchRebuildMatchesQueryMatch(t *testing.T) {
	const stepMS, points = 500, 700
	for _, shards := range []int{1, 4} {
		db := scanEquivStore(t, shards, points)
		windowEnd := int64(points) * 50
		start, mid := int64(0), windowEnd-10*stepMS

		// Full-window dataset assembly.
		gotDS, err := DatasetFromDB(db, "app", stepMS, start, windowEnd)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDataset(t, gotDS, refDataset(t, db, "app", stepMS, start, windowEnd))

		// WindowCache: full rebuild, then incremental tail advances, each
		// compared against the reference over the same window.
		cache := NewWindowCache("app", stepMS)
		width := mid - start
		gotWin, st, err := cache.Advance(db, start, mid)
		if err != nil {
			t.Fatal(err)
		}
		if !st.FullRebuild {
			t.Fatalf("shards=%d: first advance was not a full rebuild: %+v", shards, st)
		}
		requireSameDataset(t, gotWin, refDataset(t, db, "app", stepMS, start, mid))

		for slide := int64(1); slide <= 4; slide++ {
			s := start + slide*2*stepMS
			gotWin, st, err = cache.Advance(db, s, s+width)
			if err != nil {
				t.Fatal(err)
			}
			if st.FullRebuild {
				t.Fatalf("shards=%d: slide %d fell back to a full rebuild: %+v", shards, slide, st)
			}
			requireSameDataset(t, gotWin, refDataset(t, db, "app", stepMS, s, s+width))
		}
	}
}

// TestScanMatchRebuildAllocs pins the streaming full rebuild at zero
// per-point allocations: packing 8x the points into the SAME window on
// the SAME grid (denser sampling) must not change the rebuild's
// allocation count beyond noise — every per-rebuild allocation is per
// series or per grid bucket, never per decoded point.
func TestScanMatchRebuildAllocs(t *testing.T) {
	const stepMS, windowMS = 500, 30_000
	build := func(density int) *tsdb.Sharded {
		db := tsdb.NewSharded(1)
		var samples []tsdb.Sample
		points := int(windowMS) / 50 * density
		for c := 0; c < 3; c++ {
			for m := 0; m < 3; m++ {
				for i := 0; i < points; i++ {
					samples = append(samples, tsdb.Sample{
						Component: fmt.Sprintf("svc%d", c),
						Metric:    fmt.Sprintf("metric%d", m),
						T:         int64(i) * 50 / int64(density),
						V:         math.Cos(float64(i) / 7),
					})
				}
			}
		}
		if err := db.WriteSamples(samples, 0); err != nil {
			t.Fatal(err)
		}
		db.Flush()
		return db
	}
	measure := func(db *tsdb.Sharded) float64 {
		c := NewWindowCache("app", stepMS)
		if _, _, err := c.Advance(db, 0, windowMS); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			c.Invalidate()
			if _, _, err := c.Advance(db, 0, windowMS); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := measure(build(1))
	a2 := measure(build(8))
	if a2 > a1+8 {
		t.Fatalf("streaming rebuild allocations grew with point count: %v -> %v allocs/op", a1, a2)
	}
}
