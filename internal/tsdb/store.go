package tsdb

// Writer is the ingest half of a store: anything that accepts
// line-protocol payloads. Both the local store (Sharded) and the HTTP
// client in internal/server implement it, so a metrics.Collector can ship
// scrapes to an in-process store or across the network without changing.
type Writer interface {
	// Write ingests a line-protocol payload and returns the number of
	// samples stored.
	Write(payload []byte) (int, error)
}

// SeriesVisitor receives one streamed point during a ScanMatch.
// seriesIdx indexes the key slice handed to the scan's begin callback;
// points of one series arrive in canonical storage order from a single
// goroutine, but different series may be visited concurrently, so
// per-series state (indexed by seriesIdx) needs no locking while shared
// state does.
type SeriesVisitor func(seriesIdx int, t int64, v float64)

// ReadStore is the read half of a store as dataset assembly consumes it:
// a visitor-style scan that decodes chunks directly into the caller's
// accumulators (window rings, bucket grids) with no intermediate []Point
// or SeriesResult materialization.
type ReadStore interface {
	// ScanMatch streams every series matching the globs with T in
	// [from, to). begin runs once, before any visit, with the sorted
	// matched keys (the slice is shared with the store — callers must not
	// modify or retain it past the call; it may include series with no
	// points in range). visit then receives each in-range point, per the
	// SeriesVisitor contract.
	ScanMatch(componentGlob, metricGlob string, from, to int64, begin func(keys []string), visit SeriesVisitor) error
}

var (
	_ Writer    = (*Sharded)(nil)
	_ ReadStore = (*Sharded)(nil)
)
