package tsdb

import "context"

// Writer is the ingest half of a store: anything that accepts
// line-protocol payloads. Both the local store (Sharded) and the HTTP
// client in internal/server implement it, so a metrics.Collector can ship
// scrapes to an in-process store or across the network without changing.
type Writer interface {
	// Write ingests a line-protocol payload and returns the number of
	// samples stored.
	Write(payload []byte) (int, error)
}

// ReadStore is the read half of a store as dataset assembly consumes it.
type ReadStore interface {
	// QueryRange evaluates a matcher/aggregation query; see
	// Sharded.QueryRange for the contract.
	QueryRange(ctx context.Context, q RangeQuery) ([]SeriesResult, error)
}

var (
	_ Writer    = (*Sharded)(nil)
	_ ReadStore = (*Sharded)(nil)
)
