//go:build race

package tsdb

// Under the race detector sync.Pool drops a random quarter of what is
// put back, so a pooled ingest scratch is sometimes rebuilt: about eight
// allocations each time, whatever the batch size.
func init() { poolDropAllocs = 16 }
