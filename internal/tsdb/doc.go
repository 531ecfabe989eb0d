// Package tsdb is the time-series store backing Sieve's monitoring
// plane, standing in for the paper's InfluxDB deployment. It speaks a
// line-protocol wire format (lineproto.go), compresses series with the
// Gorilla scheme — delta-of-delta timestamps, XOR-encoded values
// (gorilla.go, Pelkonen et al., VLDB 2015) — and meters the resources
// the paper's Table 3 reports: ingest CPU time, stored bytes, and
// network bytes in and out.
//
// There is one store, Sharded, which FNV-hashes series keys onto N
// independent shards so concurrent writers contend per shard rather
// than on one lock; NewSharded(1) is the standalone single-lock store.
// Stored points and query results are identical at any shard count;
// sharding changes scheduling, never data.
//
// A store is born instrumented: OpenSharded (which NewSharded calls)
// builds its own telemetry.Registry and StoreTelemetry set before the
// first shard exists, and nothing replaces them. There is no
// installation step and no uninstrumented mode; Registry and Telemetry
// expose the set.
//
// # Storage engine
//
// There is one store kind. Every Sharded store runs the WAL-plus-blocks
// design of production TSDBs (Prometheus, Facebook Gorilla) over a small
// filesystem seam (fsys.go). With a data directory the filesystem is the
// operating system's and the store is durable; without one it is an
// in-memory filesystem of the store's own, and there is no WAL, since
// there is nothing to recover: checkpoints, compaction, downsampling and
// retention run the same code either way. NewSharded is that in-memory
// store with the background flusher and compactor off, so its points
// stay in shard memory until Checkpoint or Compact moves them. On disk:
//
//	<dir>/wal/NNNNNNNN.wal               the store's one write-ahead log
//	<dir>/blocks/b-<seq>-<minT>-<maxT>/  immutable compressed blocks
//	  meta.json                          time range, point/series counts
//	  index.json                         series key -> chunk offsets
//	  chunks.dat                         CRC-framed Gorilla chunks
//
// A block holds each series' chunks back to back in key order, each of
// at most 120 points (maxChunkPoints; blocks written before that cut
// hold up to 4096 and read the same). A read decodes only the chunks its
// range overlaps and fetches each run of adjacent ones with one pread.
//
// Every ingested batch is appended to the store's one WAL — a
// CRC-32C-framed, segmented log with a configurable fsync policy
// (always / interval / never), to which each shard appends its part of
// the batch as one record under its own lock — before it becomes
// visible in memory. Shards partition memory and its locks, not the log.
// A background flusher periodically checkpoints: holding every shard's
// lock it drains the in-memory points and rotates the WAL once, one
// atomic cut, then seals the drained data into an immutable block
// directory (written to a tmp- path, fsynced, then renamed), and deletes
// the WAL segments the block now covers. Retention drops whole blocks once every point in
// them is further behind the application high-water mark (AppMaxTime:
// the newest timestamp outside ReservedComponent, whose samples carry
// process time) than the configured horizon, bounding the blocks (on
// disk, or in memory without a directory) while the shard-memory head
// stays bounded by the flush cadence. Blocks hold both
// kinds of data, so self-telemetry ages with application time: a store
// that receives no application writes expires nothing.
//
// Recovery in OpenSharded is the reverse: published blocks are indexed
// for reading (leftover tmp- directories from a crashed flush are
// removed; their data is still in the WAL), then the WAL is replayed in
// segment order, each record's samples placed by the current key hash,
// so the shard count may change between lives. A data directory an
// earlier release wrote, with one WAL directory per shard
// (<dir>/wal/shard-NNNN/), is replayed directory by directory, sealed
// into a block and removed at open. A torn or corrupt record ends replay
// Prometheus-style: the bad tail is truncated, later segments are
// discarded, and everything up to the last good record — i.e. all data
// up to the last fsynced entry — is served exactly as before the crash.
// Queries merge block chunks with in-memory points via a stable sort by
// timestamp, so a restarted store answers byte-identically to the store
// that was killed.
//
// # Query engine
//
// The read side (queryengine.go) has one primitive, Sharded.scanSeries:
// stream one series in canonical storage order — persisted blocks by
// sequence, the checkpoint overlay, then shard memory — into a sink,
// under that series' own checkpoint-cut hold. The one read entry point,
// QueryRange, selects keys from the series catalog by component/metric
// globs and materialises each matched series through a sink: raw points
// or a per-step aggregator. Reading one series is a QueryRange whose
// globs are its own names, keeping the result with that exact key; a
// series nobody wrote is simply absent from the results.
//
// Every sealed chunk, in memory and in a block's index, carries its time
// range and a value summary — the one summary type a downsampled
// companion bucket and a query bucket are too: reads skip chunks
// disjoint from the query without decoding them, and order-independent
// aggregations (min/max/count/rate) consume whole in-bucket chunks from
// the summary alone, with no file read or decode. Chunks that must be decoded stream
// point by point through chunkIter into the sink, so aggregated queries
// never materialize raw-point slices. Matched series fan out across an
// internal/parallel worker pool and merge in series-key order; results
// are bit-identical to the store model at any shard count, parallelism,
// and durability state. The model and the generated store lives checked
// against it are described in docs/ARCHITECTURE.md, "Testing the store".
package tsdb
