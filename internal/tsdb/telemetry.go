package tsdb

import (
	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// StoreTelemetry bundles the instruments the storage engine updates:
// WAL append/fsync latency, checkpoint duration and drained volume,
// block publishes and retention drops, and the chunk-level fate split
// (skipped from the index vs consumed as a summary vs decoded) that
// explains where query time goes.
//
// A store is born with its set: NewSharded and OpenSharded register it
// on the store's own registry before the first shard exists and hand
// the one pointer to every shard, WAL writer and the durable engine.
// Nothing writes it afterwards, so every holder reads it without a lock.
type StoreTelemetry struct {
	// WALAppendSeconds times successful WAL record appends (encode +
	// write; the durability fsync is WALFsyncSeconds'), per batch.
	WALAppendSeconds *telemetry.Histogram
	// WALFsyncSeconds times every commit-leader fsync of the open WAL
	// segment: the FsyncInterval tick's and FsyncAlways's alike.
	WALFsyncSeconds *telemetry.Histogram
	// WALGroupCommitBatches observes, per successful commit-leader
	// fsync, how many appended batches that one fsync made durable — the
	// coalescing factor. Under FsyncAlways a histogram pinned at 1 means
	// no concurrency (every fsync covered exactly its own batch) and mass
	// at 4/8/16 is the group-commit win; under FsyncInterval it is the
	// batches one tick committed.
	WALGroupCommitBatches *telemetry.Histogram
	// WALFsyncsSaved counts fsyncs avoided by committing batches
	// together: for a leader sync covering n batches, n-1 fsyncs a sync
	// per batch would have issued.
	WALFsyncsSaved *telemetry.Counter
	// WALBytesWritten counts bytes appended to WAL segments (framed
	// record bytes, after series-dictionary compression).
	WALBytesWritten *telemetry.Counter
	// CheckpointSeconds times whole checkpoint runs (cut + block build +
	// WAL prune + retention), success or failure.
	CheckpointSeconds *telemetry.Histogram
	// CheckpointPoints counts points drained from memory into blocks.
	CheckpointPoints *telemetry.Counter
	// BlockPublishes counts immutable blocks published by checkpoints.
	BlockPublishes *telemetry.Counter
	// RetentionDroppedBlocks counts blocks removed by retention.
	RetentionDroppedBlocks *telemetry.Counter
	// ChunksSkipped counts sealed chunks skipped from their index
	// summary alone (time range disjoint from the query).
	ChunksSkipped *telemetry.Counter
	// ChunksSummarized counts chunks consumed by aggregation push-down
	// without a read or decode.
	ChunksSummarized *telemetry.Counter
	// ChunksDecoded counts chunks actually decompressed for a scan.
	ChunksDecoded *telemetry.Counter
	// DownsampledBucketsRead counts downsampled buckets consumed by
	// aggregated queries instead of raw chunk work.
	DownsampledBucketsRead *telemetry.Counter
	// CompactionsRun counts compaction passes started, whether or not
	// any blocks were merged.
	CompactionsRun *telemetry.Counter
	// CompactionMergedBlocks counts source blocks retired by compaction.
	CompactionMergedBlocks *telemetry.Counter
	// CompactionReclaimedBytes counts chunk bytes freed by merges
	// (source chunk bytes minus merged block chunk bytes).
	CompactionReclaimedBytes *telemetry.Counter
	// CompactionSeconds times individual merge runs (read sources, write
	// merged block, swap, delete sources).
	CompactionSeconds *telemetry.Histogram
	// DownsampleSeconds times building one downsampled companion: its
	// fold during the block write, then its part of the index.json
	// write. One observation per resolution of each block written with
	// companions.
	DownsampleSeconds *telemetry.Histogram
}

// newStoreTelemetry creates the storage instrument set on reg under
// the sieve_ namespace.
func newStoreTelemetry(reg *telemetry.Registry) *StoreTelemetry {
	return &StoreTelemetry{
		WALAppendSeconds: reg.Histogram("sieve_wal_append_seconds",
			"WAL record append latency per batch (encode and write; fsyncs are sieve_wal_fsync_seconds)", nil),
		WALFsyncSeconds: reg.Histogram("sieve_wal_fsync_seconds",
			"WAL fsync latency of the commit leader (-fsync interval ticks and -fsync always group commits)", nil),
		WALGroupCommitBatches: reg.Histogram("sieve_wal_group_commit_batches",
			"appended batches made durable per commit-leader fsync (group commits and interval ticks)",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
		WALFsyncsSaved: reg.Counter("sieve_wal_group_commit_fsyncs_saved_total",
			"fsyncs avoided by committing batches together (batches minus one per leader fsync, group commits and interval ticks)"),
		WALBytesWritten: reg.Counter("sieve_wal_bytes_written_total",
			"bytes appended to WAL segments"),
		CheckpointSeconds: reg.Histogram("sieve_checkpoint_seconds",
			"checkpoint duration: cut, block build, WAL prune, retention", nil),
		CheckpointPoints: reg.Counter("sieve_checkpoint_points_total",
			"points drained from memory into immutable blocks by checkpoints"),
		BlockPublishes: reg.Counter("sieve_block_publishes_total",
			"immutable blocks published by checkpoints"),
		RetentionDroppedBlocks: reg.Counter("sieve_retention_dropped_blocks_total",
			"blocks removed by retention"),
		ChunksSkipped: reg.Counter("sieve_query_chunks_skipped_total",
			"sealed chunks skipped from index summaries (disjoint time range)"),
		ChunksSummarized: reg.Counter("sieve_query_chunks_summarized_total",
			"chunks consumed by aggregation push-down without decoding"),
		ChunksDecoded: reg.Counter("sieve_query_chunks_decoded_total",
			"chunks decompressed for scans"),
		DownsampledBucketsRead: reg.Counter("sieve_query_downsampled_buckets_total",
			"downsampled buckets consumed by aggregated queries instead of raw chunks"),
		CompactionsRun: reg.Counter("sieve_compactions_total",
			"compaction passes started"),
		CompactionMergedBlocks: reg.Counter("sieve_compaction_merged_blocks_total",
			"source blocks retired by compaction merges"),
		CompactionReclaimedBytes: reg.Counter("sieve_compaction_reclaimed_bytes_total",
			"chunk bytes freed by compaction merges"),
		CompactionSeconds: reg.Histogram("sieve_compaction_seconds",
			"merge-run duration: read sources, write merged block, swap, delete", nil),
		DownsampleSeconds: reg.Histogram("sieve_downsample_seconds",
			"downsampled-companion duration per block and resolution: the fold plus its part of the index write", nil),
	}
}

// noteChunks flushes one scan's chunk-fate counts. Scans accumulate in
// local ints and flush once here, keeping atomics off the per-chunk
// loop. A nil receiver means "not a query", never "not installed":
// checkpoint and compaction (buildBlock, mergeRun) scan with a nil set so
// their reads are not counted as query chunk fates.
func (t *StoreTelemetry) noteChunks(skipped, summarized, decoded int) {
	if t == nil {
		return
	}
	t.ChunksSkipped.Add(uint64(skipped))
	t.ChunksSummarized.Add(uint64(summarized))
	t.ChunksDecoded.Add(uint64(decoded))
}

// Registry returns the registry the store's instruments live on;
// sieved's server registers its own beside them.
func (s *Sharded) Registry() *telemetry.Registry { return s.reg }

// Telemetry returns the store's instrument set, for reading.
func (s *Sharded) Telemetry() *StoreTelemetry { return s.tel }

// WALSegments reports the live WAL segment count across shards (0 for
// an in-memory store) — the backlog gauge: a growing count with a
// failing checkpoint means segments are accumulating unboundedly.
func (s *Sharded) WALSegments() int {
	if s.dur == nil {
		return 0
	}
	var n int
	for _, sh := range s.shards {
		n += sh.wal.segmentCount()
	}
	return n
}

// WALSizeBytes reports the bytes held by live WAL segments across
// shards (0 for an in-memory store).
func (s *Sharded) WALSizeBytes() int64 {
	if s.dur == nil {
		return 0
	}
	var n int64
	for _, sh := range s.shards {
		n += sh.wal.sizeBytes()
	}
	return n
}

// BlockCount reports the number of published immutable blocks (0 for
// an in-memory store).
func (s *Sharded) BlockCount() int {
	if s.dur == nil {
		return 0
	}
	_, _, count := s.dur.diskStats()
	return count
}
