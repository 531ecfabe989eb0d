package tsdb

import (
	"sync/atomic"

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
// The store-state gauges (points, series, bytes, WAL, blocks, marks)
// are registered beside it, by registerStateGauges.
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
	// CompactionFailures counts compaction passes that failed; the
	// compaction reporter logs only when the compactor starts failing and
	// when it recovers.
	CompactionFailures *telemetry.Counter
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
		CompactionFailures: reg.Counter("sieve_compaction_failures_total",
			"compaction passes that failed (their sources are kept and retried next interval)"),
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

// Checkpoints returns the health of the store's checkpoints, whoever ran
// them: failed attempts since open, the latest failure ("" once a later
// checkpoint succeeds) and the time of the last success. A growing
// failure count means blocks are not being written and shard memory (and
// on disk the WAL segments) accumulate without bound (a full disk, say).
func (s *Sharded) Checkpoints() telemetry.Health { return s.dur.checkpoints.Health() }

// registerStateGauges registers the store-state gauges on the store's
// registry. Each collect (a /metrics scrape, a self-scrape pass) takes
// one Stats snapshot in its hook and the gauges read the latest one;
// the snapshot is swapped whole because two collects can run at once.
// The checkpoint-failures gauge reads the checkpoint reporter.
func (s *Sharded) registerStateGauges() {
	var snap atomic.Pointer[Stats]
	s.reg.OnCollect(func() {
		st := s.Stats()
		snap.Store(&st)
	})
	gauge := func(name, help string, read func(st *Stats) float64) {
		s.reg.GaugeFunc(name, help, func() float64 { return read(snap.Load()) })
	}
	gauge("sieve_store_points", "points resident in the store",
		func(st *Stats) float64 { return float64(st.Points) })
	gauge("sieve_store_series", "distinct series in the store",
		func(st *Stats) float64 { return float64(st.Series) })
	gauge("sieve_store_storage_bytes", "compressed bytes held by sealed chunks",
		func(st *Stats) float64 { return float64(st.StorageBytes) })
	gauge("sieve_store_network_in_bytes", "wire bytes accepted by ingest",
		func(st *Stats) float64 { return float64(st.NetworkInBytes) })
	gauge("sieve_store_network_out_bytes", "wire bytes acknowledged to writers",
		func(st *Stats) float64 { return float64(st.NetworkOutBytes) })
	gauge("sieve_store_max_time_ms", "ingest high-water mark (ms)",
		func(st *Stats) float64 { return float64(st.MaxTime) })
	gauge("sieve_app_max_time_ms", "application high-water mark: retention and the pipeline window age by it (ms)",
		func(st *Stats) float64 { return float64(st.AppMaxTime) })
	gauge("sieve_wal_segments", "live WAL segments across shards",
		func(st *Stats) float64 { return float64(st.WALSegments) })
	gauge("sieve_wal_size_bytes", "bytes held by live WAL segments",
		func(st *Stats) float64 { return float64(st.WALBytes) })
	gauge("sieve_store_blocks", "published immutable blocks",
		func(st *Stats) float64 { return float64(st.Blocks) })
	s.reg.GaugeFunc("sieve_store_checkpoint_failures", "failed checkpoint attempts since open",
		func() float64 { return float64(s.Checkpoints().Failures) })
}
