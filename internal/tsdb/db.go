package tsdb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnknownSeries is wrapped by Query errors for series the store has
// never seen; callers that merge several point sources use it to tell
// "not here" apart from real failures.
var ErrUnknownSeries = errors.New("tsdb: unknown series")

// ErrStorage is wrapped by ingest errors that originate on the storage
// side (a WAL append or fsync failure) rather than in the client's
// payload: the request was well-formed and may succeed once the disk
// recovers, so HTTP front ends map it to a 5xx, not a 4xx.
var ErrStorage = errors.New("tsdb: storage failure")

// blockSize is the number of points buffered per series before the tail
// is compressed into a Gorilla block.
const blockSize = 512

// Stats summarizes a DB's resource consumption; these are the quantities
// Table 3 of the paper compares before/after metric reduction.
type Stats struct {
	// Points is the total number of stored observations.
	Points int
	// Series is the number of distinct component/metric series.
	Series int
	// StorageBytes is the on-"disk" footprint: compressed blocks plus the
	// uncompressed tails.
	StorageBytes int
	// NetworkInBytes counts wire bytes received by Write.
	NetworkInBytes int
	// NetworkOutBytes counts bytes sent back to clients (acks and query
	// responses).
	NetworkOutBytes int
	// IngestCPU is the cumulative wall time spent parsing and storing
	// writes (a proxy for the monitoring stack's CPU overhead).
	IngestCPU time.Duration
	// CheckpointFailures counts checkpoint attempts that failed on a
	// durable store since it was opened (always 0 for in-memory stores).
	// The background flusher retries every FlushInterval, so a growing
	// count means blocks are not being written and WAL segments are
	// accumulating without bound (e.g. the disk is full).
	CheckpointFailures int
	// LastCheckpointError is the most recent checkpoint failure message,
	// cleared once a later checkpoint succeeds.
	LastCheckpointError string
}

// memChunk is one sealed, Gorilla-compressed run of a series, carrying
// the same summary the on-disk chunk index keeps: reads skip chunks whose
// [MinT, MaxT] is disjoint from the query range without decompressing
// them, and aggregated queries consume whole in-bucket chunks from the
// summary alone (see chunkAgg in queryengine.go).
type memChunk struct {
	data []byte
	agg  chunkAgg
}

// series holds one component/metric stream: sealed compressed chunks plus
// an uncompressed tail.
type series struct {
	chunks    []memChunk
	blockPts  int
	tail      []Point
	compBytes int
}

// scanRange streams the series' points with T in [from, to) to sink in
// storage order: sealed chunks in seal order, then the tail. Chunks whose
// time range is disjoint from [from, to) are skipped without decoding;
// chunks that lie entirely inside the range are first offered to the sink
// as a summary (an aggregating sink may consume them without decoding —
// see pointSink). Callers own synchronization (a shard lock, or exclusive
// access to a stolen snapshot).
// tel, when non-nil, receives the scan's chunk-fate counts (skipped /
// summarized / decoded), accumulated in locals and flushed once at the
// end so the per-chunk loop never touches an atomic.
func (sr *series) scanRange(from, to int64, sink pointSink, tel *StoreTelemetry) error {
	var it chunkIter
	var skipped, summarized, decoded int
	for _, c := range sr.chunks {
		if c.agg.MaxT < from || c.agg.MinT >= to {
			skipped++
			continue
		}
		if c.agg.MinT >= from && c.agg.MaxT < to && sink.chunk(c.agg) {
			summarized++
			continue
		}
		decoded++
		if err := scanChunkWith(&it, c.data, from, to, sink); err != nil {
			return err
		}
	}
	tel.noteChunks(skipped, summarized, decoded)
	for _, p := range sr.tail {
		if p.T >= from && p.T < to {
			sink.add(p)
		}
	}
	return nil
}

// pointsInRange collects the series' points with T in [from, to) in
// storage order (a rawSink over scanRange).
func (sr *series) pointsInRange(from, to int64, tel *StoreTelemetry) ([]Point, error) {
	var out rawSink
	if err := sr.scanRange(from, to, &out, tel); err != nil {
		return nil, err
	}
	return out.pts, nil
}

// DB is an in-memory time-series store with InfluxDB-like write/query
// semantics and explicit resource accounting. It is safe for concurrent
// use.
type DB struct {
	mu     sync.Mutex
	data   map[string]*series // key: component/metric
	stats  Stats
	maxT   int64
	sealed bool

	// wal, when non-nil, is the shard's write-ahead log: set only by
	// OpenSharded, appended to (under mu, before the memory insert) on
	// the appendSamples path that Sharded routes ingest through.
	wal *walWriter

	// tel, when non-nil, receives chunk-fate counts from scans; set via
	// setTelemetry (under mu) before the store serves traffic.
	tel *StoreTelemetry

	// keyGen is bumped whenever the set of keys in data changes. A shard
	// of a Sharded store points it at the store's catalog generation (see
	// Sharded.catalogKeys); a standalone DB counts into its own.
	keyGen *atomic.Uint64
}

// New creates an empty DB.
func New() *DB {
	return &DB{data: map[string]*series{}, keyGen: new(atomic.Uint64)}
}

// ackBytes is the fixed response size per write batch (status line),
// counted as network-out traffic like a real HTTP 204 from InfluxDB.
const ackBytes = 32

// Write ingests a line-protocol payload, returning the number of samples
// stored. Wire size, ack size, and parse/store CPU time are accounted.
func (db *DB) Write(payload []byte) (int, error) {
	start := time.Now()
	samples, err := ParseLineProtocol(payload)
	if err != nil {
		return 0, err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range samples {
		db.insertLocked(s)
	}
	db.stats.Points += len(samples)
	db.stats.NetworkInBytes += len(payload)
	db.stats.NetworkOutBytes += ackBytes
	db.stats.IngestCPU += time.Since(start)
	return len(samples), nil
}

// WriteSamples ingests samples that are already decoded (used by
// in-process collectors that still want the wire cost accounted: pass the
// encoded size explicitly).
func (db *DB) WriteSamples(samples []Sample, wireBytes int) error {
	start := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range samples {
		db.insertLocked(s)
	}
	db.stats.Points += len(samples)
	db.stats.NetworkInBytes += wireBytes
	db.stats.NetworkOutBytes += ackBytes
	db.stats.IngestCPU += time.Since(start)
	return nil
}

// appendSamples ingests decoded samples with point and CPU accounting
// but no network accounting: the entry point used by Sharded, whose
// front door owns the wire-level counters. On a durable store the batch
// goes to the WAL first; a WAL write failure rejects the whole batch so
// memory never holds points the log's file does not cover. The WAL
// write and the memory insert happen under one lock hold — that
// atomicity is what lets a checkpoint cut (which rotates the WAL and
// drains memory under the same lock) never split a batch between a
// pruned segment and post-cut memory. Under FsyncAlways the durability
// wait happens after the lock is released, through the WAL's
// group-commit queue: concurrent appenders queue behind one in-flight
// fsync and the next leader commits them all with a single sync, so the
// request still returns only once its own batch is durable but the
// fsync count scales with coalesced groups, not with requests.
func (db *DB) appendSamples(samples []Sample) error {
	start := time.Now()
	db.mu.Lock()
	var seq uint64
	if db.wal != nil {
		var err error
		if seq, err = db.wal.append(samples); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	for _, s := range samples {
		db.insertLocked(s)
	}
	db.stats.Points += len(samples)
	db.stats.IngestCPU += time.Since(start)
	db.mu.Unlock()
	if db.wal != nil && db.wal.policy == FsyncAlways {
		// A commitWait error means durability is unconfirmed, not that
		// the batch was dropped: the frames are in the log and the points
		// are in memory, but the fsync covering them failed. Callers see
		// a storage error; a crash before a later successful fsync loses
		// the batch, a client retry may duplicate it.
		return db.wal.commitWait(seq)
	}
	return nil
}

// replaySamples re-inserts WAL-recovered samples: memory and counters
// update as on ingest, but nothing is re-logged — the records are already
// in the segments being replayed.
func (db *DB) replaySamples(samples []Sample) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range samples {
		db.insertLocked(s)
	}
	db.stats.Points += len(samples)
}

func (db *DB) insertLocked(s Sample) {
	key := s.Key()
	sr := db.data[key]
	if sr == nil {
		sr = &series{}
		db.data[key] = sr
		db.stats.Series++
		db.keyGen.Add(1)
	}
	sr.tail = append(sr.tail, Point{T: s.T, V: s.V})
	if s.T > db.maxT {
		db.maxT = s.T
	}
	if len(sr.tail) >= blockSize {
		db.sealLocked(sr)
	}
}

// MaxTime returns the largest timestamp ingested so far (0 when empty),
// the high-water mark sliding-window readers anchor to.
func (db *DB) MaxTime() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.maxT
}

// sealLocked compresses the tail into a chunk, recording its time range
// and value summary so reads can skip it (or aggregate it) without
// decompressing. Errors (unordered timestamps) leave the tail
// uncompressed; storage accounting then counts it raw, which only
// overstates our footprint.
func (db *DB) sealLocked(sr *series) {
	// Points may arrive slightly out of order across scrape batches; sort
	// the tail before sealing, as real TSDBs do per block.
	sort.SliceStable(sr.tail, func(i, j int) bool { return sr.tail[i].T < sr.tail[j].T })
	block, err := CompressBlock(sr.tail)
	if err != nil {
		return
	}
	sr.chunks = append(sr.chunks, memChunk{data: block, agg: summarizeChunk(sr.tail)})
	sr.blockPts += len(sr.tail)
	sr.compBytes += len(block)
	sr.tail = sr.tail[:0]
}

// cutSnapshot is the shard half of a durable checkpoint: under one lock
// hold it rotates the WAL and steals every series structure into `into`,
// leaving the shard empty. The work under the lock is O(series) slice
// moves — no decompression — so queries stall only for the handover, not
// for the decode. The stolen structures are immutable from here on (the
// shard allocates fresh ones for new arrivals), so the caller may read
// them without locking. The returned sequence number is the cut: all
// stolen points live in WAL segments below it, all later appends in
// segments at or above it. On error the shard is left untouched.
func (db *DB) cutSnapshot(into map[string]*series) (cutSeq uint64, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cutSeq, err = db.wal.rotate()
	if err != nil {
		return 0, err
	}
	for key, sr := range db.data {
		if sr.blockPts+len(sr.tail) > 0 {
			into[key] = sr
		}
	}
	db.data = map[string]*series{}
	db.keyGen.Add(1)
	return cutSeq, nil
}

// reinsertSeries splices a stolen snapshot back after a failed block
// write, in front of whatever arrived during the flush: the merged
// series reads back as snapshot blocks, snapshot tail, then the current
// data — the original arrival order, so equal-timestamp points keep
// their pre-flush query order. Series counters were never reset by the
// cut (Stats.Series is recomputed at the Sharded level for durable
// stores), so only the raw data returns.
func (db *DB) reinsertSeries(key string, old *series) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.keyGen.Add(1)
	cur := db.data[key]
	if cur == nil {
		db.data[key] = old
		if len(old.tail) >= blockSize {
			db.sealLocked(old)
		}
		return
	}
	merged := &series{
		chunks:    old.chunks,
		blockPts:  old.blockPts,
		compBytes: old.compBytes,
		tail:      old.tail,
	}
	if len(merged.tail) > 0 {
		// Seal the snapshot's tail so the newer chunks can follow it.
		db.sealLocked(merged)
	}
	merged.chunks = append(merged.chunks, cur.chunks...)
	merged.blockPts += cur.blockPts
	merged.compBytes += cur.compBytes
	merged.tail = cur.tail
	db.data[key] = merged
}

// Flush seals every series' tail so Stats reflects compressed storage.
func (db *DB) Flush() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, sr := range db.data {
		if len(sr.tail) > 0 {
			db.sealLocked(sr)
		}
	}
}

// Query returns the points of component/metric with T in [from, to),
// merged across blocks and tail in time order. The response size is
// charged to network-out.
func (db *DB) Query(component, metric string, from, to int64) ([]Point, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := component + "/" + metric
	sr := db.data[key]
	if sr == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownSeries, key)
	}
	out, err := sr.pointsInRange(from, to, db.tel)
	if err != nil {
		return nil, fmt.Errorf("tsdb: corrupt block in %q: %w", key, err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	// 16 bytes per point on the wire (timestamp + float64).
	db.stats.NetworkOutBytes += 16 * len(out)
	return out, nil
}

// scanSeries streams one series' in-memory points with T in [from, to)
// to sink in storage order (sealed chunks, then tail), skipping chunks
// disjoint from the range. A key the shard has never seen is simply an
// empty scan — the query engine enumerates keys up front, and the
// persisted side may own all of this one's points.
func (db *DB) scanSeries(key string, from, to int64, sink pointSink) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	sr := db.data[key]
	if sr == nil {
		return nil
	}
	if err := sr.scanRange(from, to, sink, db.tel); err != nil {
		return fmt.Errorf("tsdb: corrupt block in %q: %w", key, err)
	}
	return nil
}

// SeriesKeys returns all component/metric keys in sorted order.
func (db *DB) SeriesKeys() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sortedKeysLocked()
}

// sortedKeysLocked lists the DB's keys in sorted order. Caller holds mu.
func (db *DB) sortedKeysLocked() []string {
	keys := make([]string, 0, len(db.data))
	for k := range db.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addSeriesKeys unions the shard's in-memory series keys into set.
func (db *DB) addSeriesKeys(set map[string]struct{}) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for k := range db.data {
		set[k] = struct{}{}
	}
}

// Stats returns a snapshot of the accounting counters; StorageBytes is
// recomputed from current blocks and tails.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.stats
	storage := 0
	for _, sr := range db.data {
		storage += sr.compBytes + 16*len(sr.tail)
	}
	s.StorageBytes = storage
	return s
}
