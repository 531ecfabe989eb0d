package tsdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStorage is wrapped by ingest errors that originate on the storage
// side (a WAL append or fsync failure) rather than in the client's
// payload: the request was well-formed and may succeed once the disk
// recovers, so HTTP front ends map it to a 5xx, not a 4xx.
var ErrStorage = errors.New("tsdb: storage failure")

// blockSize is the number of points buffered per series before the tail
// is compressed into a Gorilla block.
const blockSize = 512

// Stats is the one snapshot of a store's state: the quantities Table 3
// of the paper compares before/after metric reduction, plus the WAL,
// block and high-water-mark readings the store's state gauges export.
// Sharded.Stats builds it in one pass; the gauges, sieved's /stats and
// Table 3 all read it.
type Stats struct {
	// Points is the total number of stored observations.
	Points int
	// Series is the number of distinct component/metric series.
	Series int
	// StorageBytes is the on-"disk" footprint: compressed blocks plus the
	// uncompressed tails, and the live WAL segments.
	StorageBytes int
	// NetworkInBytes counts wire bytes received by Write.
	NetworkInBytes int
	// NetworkOutBytes counts bytes sent back to clients (acks and query
	// responses).
	NetworkOutBytes int
	// IngestCPU is the cumulative wall time spent parsing and storing
	// writes (a proxy for the monitoring stack's CPU overhead).
	IngestCPU time.Duration
	// WALSegments counts the store WAL's live segment files, and
	// WALBytes the bytes they hold (both 0 without a data directory,
	// where there is no WAL): the backlog a failing checkpoint leaves
	// growing.
	WALSegments int
	WALBytes    int64
	// Blocks is the number of published immutable blocks, on disk or,
	// without a data directory, in memory.
	Blocks int
	// MaxTime and AppMaxTime are Sharded.MaxTime and Sharded.AppMaxTime
	// as of the snapshot.
	MaxTime, AppMaxTime int64
}

// memChunk is one sealed, Gorilla-compressed run of a series, carrying
// the summary the on-disk chunk index keeps too: reads skip chunks whose
// [MinT, MaxT] is disjoint from the query range without decompressing
// them, and aggregated queries consume whole in-bucket chunks from the
// summary alone (see summary in queryengine.go).
type memChunk struct {
	data []byte
	summary
}

// series holds one component/metric stream: sealed compressed chunks plus
// an uncompressed tail.
type series struct {
	chunks []memChunk
	tail   []Point

	// key is component/metric, the string the shard's map holds the series
	// under; compLen splits it back into its halves (see ident). reserved
	// records at birth whether the key belongs to ReservedComponent, whose
	// samples do not move the application high-water mark.
	key      string
	compLen  int
	reserved bool

	// walID is the series' id in the store WAL's segment walSeg (0: none).
	// The id holds only while walSeg is the open segment: a roll makes it
	// stale, and the next append that uses the series defines it again.
	walID  uint64
	walSeg uint64
}

// newSeries makes an empty series for component/metric: the one key
// string a series costs is allocated here, at birth.
func newSeries(component, metric string) *series {
	key := component + "/" + metric
	return &series{key: key, compLen: len(component), reserved: reservedKey(key)}
}

// ident returns the series' component and metric.
func (sr *series) ident() (component, metric string) {
	return sr.key[:sr.compLen], sr.key[sr.compLen+1:]
}

// scanRange streams the series' points with T in [from, to) to sink in
// storage order: sealed chunks in seal order, then the tail. Chunks whose
// time range is disjoint from [from, to) are skipped without decoding;
// the rest are first offered to the sink as a summary (an aggregating
// sink may consume them without decoding — see pointSink). Callers own
// synchronization (a shard lock, or exclusive access to a stolen
// snapshot).
// tel receives the scan's chunk-fate counts (skipped / summarized /
// decoded), accumulated in locals and flushed once at the end so the
// per-chunk loop never touches an atomic; nil for a scan that is not a
// query (see noteChunks).
func (sr *series) scanRange(from, to int64, sink pointSink, tel *StoreTelemetry) error {
	var it chunkIter
	var skipped, summarized, decoded int
	for i := range sr.chunks {
		c := &sr.chunks[i]
		if c.MaxT < from || c.MinT >= to {
			skipped++
			continue
		}
		if sink.chunk(&c.summary) {
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

// shard is one hash partition of a Sharded store: the in-memory series
// of the keys that hash to it, behind its own lock. It has no read or
// write surface of its own — Sharded routes ingest through appendSamples
// and every read through scan.
type shard struct {
	mu   sync.Mutex
	data map[string]*series // key: component/metric
	// points and bytes are what data holds: its points, and the storage
	// bytes of its sealed chunks plus 16 per tail point. Kept where the
	// series change (append, seal), they leave with the series at the
	// checkpoint cut. ingestCPU is cumulative: the time appends took.
	points, bytes int
	ingestCPU     time.Duration
	maxT          int64
	// appT is maxT over the samples outside ReservedComponent. Both marks
	// are cumulative: they survive the checkpoint cut.
	appT int64

	// tel is the owning store's instrument set (chunk-fate counts from
	// scans), fixed at construction.
	tel *StoreTelemetry

	// keyGen and cat are the owning store's catalog generation and cached
	// catalog (see Sharded.catalogKeys): a batch that creates series
	// bumps the generation unless the cached catalog is current and
	// already lists every key it created.
	keyGen *atomic.Uint64
	cat    *atomic.Pointer[catalog]

	// Ingest scratch, reused under mu: key is the lookup buffer a series
	// key is spelled into, refs the series of each sample of the batch
	// being appended, born the series that batch created.
	key  []byte
	refs []*series
	born []*series
}

func newShard(keyGen *atomic.Uint64, cat *atomic.Pointer[catalog], tel *StoreTelemetry) *shard {
	return &shard{data: map[string]*series{}, keyGen: keyGen, cat: cat, tel: tel}
}

// ackBytes is the fixed response size per write batch (status line),
// counted as network-out traffic like a real HTTP 204 from InfluxDB.
const ackBytes = 32

// appendSamples ingests decoded samples with point and CPU accounting
// but no network accounting: the entry point used by Sharded, whose
// front door owns the wire-level counters. Each sample's series is looked
// up once and carried by reference through the WAL append and the memory
// insert. On a durable store (wal non-nil: the store's one log) the batch
// goes to the WAL first, as one record; a WAL write failure rejects the
// whole batch, and the series it would have created are unborn again, so
// memory never holds points (or keys) the log's file does not cover. The
// WAL write and the memory insert happen under one hold of the shard's
// lock — that atomicity is what lets a checkpoint cut (which holds every
// shard lock while it rotates the WAL and drains memory) never split a
// batch between a pruned segment and post-cut memory. Under FsyncAlways the
// durability wait happens after the lock is released, through the WAL's
// group-commit queue: concurrent appenders queue behind one in-flight
// fsync and the next leader commits them all with a single sync, so the
// request still returns only once its own batch is durable but the
// fsync count scales with coalesced groups, not with requests.
func (sh *shard) appendSamples(samples []Sample, wal *walWriter) error {
	start := time.Now()
	sh.mu.Lock()
	refs, born := sh.refs[:0], sh.born[:0]
	for i := range samples {
		sr, isNew := sh.lookupLocked(samples[i].Component, samples[i].Metric)
		if isNew {
			born = append(born, sr)
		}
		refs = append(refs, sr)
	}
	var seq uint64
	var err error
	if wal != nil {
		seq, err = wal.append(samples, refs)
	}
	if err != nil {
		for _, sr := range born {
			delete(sh.data, sr.key)
		}
	} else {
		if len(born) > 0 && !sh.cataloged(born) {
			sh.keyGen.Add(1)
		}
		for i, sr := range refs {
			sh.appendLocked(sr, samples[i].T, samples[i].V)
		}
		sh.ingestCPU += time.Since(start)
	}
	// Drop the references: a checkpoint may steal these series next.
	clear(refs)
	clear(born)
	sh.refs, sh.born = refs, born
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	if wal != nil && wal.policy == FsyncAlways {
		// A commitWait error means durability is unconfirmed, not that
		// the batch was dropped: the frames are in the log and the points
		// are in memory, but the fsync covering them failed. Callers see
		// a storage error; a crash before a later successful fsync loses
		// the batch, a client retry may duplicate it.
		return wal.commitWait(seq)
	}
	return nil
}

// cataloged reports whether the cached catalog is current and lists
// every series in born: the shard re-created them after a checkpoint cut
// while their keys still live in the overlay or a block, and the union
// is unchanged. One binary search per birth. A stale catalog proves
// nothing — a rebuild may already have read this shard — so it reports
// false. Keys leave the union only through a retention pass, which
// moves the generation, so a current catalog's keys are all still held.
func (sh *shard) cataloged(born []*series) bool {
	c := sh.cat.Load()
	if c == nil || c.gen != sh.keyGen.Load() {
		return false
	}
	for _, sr := range born {
		if _, ok := slices.BinarySearch(c.keys, sr.key); !ok {
			return false
		}
	}
	return true
}

// lookupLocked returns the series of component/metric, creating it when
// the shard holds none (born reports that; the caller accounts the
// birth). The key is spelled into the shard's reusable buffer for a
// single map probe, so finding a known series allocates nothing.
func (sh *shard) lookupLocked(component, metric string) (sr *series, born bool) {
	sh.key = append(append(append(sh.key[:0], component...), '/'), metric...)
	if sr = sh.data[string(sh.key)]; sr != nil {
		return sr, false
	}
	sr = newSeries(component, metric)
	sh.data[sr.key] = sr
	return sr, true
}

// appendLocked adds one point to sr, a series of this shard, keeping the
// shard's counts and marks, and seals the tail once it is full.
func (sh *shard) appendLocked(sr *series, t int64, v float64) {
	sr.tail = append(sr.tail, Point{T: t, V: v})
	sh.points++
	sh.bytes += 16
	if t > sh.maxT {
		sh.maxT = t
	}
	if t > sh.appT && !sr.reserved {
		sh.appT = t
	}
	if len(sr.tail) >= blockSize {
		sh.sealLocked(sr)
	}
}

// marks returns the largest timestamp ingested so far and the largest
// outside ReservedComponent (each 0 when there is none).
func (sh *shard) marks() (maxT, appT int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.maxT, sh.appT
}

// sealLocked compresses the tail into a chunk, recording its time range
// and value summary so reads can skip it (or aggregate it) without
// decompressing, and swaps the tail's raw bytes for the chunk's in the
// shard's byte count. Errors (unordered timestamps) leave the tail
// uncompressed; storage accounting then counts it raw, which only
// overstates our footprint.
func (sh *shard) sealLocked(sr *series) {
	// Points may arrive slightly out of order across scrape batches; sort
	// the tail before sealing, as real TSDBs do per block.
	sort.SliceStable(sr.tail, func(i, j int) bool { return sr.tail[i].T < sr.tail[j].T })
	block, err := CompressBlock(sr.tail)
	if err != nil {
		return
	}
	sr.chunks = append(sr.chunks, memChunk{data: block, summary: summarizeChunk(sr.tail)})
	sh.bytes += len(block) - 16*len(sr.tail)
	sr.tail = sr.tail[:0]
}

// cutLocked is the shard half of a checkpoint cut, whose caller holds
// every shard's lock across the WAL's rotation and every handover: it
// moves every series, with the shard's point and byte counts, into c,
// leaving the shard empty. The work is O(series) map moves — no decompression — so
// queries stall only for the handover, not for the decode. The moved
// structures are immutable from here on (the shard allocates fresh ones
// for new arrivals), so the checkpoint may read them without locking.
func (sh *shard) cutLocked(c *flushCut) {
	for key, sr := range sh.data {
		if len(sr.chunks)+len(sr.tail) > 0 {
			c.series[key] = sr
		}
	}
	c.points += sh.points
	c.bytes += sh.bytes
	sh.data, sh.points, sh.bytes = map[string]*series{}, 0, 0
}

// Flush seals every series' tail so Stats reflects compressed storage.
func (sh *shard) Flush() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, sr := range sh.data {
		if len(sr.tail) > 0 {
			sh.sealLocked(sr)
		}
	}
}

// scan streams one series' in-memory points with T in [from, to) to sink
// in storage order (sealed chunks, then tail), skipping chunks disjoint
// from the range. A key the shard does not hold is simply an empty scan:
// readers select keys from the store's catalog, and the persisted side
// may own all of this one's points.
func (sh *shard) scan(key string, from, to int64, sink pointSink) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sr := sh.data[key]
	if sr == nil {
		return nil
	}
	if err := sr.scanRange(from, to, sink, sh.tel); err != nil {
		return fmt.Errorf("tsdb: corrupt block in %q: %w", key, err)
	}
	return nil
}

// addKeys unions the shard's in-memory series keys into set.
func (sh *shard) addKeys(set map[string]struct{}) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k := range sh.data {
		set[k] = struct{}{}
	}
}

// addStats adds the shard's in-memory points and storage bytes and its
// ingest time to out and raises out's marks to the shard's, under one
// lock hold.
func (sh *shard) addStats(out *Stats) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out.Points += sh.points
	out.StorageBytes += sh.bytes
	out.IngestCPU += sh.ingestCPU
	out.MaxTime, out.AppMaxTime = max(out.MaxTime, sh.maxT), max(out.AppMaxTime, sh.appT)
}
