package tsdb

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-microservices/sieve/internal/parallel"
	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// Sharded is a hash-partitioned store: series keys are FNV-hashed onto N
// independent shards, each with its own lock, so concurrent writers
// contend only when they touch the same shard instead of serializing on
// one global mutex. Every series lives entirely inside one shard, so
// query results and stored points are identical at any shard count —
// sharding changes scheduling, never data. NewSharded(1) is the
// standalone single-lock store.
type Sharded struct {
	shards []*shard

	// reg and tel are the store's own registry and the instrument set
	// registered on it, built before the first shard and never replaced
	// (see StoreTelemetry).
	reg *telemetry.Registry
	tel *StoreTelemetry

	// Wire-level accounting lives at the front door (the shards see only
	// decoded samples); atomics keep the hot write path lock-free here.
	netIn     atomic.Int64
	netOut    atomic.Int64
	ingestCPU atomic.Int64 // nanoseconds spent parsing+partitioning

	// dur is the storage engine of a store opened with OpenSharded: WAL
	// segments hang off the shards, dur owns the immutable block files,
	// checkpoints, and retention. nil for a pure in-memory store.
	dur *durable

	// The series catalog: the sorted union of every series key in shard
	// memory, the checkpoint overlay and the persisted blocks, shared
	// read-only by every read entry point and Stats. keyGen is
	// bumped wherever that union can change (the shards and the durable
	// engine hold a pointer to it); a reader whose cached catalog carries
	// an older generation rebuilds it under catMu. The write path pays one
	// atomic add per series birth and nothing per sample.
	keyGen atomic.Uint64
	catMu  sync.Mutex
	cat    atomic.Pointer[catalog]

	// scratchPool recycles the partition scratch (index, counts, backing
	// array, per-shard error slots) across ingests, so steady-state
	// ingest allocation is flat in batch size. Safe to reuse after an
	// ingest returns: nothing downstream retains the partitioned
	// sub-slices — the WAL copies bytes and the shards copy points.
	scratchPool sync.Pool
}

// ingestScratch is one ingest's reusable partition + fan-out state.
type ingestScratch struct {
	idx     []uint32
	counts  []int
	next    []int
	backing []Sample
	parts   [][]Sample
	order   []int // indices of the non-empty shards, ascending
	errs    []error
}

// catalog is one generation's sorted series keys.
type catalog struct {
	gen  uint64
	keys []string
}

// NewSharded creates a store with n shards; n <= 0 uses GOMAXPROCS.
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	reg := telemetry.NewRegistry()
	s := &Sharded{shards: make([]*shard, n), reg: reg, tel: newStoreTelemetry(reg)}
	for i := range s.shards {
		s.shards[i] = newShard(&s.keyGen, s.tel)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// FNV-1a, the hash that places a series key on a shard.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// shardIndex hashes a series key onto a shard.
func (s *Sharded) shardIndex(key string) int {
	return int(fnv1a(fnvOffset32, key) % uint32(len(s.shards)))
}

// shardOf is shardIndex(component + "/" + metric), hashed piecewise so
// no key is built.
func (s *Sharded) shardOf(component, metric string) int {
	h := (fnv1a(fnvOffset32, component) ^ '/') * fnvPrime32
	return int(fnv1a(h, metric) % uint32(len(s.shards)))
}

// getScratch takes an ingestScratch from the pool (or makes one).
func (s *Sharded) getScratch() *ingestScratch {
	if sc, ok := s.scratchPool.Get().(*ingestScratch); ok {
		return sc
	}
	return &ingestScratch{}
}

// partitionInto groups samples by destination shard with a counting sort
// into the scratch's backing array (allocation-free once the scratch has
// grown to the workload's steady-state batch size), preserving arrival
// order within each shard — and therefore within each series, since a
// series maps to exactly one shard. sc.parts[i] is a sub-slice of the
// backing array; empty shards get a nil slice.
func (s *Sharded) partitionInto(sc *ingestScratch, samples []Sample) [][]Sample {
	n := len(s.shards)
	if cap(sc.idx) < len(samples) {
		sc.idx = make([]uint32, len(samples))
	}
	idx := sc.idx[:len(samples)]
	if cap(sc.counts) < n+1 {
		sc.counts = make([]int, n+1)
		sc.next = make([]int, n)
		sc.parts = make([][]Sample, n)
		sc.errs = make([]error, n)
	}
	counts := sc.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for k := range samples {
		i := s.shardOf(samples[k].Component, samples[k].Metric)
		idx[k] = uint32(i)
		counts[i+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	if cap(sc.backing) < len(samples) {
		sc.backing = make([]Sample, len(samples))
	}
	backing := sc.backing[:len(samples)]
	next := sc.next[:n]
	copy(next, counts[:n])
	for k, smp := range samples {
		i := idx[k]
		backing[next[i]] = smp
		next[i]++
	}
	parts := sc.parts[:n]
	for i := 0; i < n; i++ {
		if counts[i+1] > counts[i] {
			parts[i] = backing[counts[i]:counts[i+1]]
		} else {
			parts[i] = nil
		}
	}
	return parts
}

// parallelIngestMinBatch is the batch size from which a CPU-bound
// multi-shard append fans out on a multi-core host; below it the
// goroutine hand-offs cost more than walking the shards inline. Measured
// on sievebench's ingest workload (one request in flight, 512-sample
// batches on 4 shards, 2 vCPU): the fan-out takes ~5 % off the request
// p50 by borrowing the idle core and costs ~7 % more CPU per request.
const parallelIngestMinBatch = 256

// fsyncAlways reports whether appends block on an inline durability
// wait (the group-commit path).
func (s *Sharded) fsyncAlways() bool {
	return s.dur != nil && s.dur.opts.Fsync == FsyncAlways
}

// ingest partitions and appends a decoded batch, returning how many
// samples were confirmed stored: on a multi-shard durable store one
// shard's WAL failure drops only that shard's sub-batch, so stored can
// be anywhere in [0, len(samples)] alongside a non-nil error. Non-empty
// sub-batches append in parallel when it pays — always under
// FsyncAlways, where the per-shard commit waits overlap on the same
// group fsyncs, and for large batches on multi-core hosts otherwise —
// with deterministic aggregation: stored counts sum over shards and the
// reported error is the lowest-indexed shard's. Results are
// bit-identical either way because a series lives entirely inside one
// shard and arrival order within each shard is the partition order.
func (s *Sharded) ingest(samples []Sample, wireBytes int, start time.Time) (int, error) {
	var stored int
	var err error
	if len(samples) == 0 {
		s.ingestCPU.Add(int64(time.Since(start)))
	} else if len(s.shards) == 1 {
		// Single shard: nothing to partition.
		s.ingestCPU.Add(int64(time.Since(start)))
		if err = s.shards[0].appendSamples(samples); err == nil {
			stored = len(samples)
		}
	} else {
		sc := s.getScratch()
		parts := s.partitionInto(sc, samples)
		s.ingestCPU.Add(int64(time.Since(start)))
		order := sc.order[:0]
		for i := range parts {
			if len(parts[i]) > 0 {
				order = append(order, i)
			}
		}
		sc.order = order
		if len(order) > 1 &&
			(s.fsyncAlways() || (len(samples) >= parallelIngestMinBatch && runtime.GOMAXPROCS(0) > 1)) {
			// Tasks record their outcome per slot and never fail the pool:
			// one shard's WAL trouble must not cancel a healthy sibling's
			// append (the serial walk keeps going too). Under FsyncAlways
			// the workers are fsync-bound, not CPU-bound, so one worker
			// per sub-batch regardless of core count.
			_ = parallel.ForEach(context.Background(), len(order), len(order), func(_ context.Context, k int) error {
				sc.errs[k] = s.shards[order[k]].appendSamples(parts[order[k]])
				return nil
			})
		} else {
			for k, i := range order {
				sc.errs[k] = s.shards[i].appendSamples(parts[i])
			}
		}
		for k, i := range order {
			if sc.errs[k] != nil {
				if err == nil {
					err = sc.errs[k]
				}
				sc.errs[k] = nil
			} else {
				stored += len(parts[i])
			}
		}
		s.scratchPool.Put(sc)
	}
	s.netIn.Add(int64(wireBytes))
	s.netOut.Add(ackBytes)
	if err != nil {
		// Append failures are storage-side (WAL write/fsync), never a
		// payload problem: mark them so front ends report a server error.
		err = fmt.Errorf("%w: %w", ErrStorage, err)
	}
	return stored, err
}

// Write ingests a line-protocol payload, returning the number of samples
// stored. Parsing and partitioning happen outside any shard lock. On a
// durable store a WAL append failure fails the write; with multiple
// shards the failure can be partial — sub-batches routed to healthy
// shards are stored, only the failing shard's samples are dropped (the
// partial-write semantics of real TSDBs: per-shard atomicity, not
// per-batch). The returned count is the samples that were stored even
// when err is non-nil. The stored subset is hash-determined (whichever
// samples routed to healthy shards), NOT a prefix of the payload, so
// the count is an accounting signal, not a resume cursor: resending any
// part of the payload duplicates the stored points. A client that needs
// exactness after a partial failure must reconcile via QueryRange.
func (s *Sharded) Write(payload []byte) (int, error) {
	start := time.Now()
	samples, err := ParseLineProtocol(payload)
	if err != nil {
		return 0, err
	}
	return s.ingest(samples, len(payload), start)
}

// WriteSamples ingests already-decoded samples, accounting wireBytes as
// network-in traffic. Like Write, a multi-shard failure can be partial;
// callers that need the stored count use Write.
func (s *Sharded) WriteSamples(samples []Sample, wireBytes int) error {
	_, err := s.ingest(samples, wireBytes, time.Now())
	return err
}

// IngestParsed is Write for callers that parsed the payload themselves
// (sieved's /write handler does, so it can count parse rejects and
// enforce the reserved self-scrape component before anything is
// stored): identical storage path and partial-failure semantics,
// returning the stored count. parseStart anchors the ingest-CPU
// accounting at the moment parsing began, so Stats charges the same
// work Write would.
func (s *Sharded) IngestParsed(samples []Sample, wireBytes int, parseStart time.Time) (int, error) {
	return s.ingest(samples, wireBytes, parseStart)
}

// catalogKeys returns the sorted series keys across shards and, on a
// durable store, persisted blocks, rebuilding them only when the key set
// may have changed since the cached generation. The slice is shared:
// callers must not modify it.
//
// The generation is read before the keys are collected, so a change that
// races the collection leaves the cached entry already stale and the next
// reader rebuilds; a change that finished before the read is visible to
// the collection through the lock that guarded it.
func (s *Sharded) catalogKeys() []string {
	gen := s.keyGen.Load()
	if c := s.cat.Load(); c != nil && c.gen == gen {
		return c.keys
	}
	s.catMu.Lock()
	defer s.catMu.Unlock()
	gen = s.keyGen.Load()
	sizeHint := 0
	if c := s.cat.Load(); c != nil {
		if c.gen == gen {
			return c.keys
		}
		sizeHint = len(c.keys)
	}
	set := make(map[string]struct{}, sizeHint)
	if s.dur != nil {
		// One cut-lock hold across memory and blocks: a checkpoint cut
		// moves keys from the shards to the overlay, and a collection that
		// straddled it could miss them on both sides.
		s.dur.cutMu.RLock()
	}
	for _, sh := range s.shards {
		sh.addKeys(set)
	}
	if s.dur != nil {
		s.dur.addKeys(set)
		s.dur.cutMu.RUnlock()
	}
	keys := sortedKeys(set)
	s.cat.Store(&catalog{gen: gen, keys: keys})
	return keys
}

// MaxTime returns the largest timestamp ingested across shards and, on a
// durable store, persisted blocks (0 when empty), self-telemetry
// included: the default end of a range read.
func (s *Sharded) MaxTime() int64 {
	maxT, _ := s.marks()
	return maxT
}

// AppMaxTime returns the application high-water mark: the largest
// timestamp of any sample outside ReservedComponent (0 when there is
// none). Retention's horizon and the pipeline window age by it, so
// process-time stamps ahead of application time move neither. It never
// decreases, and a restarted store recovers it — from the WAL replay and
// the block indexes, without decoding a chunk.
func (s *Sharded) AppMaxTime() int64 {
	_, appT := s.marks()
	return appT
}

// marks returns MaxTime and AppMaxTime.
func (s *Sharded) marks() (maxT, appT int64) {
	for _, sh := range s.shards {
		m, a := sh.marks()
		maxT, appT = max(maxT, m), max(appT, a)
	}
	if s.dur != nil {
		maxT, appT = max(maxT, s.dur.maxTime()), max(appT, s.dur.appT)
	}
	return maxT, appT
}

// Flush seals every shard's tails so Stats reflects compressed storage.
func (s *Sharded) Flush() {
	for _, sh := range s.shards {
		sh.Flush()
	}
}

// Stats sums the per-shard accounting and adds the front door's wire
// counters (ingest bytes and acks, 16 B per point returned by a read). On
// a durable store, Points also counts points recovered from blocks (prior
// lives' ingests), Series is the union of in-memory and persisted keys
// (a series does not double-count when it spans both), and StorageBytes
// adds the on-disk block chunks and live WAL segments.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Points += st.Points
		out.Series += st.Series
		out.StorageBytes += st.StorageBytes
		out.IngestCPU += st.IngestCPU
	}
	out.NetworkInBytes = int(s.netIn.Load())
	out.NetworkOutBytes = int(s.netOut.Load())
	out.IngestCPU += time.Duration(s.ingestCPU.Load())
	if s.dur != nil {
		blockBytes, basePoints, _ := s.dur.diskStats()
		out.Points += basePoints
		out.StorageBytes += int(blockBytes)
		for _, sh := range s.shards {
			out.StorageBytes += int(sh.wal.sizeBytes())
		}
		out.Series = len(s.catalogKeys())
		out.CheckpointFailures, out.LastCheckpointError = s.dur.checkpointStats()
	}
	return out
}

// Durable reports whether the store persists to disk.
func (s *Sharded) Durable() bool { return s.dur != nil }

// DataDir returns the data directory of a durable store ("" otherwise).
func (s *Sharded) DataDir() string {
	if s.dur == nil {
		return ""
	}
	return s.dur.opts.Dir
}

// Checkpoint seals all in-memory data into an immutable Gorilla block
// directory, prunes the WAL segments it covers, and enforces retention.
// No-op on an in-memory store.
func (s *Sharded) Checkpoint() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.checkpoint(s)
}

// Compact runs one synchronous compaction pass: adjacent small blocks
// are merged into larger ones (identical point set, identical query
// bytes). With DurabilityOptions.Downsample set, every block it writes
// carries 5m/1h downsampled companions, and a block that lacks them and
// no merge takes is rewritten alone to gain them. The same pass runs in
// the background every CompactInterval; this entry point exists for
// tests and operational tooling. No-op on an in-memory store.
func (s *Sharded) Compact() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.compact()
}

// Close stops the background ticks, checkpoints remaining
// in-memory data, and closes WAL and block files. Safe to call twice;
// no-op on an in-memory store. A store killed without Close recovers on
// the next OpenSharded from blocks plus the WAL.
func (s *Sharded) Close() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.shutdown(s)
}

// replayWAL replays one WAL directory into the shards, holding every
// shard lock. Placement follows the current key hash: replay is
// positional on disk (one directory per previous-life shard) but the
// shard count may have changed since.
func (s *Sharded) replayWAL(dir string) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	_, err := replayWAL(dir, storeReplay{s})
	return err
}

// storeReplay is the replaySink that puts recovered samples back into a
// store's shards: memory and counters update as on ingest, but nothing
// is re-logged — the records are already in the segments being
// replayed. The caller holds every shard lock.
type storeReplay struct{ s *Sharded }

func (r storeReplay) resolve(component, metric string) seriesRef {
	sh := r.s.shards[r.s.shardOf(component, metric)]
	sr, born := sh.lookupLocked(component, metric)
	if born {
		sh.stats.Series++
		sh.keyGen.Add(1)
	}
	return seriesRef{sh: sh, sr: sr}
}

func (storeReplay) add(ref seriesRef, t int64, v float64) {
	ref.sh.appendLocked(ref.sr, t, v)
}

// reinsert splices stolen series snapshots back into their owning
// shards after a failed cut or block write.
func (s *Sharded) reinsert(snap map[string]*series) {
	for key, sr := range snap {
		s.shards[s.shardIndex(key)].reinsertSeries(key, sr)
	}
}
