package tsdb

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-microservices/sieve/internal/parallel"
	"github.com/sieve-microservices/sieve/internal/telemetry"
)

// DurabilityOptions configures the storage engine of a Sharded store
// opened with OpenSharded.
type DurabilityOptions struct {
	// Dir is the data directory root. It is created if missing; layout:
	//
	//	<dir>/wal/NNNNNNNN.wal               the store's one WAL, in segments
	//	<dir>/blocks/b-<seq>-<minT>-<maxT>/ immutable compressed blocks
	//
	// Every shard appends to the one log. A directory an earlier release
	// wrote, with one WAL directory per shard (<dir>/wal/shard-NNNN/),
	// opens too: OpenSharded seals what those directories hold into a
	// block and removes them. Empty keeps the blocks in memory and writes
	// no WAL.
	Dir string
	// Fsync is the WAL fsync policy (default FsyncInterval; without Dir
	// there is no WAL, and it is ignored).
	Fsync FsyncPolicy
	// FlushInterval is the cadence of the background flusher that
	// checkpoints shard memory into blocks and prunes the WAL (default
	// 60s; negative disables the background flusher — checkpoints then
	// only happen via Checkpoint and Close).
	FlushInterval time.Duration
	// RetentionMS drops blocks whose newest point is more than this many
	// milliseconds behind the application high-water mark, the newest
	// timestamp outside ReservedComponent (0 keeps everything). Retention
	// is block-granular: a block is removed only once every point in it is
	// past the horizon.
	RetentionMS int64
	// CompactInterval is the cadence of the background compactor that
	// merges adjacent small blocks (default 5m; negative disables the
	// background passes — compaction then only happens via
	// Sharded.Compact). The first pass runs as soon as the store is
	// open, when the blocks found at open plan any work, so a restarted
	// store is compacted, and with Downsample serves every block's
	// companions, without waiting an interval.
	CompactInterval time.Duration
	// Downsample makes compaction write 5m/1h downsampled companions
	// into the index.json of every block it writes, which aggregated
	// queries with coarse steps consume without touching chunk data. A
	// block without them (a checkpoint's, one from a life without
	// Downsample, or one whose companions an older release wrote as
	// ds-*.json files) that no merge takes is rewritten alone, once, to
	// gain them; the blocks found at open, by the first pass.
	Downsample bool
}

const (
	// fsyncTick is the cadence of the WAL commit tick under the
	// FsyncInterval policy: the window of acknowledged writes a power
	// loss can take.
	fsyncTick = 200 * time.Millisecond
	// walSegmentBytes is the WAL segment roll threshold.
	walSegmentBytes = 8 << 20
)

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.Dir == "" {
		o.Fsync = FsyncNever // no WAL, so nothing to fsync
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 60 * time.Second
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 5 * time.Minute
	}
	return o
}

// durable is the storage engine of every Sharded store, on disk or in
// memory: the block list, the checkpoint machinery, and the background
// ticks, and the store's WAL (on disk only), to which every shard
// appends under its own lock: the cut takes every shard lock, which
// orders it against every append. Each point is
// held in exactly one place — shard memory, the flushing overlay, or a
// block — and Stats sums each place's own counts.
type durable struct {
	opts DurabilityOptions
	// fsys holds the blocks and WAL segments: the operating system's under
	// opts.Dir, or a memFS of the store's own without it.
	fsys      fileSystem
	blocksDir string
	// wal is the store's write-ahead log under <dir>/wal (nil in memory),
	// set at open and never replaced.
	wal *walWriter

	// mu guards blocks, flushing, and nextSeq; writers of blocks and
	// flushing also hold flushMu, for a checkpoint's or a compaction
	// run's whole length, so only one cut is in flight at a time.
	mu     sync.RWMutex
	blocks []*block
	// flushing is the overlay: the cut a checkpoint is writing, or one
	// whose write failed, kept until the next checkpoint writes it. Its
	// series are still compressed, immutable, and visible to queries.
	flushing *flushCut
	nextSeq  uint64
	// keyGen is the owning store's catalog generation (Sharded.keyGen),
	// bumped under mu when retention drops a block: cuts, publishes and
	// compactions move keys without changing the catalog.
	keyGen *atomic.Uint64

	// cutMu excludes readers during the cut itself: a checkpoint holds
	// the write side from the first shard drain until the drained set is
	// published as the flushing overlay, while a series scan, a catalog
	// rebuild and Stats hold the read side across their memory+blocks
	// reads. Without it a reader racing the cut could catch a shard
	// already drained but the overlay not yet visible (missing points),
	// or memory pre-cut and blocks post-publish (duplicated points). Lock
	// order: cutMu, then shard locks, then mu.
	cutMu sync.RWMutex

	// appT is the application high-water mark of the blocks found at open,
	// the newest chunk time outside ReservedComponent in their indexes;
	// fixed from then on. Blocks published later hold points whose shard
	// mark already counts them, and the block holding the mark is never
	// past the retention horizon, so nothing lowers it.
	appT int64

	// checkpoints and compactions report every checkpoint and compaction
	// pass, whoever ran it. Sharded.Checkpoints reads the first (the
	// probes, /stats and the checkpoint-failures gauge); the second counts
	// its failures on sieve_compaction_failures_total.
	checkpoints, compactions *telemetry.Reporter

	// tel is the owning store's instrument set (checkpoint, retention,
	// compaction and block-scan instruments), fixed at construction.
	tel *StoreTelemetry
	// writeWorkers sizes the block writer's encode pool for checkpoints
	// and compaction: 0, parallel.Workers(0), like every other pool of the
	// process. Tests set other counts to show the bytes do not depend on it.
	writeWorkers int

	flushMu sync.Mutex
	closed  bool
	loops   *parallel.Loops // the background ticks, stopped by shutdown
}

// OpenSharded opens (or creates) a sharded store. With opts.Dir it is
// durable: published blocks are indexed for reading, the WAL is replayed
// into memory — tolerating a truncated or corrupt tail, which is cut off
// Prometheus-style and logged — and the background ticks (interval
// fsync, checkpoint, compaction) are started.
// A store that was killed without Close reopens to exactly the points
// covered by blocks plus fsynced WAL records.
//
// Without opts.Dir the store is the same engine over a filesystem of its
// own in memory: checkpoints, compaction, downsampling and retention run
// as they do on disk, but there is no WAL, since there is nothing to
// recover, and so no fsync tick.
//
// Replay places records by the current key hash, so the shard count may
// change between lives (cmd/sieved defaults it to GOMAXPROCS, which
// varies across hosts) with nothing to seal: the one log keeps every
// series' records in arrival order, whichever shard wrote them.
//
// The returned store must be Closed to stop its ticks and, on disk, to
// flush the final checkpoint; a crash without Close loses nothing that
// reached the WAL.
func OpenSharded(n int, opts DurabilityOptions) (*Sharded, error) {
	if opts.Dir == "" {
		return openSharded(n, opts, newMemFS())
	}
	return openSharded(n, opts, osFS{})
}

// openSharded is OpenSharded over the given filesystem.
func openSharded(n int, opts DurabilityOptions, fsys fileSystem) (*Sharded, error) {
	opts = opts.withDefaults()
	s := newSharded(n)
	d := &durable{opts: opts, fsys: fsys, blocksDir: filepath.Join(opts.Dir, "blocks"), keyGen: &s.keyGen, tel: s.tel, loops: parallel.NewLoops(),
		checkpoints: telemetry.NewReporter("checkpoint", nil), compactions: telemetry.NewReporter("compaction", s.tel.CompactionFailures)}
	s.dur = d

	blocks, err := openBlocks(fsys, d.blocksDir)
	if err != nil {
		return nil, err
	}
	// Until the tickers start, this closes everything opened so far on
	// any failure path: nothing else can, since the store is never
	// returned.
	closeOnErr := func() {
		for _, b := range d.blocks {
			_ = b.close()
		}
		if d.wal != nil {
			_ = d.wal.close()
		}
	}
	d.blocks = blocks
	d.nextSeq = 1
	for _, b := range blocks {
		d.appT = max(d.appT, b.appMaxT())
		if b.meta.Seq >= d.nextSeq {
			d.nextSeq = b.meta.Seq + 1
		}
	}

	if opts.Dir != "" {
		if err := d.openWAL(s); err != nil {
			closeOnErr()
			return nil, err
		}
	}
	if err := d.enforceRetention(s.AppMaxTime()); err != nil {
		closeOnErr()
		return nil, err
	}

	if opts.Fsync == FsyncInterval {
		d.loops.Every(fsyncTick, false, func(context.Context) { d.wal.flush() })
	}
	if opts.FlushInterval > 0 {
		d.loops.Every(opts.FlushInterval, false, func(context.Context) { _ = s.Checkpoint() })
	}
	if opts.CompactInterval > 0 {
		// A restarted store starts compacting at once: the blocks it
		// opened may hold a run to merge or lack their companions. A
		// failed pass loses nothing (sources go only after the swap).
		d.loops.Every(opts.CompactInterval, len(d.plan(d.blocks)) > 0, func(context.Context) { _ = d.compact() })
	}
	return s, nil
}

// walKey is the store log's key in a block's wal_cuts. No shard index
// spells it, so a block can record it beside the cuts of the per-shard
// directories an earlier release wrote.
const walKey = "wal"

// openWAL replays the store's log, <dir>/wal/NNNNNNNN.wal, into the
// shards and opens its writer. A data directory an earlier release wrote
// holds one log directory per shard instead, wal/shard-NNNN/: each is
// replayed after the store log, in index order, and then sealed into a
// block whose meta records the cut covering each directory, and removed.
// A crash after that block's publish prunes every legacy segment at the
// next open, so nothing replays twice. The store log goes first because
// when both hold records the legacy ones are the newer: an earlier
// release opened this directory after a hard stop, did not see the store
// log and wrote its own.
func (d *durable) openWAL(s *Sharded) error {
	walRoot := filepath.Join(d.opts.Dir, "wal")
	entries, err := d.fsys.ReadDir(walRoot)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	cut := recordedCut(d.blocks, walKey)
	if err := d.replayLog(s, walRoot, cut); err != nil {
		return err
	}
	legacyCuts := map[string]uint64{}
	var legacyDirs []string
	for _, e := range entries { // sorted by name, so by index
		i, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-"))
		if !e.IsDir() || err != nil || i < 0 || e.Name() != fmt.Sprintf("shard-%04d", i) {
			continue // only the exact names: shard-0001.old is no shard
		}
		dir, key := filepath.Join(walRoot, e.Name()), strconv.Itoa(i)
		if err := d.replayLog(s, dir, recordedCut(d.blocks, key)); err != nil {
			return err
		}
		seqs, err := listWALSegments(d.fsys, dir)
		if err != nil {
			return err
		}
		legacyCuts[key] = 1
		if len(seqs) > 0 {
			legacyCuts[key] = seqs[len(seqs)-1] + 1
		}
		legacyDirs = append(legacyDirs, dir)
	}
	// Segments number at or above every cut a block recorded: a log
	// pruned empty would otherwise restart below it, and the next open
	// would prune the new segments as covered.
	if d.wal, err = openWALWriter(d.fsys, walRoot, d.opts.Fsync, walSegmentBytes, s.tel, cut); err != nil {
		return fmt.Errorf("tsdb: opening wal: %w", err)
	}
	if len(legacyDirs) == 0 {
		return nil
	}
	if err := d.cut(s); err != nil {
		return fmt.Errorf("tsdb: sealing the per-shard wal: %w", err)
	}
	maps.Copy(d.flushing.walCuts, legacyCuts)
	if err := d.writeCut(); err != nil {
		return fmt.Errorf("tsdb: sealing the per-shard wal: %w", err)
	}
	for _, dir := range legacyDirs {
		if err := d.fsys.RemoveAll(dir); err != nil {
			return fmt.Errorf("tsdb: removing sealed wal dir %s: %w", dir, err)
		}
	}
	return nil
}

// replayLog drops the segments of the log in dir below cut, which a
// published block covers (its cut survives a crash between the block's
// rename and the prune), and replays the rest into the shards.
func (d *durable) replayLog(s *Sharded, dir string, cut uint64) error {
	if _, _, err := pruneWALSegmentsBelow(d.fsys, dir, cut); err != nil {
		return fmt.Errorf("tsdb: pruning covered wal in %s: %w", dir, err)
	}
	if err := s.replayWAL(dir); err != nil {
		return fmt.Errorf("tsdb: replaying %s: %w", dir, err)
	}
	return nil
}

// recordedCut returns the highest cut any published block recorded
// under key (0 when none). Retention-expired blocks are gone by the time
// this runs, but their cuts were superseded by every later block's.
func recordedCut(blocks []*block, key string) uint64 {
	var cut uint64
	for _, b := range blocks {
		cut = max(cut, b.meta.WALCuts[key])
	}
	return cut
}

// checkpoint runs one checkpoint and reports its outcome, whoever
// triggered it (background flusher, Checkpoint caller, or shutdown).
func (d *durable) checkpoint(s *Sharded) error {
	start := time.Now()
	err := d.runCheckpoint(s)
	d.tel.CheckpointSeconds.ObserveSince(start)
	return d.checkpoints.Report(err)
}

// flushCut is one checkpoint cut: the series moved out of shard memory,
// with their points and in-memory storage bytes, and the WAL cuts the
// block holding them records in its meta — walKey -> the first segment
// of the store log the block does not cover (and, for the block that
// seals an earlier release's per-shard directories, shard index -> the
// same for each). The checkpoint prunes the log below its cut once the
// block is published, and an open after a crash in between drops those
// segments unread.
type flushCut struct {
	series        map[string]*series
	walCuts       map[string]uint64
	points, bytes int
}

// runCheckpoint seals all in-memory data into immutable blocks and
// prunes the WAL segments they cover. A cut a failed checkpoint kept is
// written first, as its own block under a fresh sequence number; only
// then is memory cut and written. A failure at any step returns with the
// overlay as it stands — nothing is undone, the next checkpoint (or
// Close) picks up from there.
func (d *durable) runCheckpoint(s *Sharded) error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if d.flushing != nil {
		if err := d.writeCut(); err != nil {
			return err
		}
	}
	if err := d.cut(s); err != nil {
		return err
	}
	if err := d.writeCut(); err != nil {
		return err
	}
	return d.enforceRetention(s.AppMaxTime())
}

// cut moves shard memory into the flushing overlay. It takes every shard
// lock, in index order, rotates the WAL once and hands over every
// shard's series, so every point is either in the cut (and then the
// block) or in the post-rotation WAL — never both, never neither. Only
// this cheap handover runs under the reader-excluding cutMu; decoding
// and compressing the cut runs with readers live, served by the overlay.
// A rotate that fails cuts nothing.
func (d *durable) cut(s *Sharded) error {
	c := &flushCut{series: map[string]*series{}, walCuts: map[string]uint64{}}
	d.cutMu.Lock()
	defer d.cutMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if d.wal != nil {
		seq, err := d.wal.rotate()
		if err != nil {
			return fmt.Errorf("tsdb: checkpoint: rotating the wal: %w", err)
		}
		c.walCuts[walKey] = seq
	}
	for _, sh := range s.shards {
		sh.cutLocked(c)
	}
	d.mu.Lock()
	d.flushing = c
	d.mu.Unlock()
	return nil
}

// writeCut writes the overlay as one block under a fresh sequence number
// (nothing, when it holds no points), swaps the block in for it, and
// prunes the WAL segments the block covers. A failed write keeps the
// overlay, and its WAL segments, for the next checkpoint.
func (d *durable) writeCut() error {
	c := d.flushing
	var blk *block
	if c.points > 0 {
		d.mu.Lock()
		seq := d.nextSeq
		d.nextSeq++
		d.mu.Unlock()
		var err error
		if blk, err = buildBlock(d.fsys, d.blocksDir, seq, c.walCuts, c.series, d.writeWorkers); err != nil {
			return fmt.Errorf("tsdb: checkpoint: %w", err)
		}
	}
	// Atomic swap from overlay to block under mu: a reader sees the
	// flushed points exactly once, from one of the two.
	d.mu.Lock()
	d.flushing = nil
	if blk != nil {
		d.blocks = append(d.blocks, blk)
		d.tel.CheckpointPoints.Add(uint64(c.points))
		d.tel.BlockPublishes.Inc()
	}
	d.mu.Unlock()
	if d.wal != nil {
		if err := d.wal.removeSegmentsBelow(c.walCuts[walKey]); err != nil {
			return fmt.Errorf("tsdb: checkpoint: pruning wal: %w", err)
		}
	}
	return nil
}

// buildBlock persists a stolen snapshot as one immutable block, its
// series in ascending key order through the block writer's pool of
// workers (parallel.Workers(workers)): each decodes a series into its
// scratch and stable-sorts it by time for the writer. It writes no
// companions, whatever Downsample says: the block gains them when
// compaction rewrites it, which keeps the checkpoint's cost off ingest.
func buildBlock(fsys fileSystem, blocksDir string, seq uint64, walCuts map[string]uint64, snap map[string]*series, workers int) (*block, error) {
	bw, err := newBlockWriter(fsys, blocksDir, blockMeta{Seq: seq, WALCuts: walCuts}, false, nil)
	if err != nil {
		return nil, fmt.Errorf("writing block: %w", err)
	}
	err = bw.writeSeries(sortedKeys(snap), workers, func(key string, w *encodeScratch) ([][]Point, error) {
		w.raw.pts = w.raw.pts[:0]
		if err := snap[key].scanRange(math.MinInt64, math.MaxInt64, &w.raw, nil); err != nil {
			return nil, fmt.Errorf("decoding snapshot of %q: %w", key, err)
		}
		pts := w.raw.pts
		// Stable by time: preserves arrival order among equal timestamps,
		// so raw queries after a flush (and after recovery) return the
		// same bytes as before it. Aggregations fold storage order, which
		// this sort changes for points that arrived out of time order: a
		// float fold over them may round differently after the flush.
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].T < pts[b].T })
		w.segs = append(w.segs[:0], pts)
		return w.segs, nil
	})
	if err != nil {
		return nil, fmt.Errorf("writing block: %w", err)
	}
	blk, err := bw.publish()
	if err != nil {
		return nil, fmt.Errorf("writing block: %w", err)
	}
	return blk, nil
}

// enforceRetention removes blocks entirely past the retention horizon,
// measured against the application high-water mark appT. The store
// reads no clock: the horizon moves with the newest application
// timestamp written, never with a process-time stamp.
func (d *durable) enforceRetention(appT int64) error {
	if d.opts.RetentionMS <= 0 {
		return nil
	}
	horizon := appT - d.opts.RetentionMS
	d.mu.Lock()
	defer d.mu.Unlock()
	// Build the surviving list aside and publish it even when a removal
	// fails: an expired block leaves the list the moment its close is
	// attempted, because a half-closed block must never serve queries —
	// and filtering d.blocks in place would otherwise leave a
	// partially-overwritten list (duplicated survivors) on early return.
	// A directory whose removal fails leaks for the rest of this
	// process's life (the block left the list, so nothing here revisits
	// it); the next open re-indexes it and its retention pass sweeps it.
	kept := make([]*block, 0, len(d.blocks))
	var firstErr error
	for _, b := range d.blocks {
		if b.meta.MaxT >= horizon {
			kept = append(kept, b)
			continue
		}
		d.tel.RetentionDroppedBlocks.Inc()
		if err := b.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := removeBlockDir(d.fsys, b.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if len(kept) != len(d.blocks) {
		d.blocks = kept
		d.keyGen.Add(1)
	}
	return firstErr
}

// scanBlocks streams the persisted points for key with T in [from, to)
// to sink in canonical order: blocks by sequence number, then the
// flushing overlay. Blocks whose meta time range is
// disjoint are skipped without touching their chunk index. A block that
// holds the series is first offered to the sink as its downsampled
// companions (an aggregating sink whose step the companion provably
// reproduces consumes it there — which is how coarse-step queries over
// compacted history skip chunk reads entirely) and otherwise scanned
// chunk by chunk. Downsampled-bucket reads are counted once per scan.
func (d *durable) scanBlocks(key string, from, to int64, sink pointSink) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var dsBuckets int
	var chunk []byte // one read buffer for every chunk of the scan
	for _, b := range d.blocks {
		if b.meta.MaxT < from || b.meta.MinT >= to {
			continue
		}
		if !b.hasSeries(key) {
			continue
		}
		if n, ok := sink.companion(b, key); ok {
			dsBuckets += n
			continue
		}
		if err := b.scan(key, from, to, sink, d.tel, &chunk); err != nil {
			return err
		}
	}
	if dsBuckets > 0 {
		d.tel.DownsampledBucketsRead.Add(uint64(dsBuckets))
	}
	if c := d.flushing; c != nil {
		if sr, ok := c.series[key]; ok {
			if err := sr.scanRange(from, to, sink, d.tel); err != nil {
				return fmt.Errorf("tsdb: corrupt block in flushing %q: %w", key, err)
			}
		}
	}
	return nil
}

// addKeys unions the persisted series keys into set.
func (d *durable) addKeys(set map[string]struct{}) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, b := range d.blocks {
		for k := range b.index {
			set[k] = struct{}{}
		}
	}
	if d.flushing != nil {
		for k := range d.flushing.series {
			set[k] = struct{}{}
		}
	}
}

// maxTime returns the newest block timestamp. The flushing overlay
// needs no scan: a shard's maxT is cumulative and survives the cut, so
// the overlay is already covered by the shard side of Sharded.MaxTime.
func (d *durable) maxTime() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var maxT int64
	for _, b := range d.blocks {
		maxT = max(maxT, b.meta.MaxT)
	}
	return maxT
}

// addStats adds the persisted side to out under one hold of mu: each
// block's points and chunk bytes, the overlay's points and bytes, the
// block count, the blocks' marks, and the WAL's segments and bytes.
func (d *durable) addStats(out *Stats) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, b := range d.blocks {
		out.Points += b.meta.Points
		out.StorageBytes += int(b.meta.ChunkBytes)
		out.MaxTime = max(out.MaxTime, b.meta.MaxT)
	}
	if c := d.flushing; c != nil {
		out.Points += c.points
		out.StorageBytes += c.bytes
	}
	out.Blocks = len(d.blocks)
	out.AppMaxTime = max(out.AppMaxTime, d.appT)
	if d.wal != nil {
		out.WALSegments, out.WALBytes = d.wal.usage()
		out.StorageBytes += int(out.WALBytes)
	}
}

// shutdown stops the ticks and, on disk, runs a final checkpoint so
// memory reaches disk in compressed form, and closes the WAL and block
// files. A store in memory keeps its data readable: there is nothing to
// write it to.
func (d *durable) shutdown(s *Sharded) error {
	d.flushMu.Lock()
	if d.closed {
		d.flushMu.Unlock()
		return nil
	}
	d.closed = true
	d.flushMu.Unlock()

	d.loops.Stop()
	if d.opts.Dir == "" {
		return nil
	}

	err := d.checkpoint(s)
	if cerr := d.wal.close(); err == nil {
		err = cerr
	}
	d.mu.Lock()
	for _, b := range d.blocks {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}
	d.mu.Unlock()
	return err
}
