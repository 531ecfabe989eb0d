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
	//	<dir>/wal/shard-NNNN/MMMMMMMM.wal   per-shard WAL segments
	//	<dir>/blocks/b-<seq>-<minT>-<maxT>/ immutable compressed blocks
	//
	// Empty keeps the blocks in memory and writes no WAL.
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
// ticks. The per-shard WALs (on disk only) live inside the shards, whose
// locks order every append against the checkpoint cut. Each point is
// held in exactly one place — shard memory, the flushing overlay, or a
// block — and Stats sums each place's own counts.
type durable struct {
	opts DurabilityOptions
	// fsys holds the blocks and WAL segments: the operating system's under
	// opts.Dir, or a memFS of the store's own without it.
	fsys      fileSystem
	blocksDir string

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

	// staleWAL maps shard index -> directory for WAL dirs left over from
	// a previous life that ran with a higher shard count. Their records
	// were hash-routed into the current shards at open; the checkpoint
	// OpenSharded then runs seals that data into a block (recording each
	// dir's cut in its meta, so a crash before the removal below cannot
	// replay them again) and deletes the directories.
	staleWAL map[int]string

	flushMu sync.Mutex
	closed  bool
	loops   *parallel.Loops // the background ticks, stopped by shutdown
}

// OpenSharded opens (or creates) a sharded store. With opts.Dir it is
// durable: published blocks are indexed for reading, every WAL shard
// directory is replayed into memory — tolerating a truncated or corrupt
// tail, which is cut off Prometheus-style and logged — and the
// background ticks (interval fsync, checkpoint, compaction) are started.
// A store that was killed without Close reopens to exactly the points
// covered by blocks plus fsynced WAL records.
//
// Without opts.Dir the store is the same engine over a filesystem of its
// own in memory: checkpoints, compaction, downsampling and retention run
// as they do on disk, but there is no WAL, since there is nothing to
// recover, and so no fsync tick.
//
// Replay routes records by the current key hash, not by directory
// position, so the shard count may change between lives (cmd/sieved
// defaults it to GOMAXPROCS, which varies across hosts): directories
// beyond the new count are replayed too, and at a new count the replay
// is sealed into a block, and those directories deleted, before the
// store is returned.
//
// The returned store must be Closed to stop its ticks and, on disk, to
// flush the final checkpoint; a crash without Close loses nothing that
// reached the WAL.
func OpenSharded(n int, opts DurabilityOptions) (*Sharded, error) {
	opts = opts.withDefaults()
	s := newSharded(n)
	var fsys fileSystem = osFS{}
	if opts.Dir == "" {
		fsys = newMemFS()
	}
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
		for _, sh := range s.shards {
			if sh.wal != nil {
				_ = sh.wal.close()
			}
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
		d.loops.Every(fsyncTick, false, func(context.Context) {
			for _, sh := range s.shards {
				sh.wal.flush()
			}
		})
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

// openWAL replays every WAL shard directory under <dir>/wal into the
// shards and gives each shard its writer. At a new shard count a
// replayed series appends to a different directory than the one it
// replayed from, and replay goes by directory index, not arrival: so the
// replay is sealed into a block before the first write, and no later
// replay has to order one series' records across two directories. The
// same checkpoint retires the directories beyond the count.
func (d *durable) openWAL(s *Sharded) error {
	// The resolved count (server.Options.Shards and cmd/sieved's -shards
	// default to 0, GOMAXPROCS): compared with a raw 0, every live
	// directory would look like leftovers from a bigger previous life, and
	// the first checkpoint would delete them out from under their writers.
	n := s.NumShards()
	walRoot := filepath.Join(d.opts.Dir, "wal")
	dirIdxs, err := listWALShardDirs(d.fsys, walRoot)
	if err != nil {
		return err
	}
	// The directories on disk are the previous life's shards: a life
	// that changed the count retired the others at open (below).
	resharded := len(dirIdxs) > 0 && len(dirIdxs) != n
	for i := 0; i < n; i++ {
		dirIdxs[i] = struct{}{} // current shards replay (and create) their dirs
	}
	replayOrder := make([]int, 0, len(dirIdxs))
	for i := range dirIdxs {
		replayOrder = append(replayOrder, i)
	}
	sort.Ints(replayOrder) // deterministic replay order across directories
	for _, i := range replayOrder {
		shardDir := walShardDir(walRoot, i)
		// Drop segments already covered by a published block: the cuts
		// recorded in block metas survive a crash between a block's
		// rename and its WAL pruning, so those records never replay on
		// top of the block data they duplicate. Cuts are per directory,
		// so they stay valid across shard-count changes.
		if cut := maxRecordedCut(d.blocks, i); cut > 0 {
			if _, _, err := pruneWALSegmentsBelow(d.fsys, shardDir, cut); err != nil {
				return fmt.Errorf("tsdb: pruning covered wal of shard %d: %w", i, err)
			}
		}
		if err := s.replayWAL(shardDir); err != nil {
			return fmt.Errorf("tsdb: replaying %s: %w", shardDir, err)
		}
		if i >= n {
			if d.staleWAL == nil {
				d.staleWAL = map[int]string{}
			}
			d.staleWAL[i] = shardDir
		}
	}
	for i, sh := range s.shards {
		// A directory a previous life retired may be reused here: its
		// segments must number above every cut a block recorded for the
		// index, or the next open would prune them as covered. (A cut of
		// ^0 is the marker earlier versions retired directories with.)
		first := maxRecordedCut(d.blocks, i)
		if first == ^uint64(0) {
			first = 0
		}
		w, err := openWALWriter(d.fsys, walShardDir(walRoot, i), d.opts.Fsync, walSegmentBytes, s.tel, first)
		if err != nil {
			return fmt.Errorf("tsdb: opening wal for shard %d: %w", i, err)
		}
		sh.wal = w
	}
	if resharded {
		if err := d.checkpoint(s); err != nil {
			return fmt.Errorf("tsdb: sealing the wal replayed at a new shard count: %w", err)
		}
	}
	return nil
}

// walShardDir formats the WAL directory of one shard index.
func walShardDir(walRoot string, i int) string {
	return filepath.Join(walRoot, fmt.Sprintf("shard-%04d", i))
}

// listWALShardDirs returns the set of shard indices that have WAL
// directories on disk (empty when the wal root does not exist yet). Only
// a directory named exactly as walShardDir names its index counts: a
// stray shard-0001.old would otherwise read as shard 1.
func listWALShardDirs(fsys fileSystem, walRoot string) (map[int]struct{}, error) {
	idxs := map[int]struct{}{}
	entries, err := fsys.ReadDir(walRoot)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return idxs, nil
		}
		return nil, err
	}
	for _, e := range entries {
		i, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-"))
		if e.IsDir() && err == nil && i >= 0 && walShardDir(walRoot, i) == filepath.Join(walRoot, e.Name()) {
			idxs[i] = struct{}{}
		}
	}
	return idxs, nil
}

// maxRecordedCut returns the highest WAL cut any published block
// recorded for the given shard (0 when none): segments below it are
// fully covered by block data. Retention-expired blocks are gone by the
// time this runs, but their cuts were superseded by every later block's.
func maxRecordedCut(blocks []*block, shard int) uint64 {
	key := fmt.Sprintf("%d", shard)
	var max uint64
	for _, b := range blocks {
		if c := b.meta.WALCuts[key]; c > max {
			max = c
		}
	}
	return max
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
// block holding them records in its meta — shard index (a string, as
// JSON map keys are) -> first segment the block does not cover. The
// checkpoint prunes the segments below them once the block is
// published, and an open after a crash in between drops them unread.
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
		if err := d.writeCut(s); err != nil {
			return err
		}
	}
	if err := d.cut(s); err != nil {
		return err
	}
	if err := d.writeCut(s); err != nil {
		return err
	}
	// WAL directories inherited from a life with more shards: their
	// records were hash-routed into memory at open, so the cut above
	// captured them and the block (or, with nothing replayed, the empty
	// directories themselves) now covers everything they held.
	for _, dir := range d.staleWAL {
		if err := d.fsys.RemoveAll(dir); err != nil {
			return fmt.Errorf("tsdb: checkpoint: removing stale wal dir %s: %w", dir, err)
		}
	}
	d.staleWAL = nil
	return d.enforceRetention(s.AppMaxTime())
}

// cut moves shard memory into the flushing overlay. Each shard rotates
// its WAL and hands over its series under one lock hold, so every point
// is either in the cut (and then the block) or in the post-rotation WAL
// — never both, never neither. Only this cheap handover runs under the
// reader-excluding cutMu; decoding and compressing the cut runs with
// readers live, served by the overlay. A rotate that fails leaves the
// shards cut so far in the overlay, and the rest in memory.
func (d *durable) cut(s *Sharded) error {
	// Stale dirs are quiescent (no writer) and their records are in
	// memory: each is covered up to the segment after its last, once
	// every shard is cut.
	stale := make(map[string]uint64, len(d.staleWAL))
	for idx, dir := range d.staleWAL {
		seqs, err := listWALSegments(d.fsys, dir)
		if err != nil {
			return fmt.Errorf("tsdb: checkpoint: listing stale wal dir %s: %w", dir, err)
		}
		key := fmt.Sprintf("%d", idx)
		stale[key] = 1
		if len(seqs) > 0 {
			stale[key] = seqs[len(seqs)-1] + 1
		}
	}
	c := &flushCut{series: map[string]*series{}, walCuts: map[string]uint64{}}
	d.cutMu.Lock()
	defer d.cutMu.Unlock()
	var err error
	for i, sh := range s.shards {
		var cutSeq uint64
		if cutSeq, err = sh.cut(c); err != nil {
			err = fmt.Errorf("tsdb: checkpoint: cutting shard %d: %w", i, err)
			break
		}
		if sh.wal != nil {
			c.walCuts[fmt.Sprintf("%d", i)] = cutSeq
		}
	}
	if err == nil {
		maps.Copy(c.walCuts, stale)
	}
	d.mu.Lock()
	d.flushing = c
	d.mu.Unlock()
	return err
}

// writeCut writes the overlay as one block under a fresh sequence number
// (nothing, when it holds no points), swaps the block in for it, and
// prunes the WAL segments the block covers. A failed write keeps the
// overlay, and its WAL segments, for the next checkpoint.
func (d *durable) writeCut(s *Sharded) error {
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
	for i, sh := range s.shards {
		if sh.wal == nil {
			continue
		}
		if err := sh.wal.removeSegmentsBelow(c.walCuts[fmt.Sprintf("%d", i)]); err != nil {
			return fmt.Errorf("tsdb: checkpoint: pruning wal of shard %d: %w", i, err)
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
		// so queries after a flush (and after recovery) return the same
		// bytes as before it.
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
// block count, and the blocks' marks.
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
}

// shutdown stops the ticks and, on disk, runs a final checkpoint so
// memory reaches disk in compressed form, and closes WALs and block
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
	for _, sh := range s.shards {
		if cerr := sh.wal.close(); err == nil {
			err = cerr
		}
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
