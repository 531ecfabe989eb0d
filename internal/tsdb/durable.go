package tsdb

import (
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DurabilityOptions configures the on-disk storage engine of a Sharded
// store opened with OpenSharded.
type DurabilityOptions struct {
	// Dir is the data directory root. It is created if missing; layout:
	//
	//	<dir>/wal/shard-NNNN/MMMMMMMM.wal   per-shard WAL segments
	//	<dir>/blocks/b-<seq>-<minT>-<maxT>/ immutable compressed blocks
	Dir string
	// Fsync is the WAL fsync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FlushInterval is the cadence of the background flusher that
	// checkpoints in-memory data into blocks and prunes the WAL (default
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
	// Sharded.Compact).
	CompactInterval time.Duration
	// Downsample makes compaction write 5m/1h downsampled companion
	// files with every block it writes, which aggregated queries with
	// coarse steps consume without touching chunk data. A block without
	// them (a checkpoint's, or one from a life without Downsample) that
	// no merge takes is rewritten alone, once, to gain them.
	Downsample bool
}

const (
	// fsyncTick is the cadence of the background fsync ticker under the
	// FsyncInterval policy: the window of acknowledged writes a power
	// loss can take.
	fsyncTick = 200 * time.Millisecond
	// walSegmentBytes is the WAL segment roll threshold.
	walSegmentBytes = 8 << 20
)

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.FlushInterval == 0 {
		o.FlushInterval = 60 * time.Second
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 5 * time.Minute
	}
	return o
}

// durable is the persistence side of a Sharded store: the block list,
// the checkpoint machinery, and the background tickers. The per-shard
// WALs live inside the shards, whose locks order every append against
// the checkpoint cut.
type durable struct {
	opts      DurabilityOptions
	blocksDir string

	// mu guards blocks, flushing, and nextSeq. Checkpoints hold flushMu
	// for their whole run, so only one cut is in flight at a time.
	mu     sync.RWMutex
	blocks []*block
	// flushing holds the series structures stolen from the shards by an
	// in-flight checkpoint: still compressed, immutable, and visible to
	// queries while their block is being written.
	flushing map[string]*series
	nextSeq  uint64
	// keyGen is the owning store's catalog generation (Sharded.keyGen),
	// bumped under mu wherever blocks or flushing change.
	keyGen *atomic.Uint64

	// cutMu excludes readers during the cut itself: a checkpoint holds
	// the write side from the first shard drain until the drained set is
	// published as the flushing overlay (and on the failure path, until
	// the points are back in memory), while a series scan and a catalog
	// rebuild hold the read side across their memory+blocks reads.
	// Without it a reader racing the cut could catch a shard already
	// drained but the overlay not yet visible (missing points), or memory
	// pre-cut and blocks post-publish (duplicated points). Lock order:
	// cutMu, then shard locks, then mu.
	cutMu sync.RWMutex

	// basePoints is the persisted-points balance added to the shards'
	// cumulative counters by Stats: blocks recovered at open add their
	// points (prior lives' ingests the shard counters never saw), and
	// retention-removed blocks subtract theirs — going negative for
	// this-life blocks, offsetting the shard counters — so Points tracks
	// the observations the store actually holds.
	basePoints int
	// appT is the application high-water mark of the blocks found at open,
	// the newest chunk time outside ReservedComponent in their indexes;
	// fixed from then on. Blocks published later hold points whose shard
	// mark already counts them, and the block holding the mark is never
	// past the retention horizon, so nothing lowers it.
	appT int64

	// Checkpoint health, guarded by mu: ckptFailures counts failed
	// attempts since open, lastCkptErr holds the latest failure message
	// (cleared by the next success), and ckptFailing dedupes the log
	// lines to one per state change — the background flusher retries
	// every FlushInterval, and a persistent failure (disk full) must not
	// stay silent while WAL segments accumulate unboundedly.
	ckptFailures int
	lastCkptErr  string
	ckptFailing  bool

	// tel is the owning store's instrument set (checkpoint, retention,
	// compaction and block-scan instruments), fixed at construction.
	tel *StoreTelemetry

	// staleWAL maps shard index -> directory for WAL dirs left over from
	// a previous life that ran with a higher shard count. Their records
	// were hash-routed into the current shards at open; the checkpoint
	// OpenSharded then runs seals that data into a block (recording each
	// dir's cut in its meta, so a crash before the removal below cannot
	// replay them again) and deletes the directories.
	staleWAL map[int]string

	flushMu sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

// OpenSharded opens (or creates) a durable sharded store at opts.Dir:
// published blocks are indexed for reading, every WAL shard directory is
// replayed into memory — tolerating a truncated or corrupt tail, which
// is cut off Prometheus-style — and background fsync/flush tickers are
// started. A store that was killed without Close reopens to exactly the
// points covered by blocks plus fsynced WAL records.
//
// Replay routes records by the current key hash, not by directory
// position, so the shard count may change between lives (cmd/sieved
// defaults it to GOMAXPROCS, which varies across hosts): directories
// beyond the new count are replayed too, and at a new count the replay
// is sealed into a block, and those directories deleted, before the
// store is returned.
//
// The returned store must be Closed to flush the final checkpoint; a
// crash without Close loses nothing that reached the WAL.
func OpenSharded(n int, opts DurabilityOptions) (*Sharded, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("tsdb: OpenSharded: empty data directory")
	}
	s := NewSharded(n)
	// NewSharded resolves n <= 0 to GOMAXPROCS (server.Options.Shards and
	// cmd/sieved's -shards both default to 0). Every directory comparison
	// below must use the resolved count: with the raw 0, each live shard
	// dir would look like leftovers from a bigger previous life and the
	// first checkpoint would delete them out from under their writers.
	n = s.NumShards()
	d := &durable{opts: opts, blocksDir: filepath.Join(opts.Dir, "blocks"), stop: make(chan struct{}), keyGen: &s.keyGen, tel: s.tel}

	blocks, err := openBlocks(d.blocksDir)
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
		d.basePoints += b.meta.Points
		d.appT = max(d.appT, b.appMaxT())
		if b.meta.Seq >= d.nextSeq {
			d.nextSeq = b.meta.Seq + 1
		}
	}

	walRoot := filepath.Join(opts.Dir, "wal")
	dirIdxs, err := listWALShardDirs(walRoot)
	if err != nil {
		closeOnErr()
		return nil, err
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
		if cut := maxRecordedCut(blocks, i); cut > 0 {
			if err := pruneWALSegmentsBelow(shardDir, cut); err != nil {
				closeOnErr()
				return nil, fmt.Errorf("tsdb: pruning covered wal of shard %d: %w", i, err)
			}
		}
		if err := s.replayWAL(shardDir); err != nil {
			closeOnErr()
			return nil, fmt.Errorf("tsdb: replaying %s: %w", shardDir, err)
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
		first := maxRecordedCut(blocks, i)
		if first == ^uint64(0) {
			first = 0
		}
		w, err := openWALWriter(walShardDir(walRoot, i), opts.Fsync, walSegmentBytes, s.tel, first)
		if err != nil {
			closeOnErr()
			return nil, fmt.Errorf("tsdb: opening wal for shard %d: %w", i, err)
		}
		sh.wal = w
	}
	s.dur = d

	// At a new shard count a replayed series appends to a different
	// directory than the one it replayed from, and replay goes by
	// directory index, not arrival: seal the replay into a block before
	// the first write, so no later replay has to order one series'
	// records across two directories. The same checkpoint retires the
	// directories beyond the count.
	if resharded {
		if err := d.checkpoint(s); err != nil {
			closeOnErr()
			return nil, fmt.Errorf("tsdb: sealing the wal replayed at a new shard count: %w", err)
		}
	}
	if err := d.enforceRetention(s.AppMaxTime()); err != nil {
		closeOnErr()
		return nil, err
	}

	if opts.Fsync == FsyncInterval {
		d.wg.Add(1)
		go d.fsyncLoop(s)
	}
	if opts.FlushInterval > 0 {
		d.wg.Add(1)
		go d.flushLoop(s)
	}
	if opts.CompactInterval > 0 {
		d.wg.Add(1)
		go d.compactLoop()
	}
	return s, nil
}

// walShardDir formats the WAL directory of one shard index.
func walShardDir(walRoot string, i int) string {
	return filepath.Join(walRoot, fmt.Sprintf("shard-%04d", i))
}

// listWALShardDirs returns the set of shard indices that have WAL
// directories on disk (empty when the wal root does not exist yet).
func listWALShardDirs(walRoot string) (map[int]struct{}, error) {
	idxs := map[int]struct{}{}
	entries, err := os.ReadDir(walRoot)
	if err != nil {
		if os.IsNotExist(err) {
			return idxs, nil
		}
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(e.Name(), "shard-%04d", &i); err == nil && i >= 0 {
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

// fsyncLoop flushes dirty WAL segments on a ticker (FsyncInterval policy).
func (d *durable) fsyncLoop(s *Sharded) {
	defer d.wg.Done()
	t := time.NewTicker(fsyncTick)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			for _, sh := range s.shards {
				_ = sh.wal.sync()
			}
		}
	}
}

// flushLoop checkpoints on a ticker.
func (d *durable) flushLoop(s *Sharded) {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			// Failures are not dropped: checkpoint records them for Stats
			// and logs state changes, so a wedged flusher is observable.
			_ = s.Checkpoint()
		}
	}
}

// noteCheckpointResult updates the checkpoint-health counters and logs
// once per state change (failing -> recovered and back), never per tick.
func (d *durable) noteCheckpointResult(err error) {
	d.mu.Lock()
	failures := d.ckptFailures
	var failed, recovered bool
	if err != nil {
		d.ckptFailures++
		failures = d.ckptFailures
		d.lastCkptErr = err.Error()
		if !d.ckptFailing {
			d.ckptFailing = true
			failed = true
		}
	} else {
		d.lastCkptErr = ""
		if d.ckptFailing {
			d.ckptFailing = false
			recovered = true
		}
	}
	d.mu.Unlock()
	switch {
	case failed:
		slog.Error("checkpoint failing, WAL segments accumulating until it recovers",
			"retry_every", d.opts.FlushInterval, "failures", failures, "err", err)
	case recovered:
		slog.Info("checkpoint recovered", "failures_while_down", failures)
	}
}

// checkpointStats reports checkpoint health for Stats.
func (d *durable) checkpointStats() (failures int, lastErr string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ckptFailures, d.lastCkptErr
}

// checkpoint runs one checkpoint and records its outcome in the health
// counters, whoever triggered it (background flusher, Checkpoint caller,
// or shutdown).
func (d *durable) checkpoint(s *Sharded) error {
	start := time.Now()
	err := d.runCheckpoint(s)
	d.tel.CheckpointSeconds.ObserveSince(start)
	d.noteCheckpointResult(err)
	return err
}

// runCheckpoint seals all in-memory data into one immutable block and prunes
// the WAL segments the block now covers. The cut is consistent: each
// shard rotates its WAL and hands over its series structures under one
// lock hold, so every point is either in the stolen snapshot (and then
// the block) or in the post-rotation WAL — never both, never neither.
// Only the cheap handover happens under the reader-excluding cutMu;
// decoding and compressing the snapshot runs with readers live, served
// by the flushing overlay.
func (d *durable) runCheckpoint(s *Sharded) error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()

	// Stale dirs are quiescent (no writer) and their records are in the
	// cut below: each is covered up to the segment after its last.
	staleCuts := make(map[int]uint64, len(d.staleWAL))
	for idx, dir := range d.staleWAL {
		seqs, err := listWALSegments(dir)
		if err != nil {
			return fmt.Errorf("tsdb: checkpoint: listing stale wal dir %s: %w", dir, err)
		}
		staleCuts[idx] = 1
		if len(seqs) > 0 {
			staleCuts[idx] = seqs[len(seqs)-1] + 1
		}
	}

	snap := map[string]*series{}
	cuts := make([]uint64, len(s.shards))
	d.cutMu.Lock()
	for i, sh := range s.shards {
		cut, err := sh.cutSnapshot(snap)
		if err != nil {
			// Shards cut so far are already drained; put their series
			// back so queries keep seeing them (their WAL is untouched).
			s.reinsert(snap)
			d.cutMu.Unlock()
			return fmt.Errorf("tsdb: checkpoint: cutting shard %d: %w", i, err)
		}
		cuts[i] = cut
	}
	var points int
	for _, sr := range snap {
		points += sr.blockPts + len(sr.tail)
	}
	var seq uint64
	if points > 0 {
		d.mu.Lock()
		seq = d.nextSeq
		d.nextSeq++
		d.flushing = snap
		d.keyGen.Add(1)
		d.mu.Unlock()
	}
	// Readers may run again: the stolen series stay visible through the
	// flushing overlay while the block is built below.
	d.cutMu.Unlock()

	if points > 0 {
		cutsMeta := walCutsMeta(cuts)
		for idx, cut := range staleCuts {
			cutsMeta[fmt.Sprintf("%d", idx)] = cut
		}
		blk, err := buildBlock(d.blocksDir, seq, cutsMeta, snap)
		if err != nil {
			// The stolen series vanished from memory at the cut; splice
			// them back so queries keep seeing them. Their WAL segments
			// were not pruned, so durability is unaffected. The swap from
			// overlay back into memory is atomic for readers: cutMu
			// excludes them until the reinsert is complete.
			d.cutMu.Lock()
			d.mu.Lock()
			d.flushing = nil
			d.keyGen.Add(1)
			d.mu.Unlock()
			s.reinsert(snap)
			d.cutMu.Unlock()
			return fmt.Errorf("tsdb: checkpoint: %w", err)
		}
		// Atomic swap from overlay to block under mu: a reader sees the
		// flushed points exactly once, from one of the two.
		d.mu.Lock()
		d.flushing = nil
		d.blocks = append(d.blocks, blk)
		d.keyGen.Add(1)
		d.tel.CheckpointPoints.Add(uint64(points))
		d.tel.BlockPublishes.Inc()
		d.mu.Unlock()
	}
	for i, sh := range s.shards {
		if err := sh.wal.removeSegmentsBelow(cuts[i]); err != nil {
			return fmt.Errorf("tsdb: checkpoint: pruning wal of shard %d: %w", i, err)
		}
	}
	// WAL directories inherited from a life with more shards: their
	// records were hash-routed into memory at open, so the cut above
	// captured them and the block (or, with nothing replayed, the empty
	// directories themselves) now covers everything they held.
	for _, dir := range d.staleWAL {
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("tsdb: checkpoint: removing stale wal dir %s: %w", dir, err)
		}
	}
	d.staleWAL = nil
	return d.enforceRetention(s.AppMaxTime())
}

// buildBlock persists a stolen snapshot as one immutable block, one
// series at a time in ascending key order: decode into a reused buffer,
// stable-sort by time, hand to the block writer. It writes no
// companions, whatever Downsample says: the block gains them when
// compaction rewrites it, which keeps the checkpoint's cost off ingest.
func buildBlock(blocksDir string, seq uint64, walCuts map[string]uint64, snap map[string]*series) (*block, error) {
	bw, err := newBlockWriter(blocksDir, blockMeta{Seq: seq, WALCuts: walCuts}, false, nil)
	if err != nil {
		return nil, fmt.Errorf("writing block: %w", err)
	}
	var raw rawSink
	for _, key := range sortedKeys(snap) {
		raw.pts = raw.pts[:0]
		if err := snap[key].scanRange(math.MinInt64, math.MaxInt64, &raw, nil); err != nil {
			bw.abort()
			return nil, fmt.Errorf("decoding snapshot of %q: %w", key, err)
		}
		pts := raw.pts
		// Stable by time: preserves arrival order among equal timestamps,
		// so queries after a flush (and after recovery) return the same
		// bytes as before it.
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].T < pts[b].T })
		if err := bw.addSeries(key, pts); err != nil {
			return nil, fmt.Errorf("writing block: %w", err)
		}
	}
	blk, err := bw.publish()
	if err != nil {
		return nil, fmt.Errorf("writing block: %w", err)
	}
	return blk, nil
}

// walCutsMeta formats per-shard WAL cut sequences for a block's meta:
// shard index (as a string, JSON maps need string keys) -> first WAL
// segment NOT covered by the block. Recovery uses it to drop stale
// segments whose records the block already holds, even if the
// checkpoint that wrote it crashed before pruning them.
func walCutsMeta(cuts []uint64) map[string]uint64 {
	m := make(map[string]uint64, len(cuts))
	for i, c := range cuts {
		m[fmt.Sprintf("%d", i)] = c
	}
	return m
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
		// Keep the Points balance honest: these observations are gone
		// from the store's view whether or not the files disappear.
		d.basePoints -= b.meta.Points
		d.tel.RetentionDroppedBlocks.Inc()
		if err := b.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := removeBlockDir(b.dir); err != nil && firstErr == nil {
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
// to sink in canonical order: blocks by sequence number, then any stolen
// snapshot a checkpoint is writing out. Blocks whose meta time range is
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
	if sr, ok := d.flushing[key]; ok {
		if err := sr.scanRange(from, to, sink, d.tel); err != nil {
			return fmt.Errorf("tsdb: corrupt block in flushing %q: %w", key, err)
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
	for k := range d.flushing {
		set[k] = struct{}{}
	}
}

// maxTime returns the newest block timestamp. The flushing overlay
// needs no scan: a shard's maxT is cumulative and survives the cut, so
// in-flight snapshots are already covered by the shard side of
// Sharded.MaxTime.
func (d *durable) maxTime() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var max int64
	for _, b := range d.blocks {
		if b.meta.MaxT > max {
			max = b.meta.MaxT
		}
	}
	return max
}

// diskStats reports persisted-side accounting: block bytes and the point
// base recovered from prior lives.
func (d *durable) diskStats() (blockBytes int64, basePoints, blockCount int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, b := range d.blocks {
		blockBytes += b.meta.ChunkBytes
	}
	return blockBytes, d.basePoints, len(d.blocks)
}

// shutdown stops the tickers, runs a final checkpoint so memory reaches
// disk in compressed form, and closes WALs and block files.
func (d *durable) shutdown(s *Sharded) error {
	d.flushMu.Lock()
	if d.closed {
		d.flushMu.Unlock()
		return nil
	}
	d.closed = true
	d.flushMu.Unlock()

	close(d.stop)
	d.wg.Wait()

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
