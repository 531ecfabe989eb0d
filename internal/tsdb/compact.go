package tsdb

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Background compaction and downsampling.
//
// A checkpoint publishes one immutable block per flush, so a long-lived
// store accumulates thousands of tiny blocks: every query then pays a
// per-block meta check, index lookup, and (cold) chunk read per series
// per block. The compactor runs off the ingest path and merges adjacent
// small blocks into larger ones — same block format, same atomic
// tmp-dir + rename publish. With Downsample, the merge also writes the
// block's downsampled companion files (5m and 1h per-bucket summaries)
// into the same tmp- directory, so the block's rename publishes them;
// aggregated queries consume them without touching chunk data at all.
//
// Invariants, in order of importance:
//
//   - Byte-identical reads. A merged block preserves the exact storage
//     order of its sources: per series, the concatenation of the
//     sources' scan streams (in covered-sequence order), re-chunked at
//     monotone-run boundaries so every chunk stays internally
//     time-sorted. Raw queries stably re-sort, and aggregation decode
//     folds in storage order, so both see the same bytes before and
//     after a compaction. Downsampled buckets are consumed only when
//     the summary provably reproduces what decoding would yield (see
//     feedDownsampled); sum/avg never consume them — per-bucket partial
//     sums fold in a different order than the point-by-point reference,
//     so those aggregations always decode raw chunks.
//   - Crash safety. The merged block is built under a tmp- prefix and
//     renamed into place; its meta records the covered checkpoint
//     sequence range [MinSeq, MaxSeq]. A crash before the rename leaves
//     a tmp- dir the next open removes; a crash after the rename but
//     before the sources are deleted leaves blocks whose ranges the
//     merged block covers (a run of one leaves its source at the
//     identical range, one level lower) — openBlocks removes them,
//     completing the interrupted compaction (dropSupersededBlocks).
//     Sources are deleted through removeBlockDir (rename to tmp-, then
//     remove), so a crash mid-deletion never leaves a half-emptied b-
//     directory. Companion files are published and deleted with their
//     block; no write ever lands in a published block directory.
//   - Accounting. A compaction moves points between blocks but never
//     changes the point set, so Stats.Points (basePoints) is untouched;
//     retention accounts a merged block's points exactly once when it
//     expires, and the crash-window duplicate sources are removed at
//     open before basePoints is summed.

// downsampleResolutions are the companion resolutions, finest first:
// 5 minutes and 1 hour, the classic Thanos ladder. A query uses the
// coarsest resolution whose bucket width divides its step.
var downsampleResolutions = []int64{5 * 60 * 1000, 60 * 60 * 1000}

// floorDiv returns floor(t / d) for d > 0, exact for every int64 t
// (plain Go division truncates toward zero, which rounds negative
// timestamps the wrong way).
func floorDiv(t, d int64) int64 {
	q := t / d
	if t%d != 0 && t < 0 {
		q--
	}
	return q
}

// downsampleSeries folds one series' points, segs in order and each in
// storage order, into per-bucket summaries on the absolute resMS grid
// (bucket k covers [k*resMS, (k+1)*resMS)). Each bucket folds its points
// with summary.add, as the aggregator's buckets do, on the same feed
// order — so consuming a bucket summary is bit-identical to decoding its
// points — and is scrubbed: buckets containing NaN (order-dependent
// min/max) or any non-finite fact (JSON cannot carry it) are flagged
// NoSummary with zeroed value fields and are never consumed. Bucket
// assignment uses floorDiv, exact at extreme timestamps (no multiply
// that could overflow).
func downsampleSeries(resMS int64, segs ...[]Point) []summary {
	// The occupied buckets lie in [floorDiv(minT), floorDiv(maxT)]: an
	// upper bound on their number, exact for regular scrapes (unsigned:
	// the span of two int64 quotients can exceed int64).
	size := 0
	minT, maxT := int64(math.MaxInt64), int64(math.MinInt64)
	for _, seg := range segs {
		size += len(seg)
		for _, p := range seg {
			minT, maxT = min(minT, p.T), max(maxT, p.T)
		}
	}
	if size == 0 {
		return nil
	}
	if span := uint64(floorDiv(maxT, resMS)) - uint64(floorDiv(minT, resMS)); span < uint64(size) {
		size = int(span) + 1
	}
	// out stays sorted by bucket; cur is the position the previous point
	// landed at and curIdx its bucket. Storage order is almost always time
	// order, so a point usually lands in that bucket or opens the next
	// one at the end; only late data searches (a bucket's index is
	// floorDiv of any timestamp in it) and inserts.
	out := make([]summary, 0, size)
	cur, curIdx := -1, int64(0)
	for _, seg := range segs {
		for _, p := range seg {
			idx := floorDiv(p.T, resMS)
			if cur < 0 || idx != curIdx {
				n := len(out)
				pos := n
				if n > 0 && idx <= floorDiv(out[n-1].MinT, resMS) {
					pos = sort.Search(n, func(i int) bool { return floorDiv(out[i].MinT, resMS) >= idx })
				}
				cur, curIdx = pos, idx
				if pos == n || floorDiv(out[pos].MinT, resMS) != idx {
					out = append(out, summary{})
					copy(out[pos+1:], out[pos:])
					out[pos] = seed(p)
					continue
				}
			}
			out[cur].add(p)
		}
	}
	for i := range out {
		out[i].scrub()
	}
	return out
}

// sortedKeys returns m's series keys in ascending order: the catalog's
// order, and the order the block writer takes them in and chunks.dat is
// laid out in, so a pass over a block's series in this order reads the
// file front to back.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// companion is the aggregator's side of pointSink's companion offer: it
// tries to take one block's contribution to the query from a downsampled
// companion instead of the chunks. Resolution selection: the coarsest
// companion whose bucket width divides the query step (a step below 5m
// divides neither resolution, so those queries stay raw —
// per-resolution eligibility then decides authoritatively). Only
// pushdown-capable aggregations (min/max/count/rate) participate: sum and
// avg fold per-bucket partial sums in a different order than the
// point-by-point reference, so they always decode raw to keep the
// bit-exactness contract. ok means the block was fully consumed from a
// companion; otherwise the scanner must scan the chunks (never a partial
// mix within one block).
func (a *aggregator) companion(b *block, key string) (buckets int, ok bool) {
	if !a.pushdown || len(b.ds) == 0 {
		return 0, false
	}
	for i := len(downsampleResolutions) - 1; i >= 0; i-- {
		res := downsampleResolutions[i]
		if a.step%uint64(res) != 0 {
			continue
		}
		refs := b.ds[res][key]
		if len(refs) == 0 {
			// The block indexes the key, so a companion at this resolution
			// that lacks it cannot represent the block; try a finer one.
			continue
		}
		if n, ok := a.feedDownsampled(refs); ok {
			return n, true
		}
	}
	return 0, false
}

// feedDownsampled feeds a companion's bucket summaries for one series
// into the accumulator — but only if consumes admits every bucket that
// overlaps the query range (companion buckets sit on the absolute grid,
// query buckets are anchored at From, so an unaligned From can make a 5m
// bucket straddle a 10m query bucket). One bucket it declines rejects
// the whole block — all or nothing, so the scanner's raw fallback never
// double-feeds.
func (a *aggregator) feedDownsampled(refs []summary) (buckets int, ok bool) {
	for i := range refs {
		if r := &refs[i]; r.MaxT >= a.from && r.MinT < a.to && !a.consumes(r) {
			return 0, false
		}
	}
	for i := range refs {
		if r := &refs[i]; r.MaxT >= a.from && r.MinT < a.to {
			a.chunk(r)
			buckets++
		}
	}
	return buckets, true
}

// compactMaxBlockBytes caps a merged block's chunk bytes: adjacent
// blocks are merged only while their combined chunk data stays under
// it, so compaction converges instead of rewriting its own output
// forever.
const compactMaxBlockBytes = 64 << 20

// planCompactRuns groups a snapshot of the block list (ordered by
// covered sequence range) into runs of adjacent blocks to merge: each
// run holds at least two blocks and at most maxBytes of chunk data. Blocks at or above the cap stand alone and end the run on
// either side, so a fully compacted store converges instead of
// rewriting its big blocks forever.
func planCompactRuns(blocks []*block, maxBytes int64) [][]*block {
	var runs [][]*block
	var run []*block
	var runBytes int64
	flush := func() {
		if len(run) >= 2 {
			runs = append(runs, run)
		}
		run, runBytes = nil, 0
	}
	for _, b := range blocks {
		sz := b.meta.ChunkBytes
		if sz >= maxBytes {
			flush()
			continue
		}
		if runBytes+sz > maxBytes {
			flush()
		}
		run = append(run, b)
		runBytes += sz
	}
	flush()
	return runs
}

// mergeRun builds one merged block from an adjacent run of source
// blocks, one series at a time in ascending key order. Per series, the
// sources' full scan streams are concatenated in run order — exactly
// the order a query's block loop feeds them — and split into monotone
// segments wherever a timestamp strictly decreases (late data across
// checkpoints), so the block writer keeps every chunk internally sorted
// without ever reordering the stream. With Downsample, the writer folds
// the same segments into the block's companions. The pass holds one
// decoded series, the merged index and the companions, whatever the size
// of the run. A run of one rewrites its block, to give it companions.
func (d *durable) mergeRun(seq uint64, run []*block) (*block, error) {
	union := map[string]struct{}{}
	var totalPts int
	cuts := map[string]uint64{}
	level := 0
	for _, b := range run {
		totalPts += b.meta.Points
		for k := range b.index {
			union[k] = struct{}{}
		}
		for k, c := range b.meta.WALCuts {
			if c > cuts[k] {
				cuts[k] = c
			}
		}
		if b.meta.Level > level {
			level = b.meta.Level
		}
	}
	if len(cuts) == 0 {
		cuts = nil
	}
	bw, err := newBlockWriter(d.blocksDir, blockMeta{
		Seq:     seq,
		WALCuts: cuts,
		MinSeq:  run[0].meta.minSeq(),
		MaxSeq:  run[len(run)-1].meta.maxSeq(),
		Level:   level + 1,
	}, d.opts.Downsample, d.tel)
	if err != nil {
		return nil, fmt.Errorf("tsdb: writing merged block: %w", err)
	}
	var stream rawSink
	var chunk []byte
	var segs [][]Point
	for _, key := range sortedKeys(union) {
		stream.pts = stream.pts[:0]
		for _, b := range run {
			if err := b.scan(key, math.MinInt64, math.MaxInt64, &stream, nil, &chunk); err != nil {
				bw.abort()
				return nil, fmt.Errorf("tsdb: compacting %s %q: %w", b.dir, key, err)
			}
		}
		pts := stream.pts
		segs = segs[:0]
		start := 0
		for i := 1; i < len(pts); i++ {
			if pts[i].T < pts[i-1].T {
				segs = append(segs, pts[start:i])
				start = i
			}
		}
		segs = append(segs, pts[start:])
		if err := bw.addSeries(key, segs...); err != nil {
			return nil, fmt.Errorf("tsdb: writing merged block: %w", err)
		}
	}
	if bw.meta.Points != totalPts {
		// Defensive: a miscount here would silently corrupt Stats.Points
		// and retention accounting; fail the compaction instead.
		bw.abort()
		return nil, fmt.Errorf("tsdb: merged block holds %d points, sources held %d", bw.meta.Points, totalPts)
	}
	merged, err := bw.publish()
	if err != nil {
		return nil, fmt.Errorf("tsdb: writing merged block: %w", err)
	}
	return merged, nil
}

// compact runs one full compaction pass: merge every planned run of
// adjacent small blocks and, with Downsample enabled, rewrite as a run of
// one every other block that lacks a companion (one written in a life
// without Downsample). Each run holds flushMu for its own duration only,
// so checkpoints interleave between units of work instead of stalling
// behind a whole pass; ingest never blocks (the shard locks are
// untouched — compaction reads only immutable published blocks).
func (d *durable) compact() error {
	d.tel.CompactionsRun.Inc()
	d.mu.RLock()
	snapshot := append([]*block(nil), d.blocks...)
	d.mu.RUnlock()
	runs := planCompactRuns(snapshot, compactMaxBlockBytes)
	if d.opts.Downsample {
		planned := map[*block]bool{}
		for _, run := range runs {
			for _, b := range run {
				planned[b] = true
			}
		}
		for _, b := range snapshot {
			if !planned[b] && len(b.ds) < len(downsampleResolutions) {
				runs = append(runs, []*block{b})
			}
		}
	}
	for _, run := range runs {
		if err := d.compactRun(run); err != nil {
			return err
		}
	}
	return nil
}

// compactRun merges one planned run and swaps it into the block list.
// flushMu serializes against checkpoints and retention, so the sources
// cannot be closed or deleted while they are being read; the list swap
// itself runs under mu, atomically for readers. The merged block holds
// the identical point set, so a reader before or after the swap sees
// the same bytes.
func (d *durable) compactRun(run []*block) error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if d.closed {
		return nil
	}
	// Revalidate against retention: a block dropped between planning and
	// now invalidates the run (its neighbors may no longer be adjacent).
	d.mu.Lock()
	live := make(map[*block]bool, len(d.blocks))
	for _, b := range d.blocks {
		live[b] = true
	}
	for _, b := range run {
		if !live[b] {
			d.mu.Unlock()
			return nil
		}
	}
	seq := d.nextSeq
	d.nextSeq++
	d.mu.Unlock()

	start := time.Now()
	merged, err := d.mergeRun(seq, run)
	if err != nil {
		return err
	}

	inRun := make(map[*block]bool, len(run))
	var sourceBytes int64
	for _, b := range run {
		inRun[b] = true
		sourceBytes += b.meta.ChunkBytes
	}
	d.mu.Lock()
	kept := make([]*block, 0, len(d.blocks)-len(run)+1)
	for _, b := range d.blocks {
		if b == run[0] {
			kept = append(kept, merged)
		}
		if !inRun[b] {
			kept = append(kept, b)
		}
	}
	d.blocks = kept
	d.keyGen.Add(1)
	d.tel.CompactionMergedBlocks.Add(uint64(len(run)))
	if reclaimed := sourceBytes - merged.meta.ChunkBytes; reclaimed > 0 {
		d.tel.CompactionReclaimedBytes.Add(uint64(reclaimed))
	}
	d.tel.CompactionSeconds.ObserveSince(start)
	d.mu.Unlock()
	// No reader can reach the sources anymore (the swap ran under mu,
	// and scans hold the read lock for their whole block loop): retire
	// them. A crash between the rename above and these removals leaves
	// blocks the merged meta's sequence range covers; the next open
	// completes the deletion (dropSupersededBlocks).
	var firstErr error
	for _, b := range run {
		if err := b.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := removeBlockDir(b.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
