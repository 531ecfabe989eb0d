package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Block directory layout. A checkpoint writes one immutable directory per
// flushed time range:
//
//	blocks/
//	  b-00000001-0-119999/      b-<seq>-<minT>-<maxT>
//	    meta.json               block-level metadata (time range, counts)
//	    index.json              series key -> []chunkRef into chunks.dat
//	    chunks.dat              CRC-framed Gorilla chunks, back to back
//
// Directories are written under a tmp- prefix and renamed into place, so
// a crash mid-flush leaves only a tmp- directory that the next open
// removes; the data it would have held is still replayable from the WAL,
// whose segments are deleted only after the rename succeeds.

const (
	blockMetaName   = "meta.json"
	blockIndexName  = "index.json"
	blockChunksName = "chunks.dat"
	blockTmpPrefix  = "tmp-"
	// chunkHeader is [4B payload length][4B CRC-32C], as in the WAL.
	chunkHeader = 8
	// maxChunkPoints bounds points per Gorilla chunk so a narrow query
	// does not decompress an arbitrarily large run of one series.
	maxChunkPoints = 4096
)

// blockMeta is the persisted meta.json.
type blockMeta struct {
	Version    int    `json:"version"`
	Seq        uint64 `json:"seq"`
	MinT       int64  `json:"min_t"`
	MaxT       int64  `json:"max_t"`
	Points     int    `json:"points"`
	Series     int    `json:"series"`
	ChunkBytes int64  `json:"chunk_bytes"`
	// WALCuts records, per shard index, the first WAL segment NOT
	// covered by this block: the block holds every record of that
	// shard's lower-numbered segments. Recovery prunes those segments
	// even when the writing checkpoint crashed before deleting them.
	WALCuts map[string]uint64 `json:"wal_cuts,omitempty"`
	// MinSeq and MaxSeq are the checkpoint-sequence range this block
	// covers: a checkpoint-written block covers exactly its own Seq
	// (both fields then omitted, 0 meaning "use Seq"), while a block
	// written by compaction covers the contiguous range of the source
	// blocks it merged. Recovery uses range containment to recognize
	// source blocks a crashed compaction renamed over but did not get
	// to delete. Live blocks always hold pairwise-disjoint ranges.
	MinSeq uint64 `json:"min_seq,omitempty"`
	MaxSeq uint64 `json:"max_seq,omitempty"`
	// Level counts compaction generations: 0 for checkpoint-written
	// blocks, max(source levels)+1 for merged blocks.
	Level int `json:"level,omitempty"`
}

// minSeq/maxSeq resolve the covered checkpoint-sequence range,
// defaulting to Seq for blocks written before compaction existed.
func (m blockMeta) minSeq() uint64 {
	if m.MinSeq != 0 {
		return m.MinSeq
	}
	return m.Seq
}

func (m blockMeta) maxSeq() uint64 {
	if m.MaxSeq != 0 {
		return m.MaxSeq
	}
	return m.Seq
}

// chunkRef locates one Gorilla chunk of one series inside chunks.dat and
// summarizes its contents: the time range lets reads skip disjoint chunks
// without touching the file, and the value summary (version >= 2 blocks)
// lets order-independent aggregations consume a whole in-bucket chunk
// from the index alone — no read, no CRC, no decode.
type chunkRef struct {
	// Offset is the file offset of the chunk's 8-byte frame header.
	Offset int64 `json:"offset"`
	// Length is the framed payload length in bytes.
	Length int   `json:"length"`
	Count  int   `json:"count"`
	MinT   int64 `json:"min_t"`
	MaxT   int64 `json:"max_t"`
	// Value summary over the chunk's points, in storage order: MinV/MaxV
	// are the extrema, FirstV/LastV the first and last stored values
	// (the chunk is time-sorted, so they carry MinT and MaxT). Present
	// since block version 2; version-1 blocks decode instead.
	//
	// NoSummary marks chunks whose summary must not be consumed (they
	// decode instead): chunks containing NaN (order-dependent min/max —
	// see chunkAgg) and chunks with any non-finite summary value, which
	// encoding/json cannot marshal — those persist zeroed placeholders
	// alongside the flag so the index stays writable.
	MinV      float64 `json:"min_v"`
	MaxV      float64 `json:"max_v"`
	FirstV    float64 `json:"first_v"`
	LastV     float64 `json:"last_v"`
	NoSummary bool    `json:"no_summary,omitempty"`
}

// agg converts the persisted ref into the engine's chunk summary form.
func (r chunkRef) agg() chunkAgg {
	return chunkAgg{
		Count: r.Count,
		MinT:  r.MinT, MaxT: r.MaxT,
		MinV: r.MinV, MaxV: r.MaxV,
		FirstV: r.FirstV, LastV: r.LastV,
		NoSummary: r.NoSummary,
	}
}

// blockIndex is the persisted index.json.
type blockIndex struct {
	Series map[string][]chunkRef `json:"series"`
}

// dsRef is one downsampled bucket of one series in a companion file:
// the exact per-bucket facts the aggregation push-down consumes
// (count/min/max/first/last with the bucket's actual first and last
// point timestamps) plus the sequential-fold sum. Unlike chunkRef it
// references no chunk bytes — a downsampled bucket is consumed from the
// summary alone or not at all (see aggregator.companion).
type dsRef struct {
	Count int   `json:"count"`
	MinT  int64 `json:"min_t"`
	MaxT  int64 `json:"max_t"`
	// MinV/MaxV are the extrema, FirstV/LastV the first and last stored
	// values in storage order (carrying MinT and MaxT), SumV the sum
	// folded in storage order. NoSummary marks buckets that must never
	// be consumed (the reader falls back to the raw block): buckets
	// containing NaN, or any non-finite value JSON cannot carry — those
	// persist zeroed placeholders alongside the flag.
	MinV      float64 `json:"min_v"`
	MaxV      float64 `json:"max_v"`
	FirstV    float64 `json:"first_v"`
	LastV     float64 `json:"last_v"`
	SumV      float64 `json:"sum_v"`
	NoSummary bool    `json:"no_summary,omitempty"`
}

// agg converts the persisted bucket into the engine's chunk summary
// form, so the existing aggregator merge rules apply unchanged.
func (r dsRef) agg() chunkAgg {
	return chunkAgg{
		Count: r.Count,
		MinT:  r.MinT, MaxT: r.MaxT,
		MinV: r.MinV, MaxV: r.MaxV,
		FirstV: r.FirstV, LastV: r.LastV,
		NoSummary: r.NoSummary,
	}
}

// dsIndex is the persisted ds-<resolution>.json companion file: one
// bucket list per series, buckets sorted by time and R-aligned on the
// absolute grid (bucket k covers [k*R, (k+1)*R)).
type dsIndex struct {
	Version      int                `json:"version"`
	ResolutionMS int64              `json:"resolution_ms"`
	Series       map[string][]dsRef `json:"series"`
}

// blockVersion is the version written by writeBlock. Version 2 added the
// per-chunk value summaries that aggregation push-down reads; chunks of
// older blocks are decoded instead (hasAggs gates it).
const blockVersion = 2

// block is one opened immutable block: meta and index in memory, chunk
// payloads read on demand.
type block struct {
	dir   string
	meta  blockMeta
	index map[string][]chunkRef
	f     *os.File // chunks.dat, kept open for ReadAt
	// hasAggs reports whether the index's chunk refs carry trustworthy
	// value summaries (blocks written at version >= 2).
	hasAggs bool
	// ds holds the loaded downsampled companions by resolution (ms).
	// The chunk data stays raw-only: a companion is an alternative
	// summary-level view of the same points, attached after publish
	// (atomically, via tmp+rename inside the block directory) and
	// deleted with the directory. Mutated only under the durable
	// engine's mu (attachDownsampled) or before the block is shared.
	ds map[int64]map[string][]dsRef
}

// isFinite reports whether f is neither NaN nor infinite.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// blockDirName formats a block directory name; the time range is in the
// name purely for operators, meta.json is authoritative.
func blockDirName(seq uint64, minT, maxT int64) string {
	return fmt.Sprintf("b-%08d-%d-%d", seq, minT, maxT)
}

// writeBlock persists series -> time-sorted points as one immutable block
// under blocksDir and returns it opened for reading. walCuts records the
// per-shard WAL coverage in the block's meta (nil is fine for tests).
// The write is atomic: everything goes to a tmp- directory whose files
// and entries are fsynced before the rename publishes it.
func writeBlock(blocksDir string, seq uint64, walCuts map[string]uint64, series map[string][]Point) (*block, error) {
	parts := make(map[string][][]Point, len(series))
	for k, pts := range series {
		if len(pts) > 0 {
			parts[k] = [][]Point{pts}
		}
	}
	return writeBlockParts(blocksDir, blockMeta{Seq: seq, WALCuts: walCuts}, parts)
}

// writeBlockParts is the general block writer: each series is given as a
// list of segments, each individually time-sorted, chunked separately so
// no chunk straddles a segment boundary. A checkpoint passes one sorted
// segment per series; compaction passes one segment per monotone run of
// the source-order concatenation, preserving the exact point order a
// scan of the source blocks would produce (chunks only require internal
// time order — chunk-level skip checks handle overlapping chunk ranges).
// meta carries the caller's identity fields (Seq, WALCuts, MinSeq,
// MaxSeq, Level); the content fields are computed here.
func writeBlockParts(blocksDir string, meta blockMeta, series map[string][][]Point) (*block, error) {
	keys := make([]string, 0, len(series))
	for k, segs := range series {
		for _, seg := range segs {
			if len(seg) > 0 {
				keys = append(keys, k)
				break
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("tsdb: writeBlock: no points")
	}
	sort.Strings(keys)

	var chunks []byte
	index := blockIndex{Series: make(map[string][]chunkRef, len(keys))}
	meta.Version = blockVersion
	meta.MinT, meta.MaxT = int64(1)<<62-1, -int64(1)<<62
	meta.Points, meta.Series, meta.ChunkBytes = 0, len(keys), 0
	for _, key := range keys {
		for _, pts := range series[key] {
			for start := 0; start < len(pts); start += maxChunkPoints {
				end := start + maxChunkPoints
				if end > len(pts) {
					end = len(pts)
				}
				part := pts[start:end]
				payload, err := CompressBlock(part)
				if err != nil {
					return nil, fmt.Errorf("tsdb: writeBlock %q: %w", key, err)
				}
				sum := summarizeChunk(part)
				ref := chunkRef{
					Offset: int64(len(chunks)),
					Length: len(payload),
					Count:  len(part),
					MinT:   part[0].T,
					MaxT:   part[len(part)-1].T,
					MinV:   sum.MinV,
					MaxV:   sum.MaxV,
					FirstV: sum.FirstV,
					LastV:  sum.LastV,
				}
				if sum.NoSummary ||
					!isFinite(ref.MinV) || !isFinite(ref.MaxV) ||
					!isFinite(ref.FirstV) || !isFinite(ref.LastV) {
					// JSON cannot carry NaN/Inf; zero the placeholders and
					// flag the ref so they are never consumed.
					ref.NoSummary = true
					ref.MinV, ref.MaxV, ref.FirstV, ref.LastV = 0, 0, 0, 0
				}
				var hdr [chunkHeader]byte
				binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
				binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
				chunks = append(chunks, hdr[:]...)
				chunks = append(chunks, payload...)
				index.Series[key] = append(index.Series[key], ref)
				meta.Points += ref.Count
				if ref.MinT < meta.MinT {
					meta.MinT = ref.MinT
				}
				if ref.MaxT > meta.MaxT {
					meta.MaxT = ref.MaxT
				}
			}
		}
	}
	meta.ChunkBytes = int64(len(chunks))

	tmp := filepath.Join(blocksDir, blockTmpPrefix+blockDirName(meta.Seq, meta.MinT, meta.MaxT))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := writeFileSync(filepath.Join(tmp, blockChunksName), chunks); err != nil {
		return nil, err
	}
	idxData, err := json.MarshalIndent(&index, "", " ")
	if err != nil {
		return nil, err
	}
	if err := writeFileSync(filepath.Join(tmp, blockIndexName), idxData); err != nil {
		return nil, err
	}
	metaData, err := json.MarshalIndent(&meta, "", " ")
	if err != nil {
		return nil, err
	}
	if err := writeFileSync(filepath.Join(tmp, blockMetaName), metaData); err != nil {
		return nil, err
	}
	// fsync the tmp directory itself: the rename below must not publish
	// a directory whose entries could vanish on power loss — the WAL
	// segments covering this data are deleted once the block is live.
	if err := syncDir(tmp); err != nil {
		return nil, err
	}
	final := filepath.Join(blocksDir, blockDirName(meta.Seq, meta.MinT, meta.MaxT))
	if err := os.Rename(tmp, final); err != nil {
		return nil, err
	}
	if err := syncDir(blocksDir); err != nil {
		return nil, err
	}
	return openBlock(final)
}

// writeFileSync writes data and fsyncs before closing, so the rename that
// publishes the block never exposes half-written files.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openBlock loads a block's meta and index, opens its chunks file, loads
// any downsampled companion files, and removes tmp- leftovers from a
// companion write that crashed before its rename.
func openBlock(dir string) (*block, error) {
	metaData, err := os.ReadFile(filepath.Join(dir, blockMetaName))
	if err != nil {
		return nil, err
	}
	var meta blockMeta
	if err := json.Unmarshal(metaData, &meta); err != nil {
		return nil, fmt.Errorf("tsdb: block %s: bad meta: %w", dir, err)
	}
	idxData, err := os.ReadFile(filepath.Join(dir, blockIndexName))
	if err != nil {
		return nil, err
	}
	var idx blockIndex
	if err := json.Unmarshal(idxData, &idx); err != nil {
		return nil, fmt.Errorf("tsdb: block %s: bad index: %w", dir, err)
	}
	f, err := os.Open(filepath.Join(dir, blockChunksName))
	if err != nil {
		return nil, err
	}
	b := &block{dir: dir, meta: meta, index: idx.Series, f: f, hasAggs: meta.Version >= 2}
	if err := b.loadDownsampled(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return b, nil
}

// loadDownsampled loads every ds-<resolution>.json companion in the
// block directory into b.ds and deletes tmp- leftovers (a companion
// write that crashed before its rename; the raw chunks still cover the
// data, so nothing is lost).
func (b *block) loadDownsampled() error {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, blockTmpPrefix) {
			if err := os.Remove(filepath.Join(b.dir, name)); err != nil {
				return err
			}
			continue
		}
		res, ok := parseDownsampledName(name)
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(b.dir, name))
		if err != nil {
			return err
		}
		var idx dsIndex
		if err := json.Unmarshal(data, &idx); err != nil {
			return fmt.Errorf("tsdb: block %s: bad companion %s: %w", b.dir, name, err)
		}
		if idx.ResolutionMS != res || idx.ResolutionMS <= 0 {
			return fmt.Errorf("tsdb: block %s: companion %s resolution mismatch (%d)", b.dir, name, idx.ResolutionMS)
		}
		if b.ds == nil {
			b.ds = map[int64]map[string][]dsRef{}
		}
		b.ds[res] = idx.Series
	}
	return nil
}

// covers reports whether b's checkpoint-sequence range contains other's:
// b is (or descends from) a compaction whose sources included every
// checkpoint other covers, so other is a stale leftover the compaction
// did not get to delete.
func (b *block) covers(other *block) bool {
	return b != other &&
		b.meta.minSeq() <= other.meta.minSeq() &&
		other.meta.maxSeq() <= b.meta.maxSeq()
}

// readChunk reads and CRC-checks one chunk's payload.
func (b *block) readChunk(key string, ref chunkRef) ([]byte, error) {
	buf := make([]byte, chunkHeader+ref.Length)
	if _, err := b.f.ReadAt(buf, ref.Offset); err != nil {
		return nil, fmt.Errorf("tsdb: block %s: reading chunk of %q: %w", b.dir, key, err)
	}
	payload := buf[chunkHeader:]
	if got := binary.LittleEndian.Uint32(buf[0:4]); int(got) != ref.Length {
		return nil, fmt.Errorf("tsdb: block %s: chunk length mismatch for %q", b.dir, key)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("tsdb: block %s: chunk CRC mismatch for %q", b.dir, key)
	}
	return payload, nil
}

// scan streams the block's points for key with T in [from, to) to sink
// in chunk order. Chunks disjoint from the range are skipped from the
// index alone; chunks that lie entirely inside the range are offered to
// the sink as a summary first (version >= 2 blocks), so an aggregating
// sink consumes them without a file read; the rest are read, CRC-checked,
// and streamed through the chunk iterator.
func (b *block) scan(key string, from, to int64, sink pointSink, tel *StoreTelemetry) error {
	var skipped, summarized, decoded int
	for _, ref := range b.index[key] {
		if ref.MaxT < from || ref.MinT >= to {
			skipped++
			continue
		}
		if b.hasAggs && ref.MinT >= from && ref.MaxT < to && sink.chunk(ref.agg()) {
			summarized++
			continue
		}
		decoded++
		payload, err := b.readChunk(key, ref)
		if err != nil {
			return err
		}
		if err := scanChunk(payload, from, to, sink); err != nil {
			return fmt.Errorf("tsdb: block %s: corrupt chunk for %q: %w", b.dir, key, err)
		}
	}
	tel.noteChunks(skipped, summarized, decoded)
	return nil
}

// hasSeries reports whether the block indexes key.
func (b *block) hasSeries(key string) bool {
	_, ok := b.index[key]
	return ok
}

// close releases the chunks file.
func (b *block) close() error {
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// downsampledName formats the companion file name of one resolution.
func downsampledName(resMS int64) string {
	return fmt.Sprintf("ds-%d.json", resMS)
}

// parseDownsampledName inverts downsampledName.
func parseDownsampledName(name string) (resMS int64, ok bool) {
	if !strings.HasPrefix(name, "ds-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	if _, err := fmt.Sscanf(name, "ds-%d.json", &resMS); err != nil || resMS <= 0 {
		return 0, false
	}
	return resMS, true
}

// openBlocks loads every published block under blocksDir (ascending by
// covered checkpoint-sequence range), removes leftover tmp- directories
// from flushes or compactions that crashed before their rename, and
// removes published blocks that a live merged block supersedes — the
// crash window between a compaction's rename and its source deletion,
// which must not double-count (or double-serve) the merged points.
func openBlocks(blocksDir string) ([]*block, error) {
	if err := os.MkdirAll(blocksDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(blocksDir)
	if err != nil {
		return nil, err
	}
	var blocks []*block
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, blockTmpPrefix) {
			// Crash mid-flush or mid-compaction: the WAL (or the source
			// blocks) still covers this data.
			if err := os.RemoveAll(filepath.Join(blocksDir, name)); err != nil {
				return nil, err
			}
			continue
		}
		if !strings.HasPrefix(name, "b-") {
			continue
		}
		b, err := openBlock(filepath.Join(blocksDir, name))
		if err != nil {
			return nil, fmt.Errorf("tsdb: opening block %s: %w", name, err)
		}
		blocks = append(blocks, b)
	}
	blocks, err = dropSupersededBlocks(blocks)
	if err != nil {
		return nil, err
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].meta.minSeq() < blocks[j].meta.minSeq() })
	return blocks, nil
}

// dropSupersededBlocks closes and deletes every block whose covered
// checkpoint-sequence range lies inside another live block's range:
// those are compaction sources whose deletion a crash interrupted. The
// survivor holds the identical points, so removal is the completion of
// the interrupted compaction, not data loss. Among blocks covering the
// same range (never produced by a healthy sequence of compactions, but
// defended against), the higher compaction level, then the higher
// sequence number, survives.
func dropSupersededBlocks(blocks []*block) ([]*block, error) {
	kept := blocks[:0]
	for _, b := range blocks {
		super := false
		for _, other := range blocks {
			if !other.covers(b) {
				continue
			}
			if b.covers(other) {
				// Identical ranges: deterministic tie-break.
				if other.meta.Level < b.meta.Level ||
					(other.meta.Level == b.meta.Level && other.meta.Seq < b.meta.Seq) {
					continue
				}
			}
			super = true
			break
		}
		if !super {
			kept = append(kept, b)
			continue
		}
		if err := b.close(); err != nil {
			return nil, err
		}
		if err := removeBlockDir(b.dir); err != nil {
			return nil, err
		}
	}
	return kept, nil
}

// removeBlockDir deletes a published block directory so that a crash at
// any instant leaves either the whole directory under its published name
// or a tmp- leftover the next open sweeps. Deleting in place would not:
// RemoveAll unlinks file by file, and a process killed between two
// unlinks leaves a b- directory without its meta.json, which openBlocks
// rightly refuses to serve — the store then fails to open at all.
func removeBlockDir(dir string) error {
	doomed := filepath.Join(filepath.Dir(dir), blockTmpPrefix+filepath.Base(dir))
	if err := os.Rename(dir, doomed); err != nil {
		return err
	}
	return os.RemoveAll(doomed)
}
