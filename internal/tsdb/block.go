package tsdb

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/sieve-microservices/sieve/internal/jsonenc"
)

// Block directory layout. A checkpoint writes one immutable directory per
// flushed time range:
//
//	blocks/
//	  b-00000001-0-119999/      b-<seq>-<minT>-<maxT>
//	    meta.json               block-level metadata (time range, counts)
//	    index.json              series key -> []chunkRef into chunks.dat; a
//	                            block compaction wrote with Downsample also
//	                            holds its 5m and 1h companions here
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
	// maxChunkPoints bounds points per Gorilla chunk. A chunk decodes from
	// its first point, so a range read decodes up to one chunk's worth of
	// points it does not return at each end of its range; 120 is
	// Prometheus's chunk size, past which Gorilla's bytes per point has
	// stopped falling. Blocks written with a larger cut (4096 before)
	// read unchanged, and a compaction that merges them re-chunks them.
	maxChunkPoints = 120
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
// from the index alone — no read, no CRC, no decode. The summary is
// scrubbed: NoSummary chunks persist zeroed placeholders so the index
// stays writable, and decode instead.
type chunkRef struct {
	// Offset is the file offset of the chunk's 8-byte frame header.
	Offset int64 `json:"offset"`
	// Length is the framed payload length in bytes.
	Length int `json:"length"`
	summary
}

// blockIndex is the persisted index.json.
type blockIndex struct {
	Series map[string][]chunkRef `json:"series"`
	// Downsampled holds the companions, by resolution (ms) and then
	// series: one bucket list per series, buckets sorted by time and
	// R-aligned on the absolute grid (bucket k covers [k*R, (k+1)*R)). A
	// bucket is the scrubbed summary of its points; it references no
	// chunk bytes, so it is consumed from the summary alone or not at all
	// (see aggregator.companion). Omitted when the block has none (a
	// checkpoint's block never has); a reader that predates the field
	// ignores it and decodes raw.
	Downsampled map[int64]map[string][]summary `json:"downsampled,omitempty"`
}

// blockVersion is the version written by blockWriter. Version 2 added the
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
	// ds holds the downsampled companions by resolution (ms): an
	// alternative summary-level view of the same points, persisted in
	// index.json. Set only by the block writer and openBlock, before the
	// block is shared, and never changed after.
	ds map[int64]map[string][]summary
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

// blockWriteBuffer is the bufio size in front of a block's files:
// large enough that a series' chunks usually leave in one write, small
// beside any block.
const blockWriteBuffer = 256 << 10

// blockWriter is the one producer of block directories: checkpoints and
// compaction stream a block through it one series at a time, so neither
// holds more than one decoded series plus the index — the chunk bytes go
// to chunks.dat as they are encoded. The on-disk result depends only on
// the (key, segments) sequence it is fed, never on who feeds it.
//
// Everything is written under a tmp- directory that publish fsyncs and
// renames into place; any failure, in addSeries or in publish, removes
// that directory before the error is returned (abort), so a write that
// fails on every retry — a full disk — leaves nothing behind to fill it
// further. The tmp name carries only the sequence number (the time
// range is not known until the last series); openBlocks sweeps anything
// tmp-prefixed.
type blockWriter struct {
	blocksDir string
	tmp       string // "" once published or aborted
	meta      blockMeta
	keys      []string // in addSeries order, which is ascending
	index     map[string][]chunkRef
	// ds folds each series into the companions as it arrives (nil
	// without downsampling), and dsTime is the fold time per resolution.
	ds     map[int64]map[string][]summary
	dsTime []time.Duration
	tel    *StoreTelemetry
	f      *os.File
	w      *bufio.Writer // on chunks.dat, then reused for index.json and meta.json
	frame  []byte        // one chunk's header + payload, reused
	cut    int           // points per chunk: maxChunkPoints, larger only to write an older layout in tests
}

// newBlockWriter creates the tmp- directory and opens its chunks.dat.
// meta carries the caller's identity fields (Seq, WALCuts, MinSeq,
// MaxSeq, Level); the content fields are computed as series arrive. With
// downsample, the block's index is published with one companion per
// downsampleResolutions entry, each timed into tel.
func newBlockWriter(blocksDir string, meta blockMeta, downsample bool, tel *StoreTelemetry) (*blockWriter, error) {
	tmp := filepath.Join(blocksDir, fmt.Sprintf("%sb-%08d", blockTmpPrefix, meta.Seq))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(tmp, blockChunksName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		_ = os.RemoveAll(tmp)
		return nil, err
	}
	meta.Version = blockVersion
	meta.MinT, meta.MaxT = int64(1)<<62-1, -int64(1)<<62
	meta.Points, meta.Series, meta.ChunkBytes = 0, 0, 0
	bw := &blockWriter{
		blocksDir: blocksDir,
		tmp:       tmp,
		meta:      meta,
		index:     map[string][]chunkRef{},
		tel:       tel,
		f:         f,
		w:         bufio.NewWriterSize(f, blockWriteBuffer),
		cut:       maxChunkPoints,
	}
	if downsample {
		bw.ds = make(map[int64]map[string][]summary, len(downsampleResolutions))
		for _, res := range downsampleResolutions {
			bw.ds[res] = map[string][]summary{}
		}
		bw.dsTime = make([]time.Duration, len(downsampleResolutions))
	}
	return bw, nil
}

// addSeries appends one series. Keys must arrive in ascending order (the
// order chunks.dat and index.json are laid out in). Each segment is
// individually time-sorted and chunked separately, so no chunk straddles
// a segment boundary: a checkpoint passes one sorted segment, compaction
// one segment per monotone run of the source-order concatenation,
// preserving the exact point order a scan of the source blocks would
// produce (chunks only require internal time order — chunk-level skip
// checks handle overlapping chunk ranges). The segments are not retained.
// A series without points is skipped. On error the writer has aborted.
func (bw *blockWriter) addSeries(key string, segs ...[]Point) error {
	if n := len(bw.keys); n > 0 && key <= bw.keys[n-1] {
		bw.abort()
		return fmt.Errorf("tsdb: block writer: series %q after %q", key, bw.keys[n-1])
	}
	nChunks := 0
	for _, seg := range segs {
		nChunks += (len(seg) + bw.cut - 1) / bw.cut
	}
	if nChunks == 0 {
		return nil
	}
	refs := make([]chunkRef, 0, nChunks)
	for _, seg := range segs {
		for start := 0; start < len(seg); start += bw.cut {
			part := seg[start:min(start+bw.cut, len(seg))]
			var hdr [chunkHeader]byte
			frame, err := appendCompressed(append(bw.frame[:0], hdr[:]...), part)
			if err != nil {
				bw.abort()
				return fmt.Errorf("tsdb: block writer: %q: %w", key, err)
			}
			bw.frame = frame
			payload := frame[chunkHeader:]
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
			if _, err := bw.w.Write(frame); err != nil {
				bw.abort()
				return err
			}
			ref := chunkRef{Offset: bw.meta.ChunkBytes, Length: len(payload), summary: summarizeChunk(part)}
			ref.scrub()
			refs = append(refs, ref)
			bw.meta.ChunkBytes += int64(len(frame))
			bw.meta.Points += ref.Count
			if ref.MinT < bw.meta.MinT {
				bw.meta.MinT = ref.MinT
			}
			if ref.MaxT > bw.meta.MaxT {
				bw.meta.MaxT = ref.MaxT
			}
		}
	}
	bw.keys = append(bw.keys, key)
	bw.index[key] = refs
	bw.meta.Series++
	if bw.ds != nil {
		// The segments in the order given are the block's storage order,
		// which a scan of the published block would feed.
		for i, res := range downsampleResolutions {
			start := time.Now()
			bw.ds[res][key] = downsampleSeries(res, segs...)
			bw.dsTime[i] += time.Since(start)
		}
	}
	return nil
}

// publish makes the block durable and visible, in the order every crash
// suite relies on: chunks.dat flushed and fsynced, index.json (with the
// companions) written and fsynced, meta.json written and fsynced, the tmp
// directory fsynced (the rename must not publish a directory whose
// entries could vanish on power loss — the WAL segments covering this
// data are deleted once the block is live), rename to
// b-<seq>-<minT>-<maxT>, blocks/ fsynced. The returned block is built
// from the index and companions the writer already holds, its chunks.dat
// handle opened before the rename so that only the final directory
// fsync can fail past the publish point — and then the block is taken
// back, because the caller will treat the write as failed and write the
// same points again under another sequence number.
func (bw *blockWriter) publish() (*block, error) {
	if len(bw.keys) == 0 {
		bw.abort()
		return nil, fmt.Errorf("tsdb: block writer: no points")
	}
	blk, err := bw.finish()
	if err != nil {
		bw.abort()
		return nil, err
	}
	bw.tmp = ""
	if err := syncDir(bw.blocksDir); err != nil {
		_ = blk.close()
		_ = removeBlockDir(blk.dir)
		return nil, err
	}
	return blk, nil
}

// finish is publish up to and including the rename.
func (bw *blockWriter) finish() (*block, error) {
	if err := bw.w.Flush(); err != nil {
		return nil, err
	}
	if err := bw.f.Sync(); err != nil {
		return nil, err
	}
	err := bw.f.Close()
	bw.f = nil
	if err != nil {
		return nil, err
	}
	if err := bw.writeIndex(); err != nil {
		return nil, err
	}
	metaData, err := json.MarshalIndent(&bw.meta, "", " ")
	if err != nil {
		return nil, err
	}
	err = writeStreamSync(filepath.Join(bw.tmp, blockMetaName), bw.w, func() error {
		_, err := bw.w.Write(metaData)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := syncDir(bw.tmp); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(bw.tmp, blockChunksName))
	if err != nil {
		return nil, err
	}
	final := filepath.Join(bw.blocksDir, blockDirName(bw.meta.Seq, bw.meta.MinT, bw.meta.MaxT))
	if err := os.Rename(bw.tmp, final); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &block{dir: final, meta: bw.meta, index: bw.index, f: f, hasAggs: bw.meta.Version >= 2, ds: bw.ds}, nil
}

// writeIndex streams index.json from the refs and the companion buckets
// collected so far. Each companion's fold time plus its part of the
// write is observed once. Resolutions go in downsampleResolutions order,
// which is also the order encoding/json sorts their decimal keys in
// (TestBlockWriterMatchesReference holds the bytes to
// json.MarshalIndent).
func (bw *blockWriter) writeIndex() error {
	return writeStreamSync(filepath.Join(bw.tmp, blockIndexName), bw.w, func() error {
		j := newSeriesJSON(bw.w, "{\n \"series\": ", 1)
		for _, key := range bw.keys {
			refs := bw.index[key]
			if err := j.series(key, len(refs), func(dst []byte, in string, i int) []byte { return appendChunkRefJSON(dst, in, refs[i]) }); err != nil {
				return err
			}
		}
		if err := j.end(); err != nil {
			return err
		}
		sep := ",\n \"downsampled\": {"
		for i, fold := range bw.dsTime { // empty without downsampling
			start := time.Now()
			res := downsampleResolutions[i]
			series := bw.ds[res]
			j := newSeriesJSON(bw.w, sep+"\n  \""+strconv.FormatInt(res, 10)+"\": ", 2)
			for _, key := range bw.keys {
				buckets := series[key]
				if err := j.series(key, len(buckets), func(dst []byte, in string, i int) []byte { return appendSummaryJSON(dst, in, true, buckets[i]) }); err != nil {
					return err
				}
			}
			if err := j.end(); err != nil {
				return err
			}
			bw.tel.DownsampleSeconds.Observe((fold + time.Since(start)).Seconds())
			sep = ","
		}
		tail := "\n}"
		if len(bw.dsTime) > 0 {
			tail = "\n }\n}"
		}
		_, err := bw.w.WriteString(tail)
		return err
	})
}

// abort removes whatever the writer has put on disk. It is idempotent
// and a no-op once publish has succeeded.
func (bw *blockWriter) abort() {
	if bw.tmp == "" {
		return
	}
	if bw.f != nil {
		_ = bw.f.Close()
		bw.f = nil
	}
	// Best effort: a directory that cannot be removed is still tmp-
	// prefixed, and the next open sweeps it.
	_ = os.RemoveAll(bw.tmp)
	bw.tmp = ""
}

// seriesJSON streams one `{key: [object, ...], ...}` map of
// index.json — the chunk refs of "series", or one companion of
// "downsampled" — one series at a time, byte for byte what
// json.MarshalIndent(blockIndex{…}, "", " ") produces for it: keys in
// ascending order as encoding/json sorts a map, one space of indent per
// level. Marshalling those maps whole costs several times the file size
// in encoder buffers; this holds at most blockWriteBuffer of text.
type seriesJSON struct {
	w   *bufio.Writer
	buf []byte
	// key, object and field are a newline and the indent of a key, of an
	// object's braces and of an object's fields; close ends the map.
	key, object, field, close string
	n                         int // series written
}

// newSeriesJSON writes head, the document up to the map's opening brace,
// to w; depth is the nesting level of the line head ends on (1 for
// "series", 2 for a companion).
func newSeriesJSON(w *bufio.Writer, head string, depth int) *seriesJSON {
	w.WriteString(head + "{") // an error is sticky in w and returned by the next series or end
	ind := "\n" + strings.Repeat(" ", depth+3)
	return &seriesJSON{w: w, key: ind[:depth+2], object: ind[:depth+3], field: ind, close: ind[:depth+1] + "}"}
}

// series writes one key's list of n > 0 objects; object appends the
// i-th one's fields, each through appendJSONField with the field indent
// in.
func (j *seriesJSON) series(key string, n int, object func(dst []byte, in string, i int) []byte) error {
	buf := j.buf[:0]
	if j.n > 0 {
		buf = append(buf, ',')
	}
	j.n++
	buf = append(buf, j.key...)
	buf = jsonenc.AppendString(buf, key)
	buf = append(buf, ": ["...)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(append(buf, j.object...), '{')
		buf = object(buf, j.field, i)
		buf = append(append(buf, j.object...), '}')
		if len(buf) >= blockWriteBuffer { // a long list leaves in pieces
			if _, err := j.w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(append(buf, j.key...), ']')
	j.buf = buf
	_, err := j.w.Write(buf)
	return err
}

// end closes the map.
func (j *seriesJSON) end() error {
	tail := "}"
	if j.n > 0 {
		tail = j.close
	}
	_, err := j.w.WriteString(tail)
	return err
}

// appendJSONField appends one `"name": value` line of a series object at
// the field indent in; first marks the object's first field (no comma
// before it).
func appendJSONField(dst []byte, in string, first bool, name string) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, in...)
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, "\": "...)
}

func appendJSONInt(dst []byte, in string, first bool, name string, v int64) []byte {
	return strconv.AppendInt(appendJSONField(dst, in, first, name), v, 10)
}

// appendJSONFloat appends a float field; v is finite (a summary is
// scrubbed before it is persisted).
func appendJSONFloat(dst []byte, in, name string, v float64) []byte {
	return jsonenc.AppendFloat(appendJSONField(dst, in, false, name), v)
}

// appendSummaryJSON appends the fields of s, a scrubbed summary, as
// encoding/json orders them; first marks them as the object's first.
func appendSummaryJSON(dst []byte, in string, first bool, s summary) []byte {
	dst = appendJSONInt(dst, in, first, "count", int64(s.Count))
	dst = appendJSONInt(dst, in, false, "min_t", s.MinT)
	dst = appendJSONInt(dst, in, false, "max_t", s.MaxT)
	dst = appendJSONFloat(dst, in, "min_v", s.MinV)
	dst = appendJSONFloat(dst, in, "max_v", s.MaxV)
	dst = appendJSONFloat(dst, in, "first_v", s.FirstV)
	dst = appendJSONFloat(dst, in, "last_v", s.LastV)
	if s.NoSummary {
		dst = append(appendJSONField(dst, in, false, "no_summary"), "true"...)
	}
	return dst
}

// appendChunkRefJSON appends r's fields as encoding/json orders them.
func appendChunkRefJSON(dst []byte, in string, r chunkRef) []byte {
	dst = appendJSONInt(dst, in, true, "offset", r.Offset)
	dst = appendJSONInt(dst, in, false, "length", int64(r.Length))
	return appendSummaryJSON(dst, in, false, r.summary)
}

// writeStreamSync creates path, lets fill write it through w (the
// caller's buffer, reset onto the new file), then flushes, fsyncs and
// closes, so the rename that publishes the file (or its directory) never
// exposes a half-written one. On error the file is left for the caller
// to remove.
func writeStreamSync(path string, w *bufio.Writer, fill func() error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.Reset(f)
	err = fill()
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

// openBlock loads a block's meta and index (with its companions, if it
// has any) and opens its chunks file. Companion files that older
// releases wrote beside index.json (ds-*.json, tmp-ds-*.json) are not
// read: such a block decodes raw until compaction rewrites it, and the
// rewrite removes them with the old directory.
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
	return &block{dir: dir, meta: meta, index: idx.Series, f: f, hasAggs: meta.Version >= 2, ds: idx.Downsampled}, nil
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

// scan streams the block's points for key with T in [from, to) to sink
// in chunk order. Chunks disjoint from the range are skipped from the
// index alone; the sink consumes the summaries of the chunks it takes
// (version >= 2 blocks, see aggregator.consumes) without a file read. The
// rest are decoded: each run of them that lies back to back in
// chunks.dat is read with one pread into scratch (the caller's buffer,
// grown as needed and reused across calls), and each frame's length and
// CRC-32C are checked just before it is decoded. A consumed chunk ends a
// run, so the sink is fed in storage order.
func (b *block) scan(key string, from, to int64, sink pointSink, tel *StoreTelemetry, scratch *[]byte) error {
	refs := b.index[key]
	inRange := func(r *chunkRef) bool { return r.MaxT >= from && r.MinT < to }
	consumed := func(r *chunkRef) bool { return b.hasAggs && sink.consumes(&r.summary) }
	var skipped, summarized, decoded int
	for i := 0; i < len(refs); {
		ref := &refs[i]
		if !inRange(ref) {
			skipped++
			i++
			continue
		}
		if b.hasAggs && sink.chunk(&ref.summary) {
			summarized++
			i++
			continue
		}
		// refs[i:j] is the run: ref and the chunks right behind it in
		// chunks.dat that overlap the range and are not consumed.
		j, end, pts := i+1, ref.Offset+chunkHeader+int64(ref.Length), ref.Count
		for ; j < len(refs) && refs[j].Offset == end && inRange(&refs[j]) && !consumed(&refs[j]); j++ {
			end += chunkHeader + int64(refs[j].Length)
			pts += refs[j].Count
		}
		if raw, ok := sink.(*rawSink); ok {
			raw.pts = slices.Grow(raw.pts, pts) // one growth per run, not a doubling per append
		}
		if err := b.decodeRun(key, refs[i:j], from, to, sink, scratch); err != nil {
			return err
		}
		decoded += j - i
		i = j
	}
	tel.noteChunks(skipped, summarized, decoded)
	return nil
}

// decodeRun reads run, chunks back to back in chunks.dat, with one pread
// into *scratch and streams each chunk's points in [from, to) to sink,
// checking its frame's length and CRC-32C just before decoding it: the
// points of a run's earlier chunks reach the sink before a later frame's
// error, as they would reading chunk by chunk.
func (b *block) decodeRun(key string, run []chunkRef, from, to int64, sink pointSink, scratch *[]byte) error {
	first, last := run[0], run[len(run)-1]
	n := int(last.Offset-first.Offset) + chunkHeader + last.Length
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := b.f.ReadAt(buf, first.Offset); err != nil {
		return fmt.Errorf("tsdb: block %s: reading chunk of %q: %w", b.dir, key, err)
	}
	var it chunkIter
	for _, ref := range run {
		frame := buf[ref.Offset-first.Offset:][:chunkHeader+ref.Length]
		payload := frame[chunkHeader:]
		if got := binary.LittleEndian.Uint32(frame[0:4]); int(got) != ref.Length {
			return fmt.Errorf("tsdb: block %s: chunk length mismatch for %q", b.dir, key)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
			return fmt.Errorf("tsdb: block %s: chunk CRC mismatch for %q", b.dir, key)
		}
		if err := scanChunkWith(&it, payload, from, to, sink); err != nil {
			return fmt.Errorf("tsdb: block %s: corrupt chunk for %q: %w", b.dir, key, err)
		}
	}
	return nil
}

// hasSeries reports whether the block indexes key.
func (b *block) hasSeries(key string) bool {
	_, ok := b.index[key]
	return ok
}

// appMaxT returns the newest chunk time outside ReservedComponent (0 when
// the block holds none), from the index alone. A version-1 block's refs
// carry no time range, so it counts its meta.MaxT.
func (b *block) appMaxT() int64 {
	var t int64
	for key, refs := range b.index {
		if reservedKey(key) {
			continue
		}
		if b.meta.Version < 2 {
			return max(t, b.meta.MaxT)
		}
		for _, ref := range refs {
			t = max(t, ref.MaxT)
		}
	}
	return t
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
// same range — a run of one and its source, when a crash fell between
// the rewrite's rename and the source's removal — the higher compaction
// level, then the higher sequence number, survives.
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
