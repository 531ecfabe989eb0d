package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/telemetry"
)

func blockPoints(n int, base int64) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{T: base + int64(i)*500, V: float64(i) * 0.25}
	}
	return out
}

// blockQuery collects one block's points for key with T in [from, to)
// through the block scanner.
func blockQuery(b *block, key string, from, to int64) ([]Point, error) {
	var out rawSink
	var scratch []byte
	err := b.scan(key, from, to, &out, nil, &scratch)
	return out.pts, err
}

// addSeries takes one series through the writer's two steps on the
// caller's goroutine: encodeSeries, then commit.
func (bw *blockWriter) addSeries(key string, segs ...[]Point) error {
	var e encodedSeries
	if err := encodeSeries(&e, key, bw.cut, bw.ds != nil, segs); err != nil {
		bw.abort()
		return err
	}
	return bw.commit(&e)
}

// writeBlock persists series -> time-sorted points as one block through
// the streaming writer: one segment per series, keys ascending.
func writeBlock(blocksDir string, seq uint64, walCuts map[string]uint64, series map[string][]Point) (*block, error) {
	bw, err := newBlockWriter(osFS{}, blocksDir, blockMeta{Seq: seq, WALCuts: walCuts}, false, nil)
	if err != nil {
		return nil, err
	}
	for _, key := range sortedKeys(series) {
		if err := bw.addSeries(key, series[key]); err != nil {
			return nil, err
		}
	}
	return bw.publish()
}

func TestBlockWriteQueryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	series := map[string][]Point{
		"web/cpu": blockPoints(maxChunkPoints+100, 0), // forces a chunk split
		"db/mem":  blockPoints(10, 5000),
	}
	blk, err := writeBlock(dir, 1, map[string]uint64{"0": 3}, series)
	if err != nil {
		t.Fatal(err)
	}
	defer blk.close()
	if len(blk.index["web/cpu"]) != 2 {
		t.Errorf("web/cpu chunks = %d, want 2 (split at %d points)", len(blk.index["web/cpu"]), maxChunkPoints)
	}
	if blk.meta.Points != maxChunkPoints+110 || blk.meta.Series != 2 {
		t.Errorf("meta = %+v", blk.meta)
	}
	if blk.meta.WALCuts["0"] != 3 {
		t.Errorf("WALCuts not persisted: %v", blk.meta.WALCuts)
	}
	for key, want := range series {
		got, err := blockQuery(blk, key, 0, 1<<40)
		if err != nil {
			t.Fatalf("query %s: %v", key, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: roundtrip mismatch (%d vs %d points)", key, len(want), len(got))
		}
	}
	// Range query touches only the overlapping chunk.
	got, err := blockQuery(blk, "web/cpu", 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].T != 1000 || got[1].T != 1500 {
		t.Fatalf("range query = %v", got)
	}
	if blk.hasSeries("nope/metric") {
		t.Error("hasSeries on absent key")
	}
}

// TestBlockAppMaxT: a block's application mark is the newest chunk time
// outside ReservedComponent, read from the index; a version-1 block,
// whose refs carry no time range, counts its meta.MaxT.
func TestBlockAppMaxT(t *testing.T) {
	dir := t.TempDir()
	blk, err := writeBlock(dir, 1, nil, map[string][]Point{
		"web/cpu":     blockPoints(maxChunkPoints+100, 0), // the mark is in the second chunk
		"sieve/cpu":   blockPoints(3, 1<<40),
		"sieved/load": blockPoints(2, 1000), // a component only sharing the prefix
	})
	if err != nil {
		t.Fatal(err)
	}
	defer blk.close()
	if got, want := blk.appMaxT(), int64(maxChunkPoints+99)*500; got != want {
		t.Fatalf("appMaxT = %d, want %d", got, want)
	}
	blk.meta.Version = 1
	if got := blk.appMaxT(); got != blk.meta.MaxT {
		t.Fatalf("version-1 appMaxT = %d, want meta.MaxT %d", got, blk.meta.MaxT)
	}
	telemetryOnly, err := writeBlock(dir, 2, nil, map[string][]Point{"sieve/cpu": blockPoints(3, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	defer telemetryOnly.close()
	for _, v := range []int{blockVersion, 1} {
		telemetryOnly.meta.Version = v
		if got := telemetryOnly.appMaxT(); got != 0 {
			t.Fatalf("version-%d telemetry-only appMaxT = %d, want 0", v, got)
		}
	}
}

func TestBlockReopenAndTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeBlock(dir, 1, nil, map[string][]Point{"a/b": blockPoints(5, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := writeBlock(dir, 2, nil, map[string][]Point{"a/b": blockPoints(5, 9000)}); err != nil {
		t.Fatal(err)
	}
	// A crash mid-flush leaves a tmp- directory behind.
	tmp := filepath.Join(dir, blockTmpPrefix+"b-00000003-0-0")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, blockChunksName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	blocks, err := openBlocks(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, b := range blocks {
			b.close()
		}
	}()
	if len(blocks) != 2 {
		t.Fatalf("opened %d blocks, want 2", len(blocks))
	}
	if blocks[0].meta.Seq != 1 || blocks[1].meta.Seq != 2 {
		t.Errorf("blocks out of sequence order: %d, %d", blocks[0].meta.Seq, blocks[1].meta.Seq)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("tmp- directory should have been removed at open")
	}
}

func TestBlockChunkCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	blk, err := writeBlock(dir, 1, nil, map[string][]Point{"a/b": blockPoints(50, 0)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blk.dir, blockChunksName)
	blk.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[chunkHeader+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reblk, err := openBlock(osFS{}, blk.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reblk.close()
	if _, err := blockQuery(reblk, "a/b", 0, 1<<40); err == nil {
		t.Fatal("expected CRC error on corrupted chunk")
	}
}

// TestBlockRunReadFailures corrupts one series' three-chunk run, which a
// full-range read fetches with one pread, in each way chunks.dat can go
// bad inside a run. Each read fails naming the block directory and the
// key, after exactly the points of the chunks before the bad frame.
func TestBlockRunReadFailures(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(path string, refs []chunkRef) error
		want    string
		points  int // chunks before the bad frame: 0 when the read itself fails
	}{
		{"CRC flip in the middle chunk", func(path string, refs []chunkRef) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[refs[1].Offset+chunkHeader+3] ^= 0x10
			return os.WriteFile(path, data, 0o644)
		}, "chunk CRC mismatch", maxChunkPoints},
		{"length field disagrees with the index", func(path string, refs []chunkRef) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(data[refs[1].Offset:], uint32(refs[1].Length+1))
			return os.WriteFile(path, data, 0o644)
		}, "chunk length mismatch", maxChunkPoints},
		{"file truncated inside the run", func(path string, refs []chunkRef) error {
			return os.Truncate(path, refs[1].Offset+chunkHeader+2)
		}, "reading chunk", 0},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		blk, err := writeBlock(dir, 1, nil, map[string][]Point{"a/b": blockPoints(3*maxChunkPoints, 0)})
		if err != nil {
			t.Fatal(err)
		}
		refs := blk.index["a/b"]
		blk.close()
		if len(refs) != 3 {
			t.Fatalf("%s: %d chunks, want 3", tc.name, len(refs))
		}
		if err := tc.corrupt(filepath.Join(blk.dir, blockChunksName), refs); err != nil {
			t.Fatal(err)
		}
		reblk, err := openBlock(osFS{}, blk.dir)
		if err != nil {
			t.Fatal(err)
		}
		var out rawSink
		var scratch []byte
		err = reblk.scan("a/b", 0, 1<<40, &out, nil, &scratch)
		reblk.close()
		if err == nil {
			t.Fatalf("%s: read succeeded", tc.name)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, blk.dir) || !strings.Contains(msg, `"a/b"`) {
			t.Errorf("%s: error %q does not say %q naming the block and the key", tc.name, msg, tc.want)
		}
		if len(out.pts) != tc.points {
			t.Errorf("%s: %d points reached the sink, want %d", tc.name, len(out.pts), tc.points)
		}
	}
}

// TestBlockOldLayoutReadsAndRechunks opens blocks cut into 4096-point
// chunks, as every data directory written before the 120-point cut holds:
// no format version tells them apart. They read exactly as the model
// says, and one compaction rewrites them into chunks of at most
// maxChunkPoints, which read the same.
func TestBlockOldLayoutReadsAndRechunks(t *testing.T) {
	const oldCut, epochs, ticks = 4096, 3, 5000
	dir := t.TempDir()
	l := &storeLife{dir: dir, fsync: FsyncNever, m: newStoreModel(0)}
	samples := compactSamples(41, 2, 2, epochs*ticks, 1000, true)
	per := len(samples) / epochs
	for e := 0; e < epochs; e++ {
		batch := samples[e*per : (e+1)*per]
		series := map[string][]Point{}
		for _, s := range batch {
			series[s.Key()] = append(series[s.Key()], Point{T: s.T, V: s.V})
		}
		bw, err := newBlockWriter(osFS{}, filepath.Join(dir, "blocks"), blockMeta{Seq: uint64(e + 1)}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		bw.cut = oldCut
		for _, key := range sortedKeys(series) {
			sortStable(series[key]) // a checkpoint's one sorted segment
			if err := bw.addSeries(key, series[key]); err != nil {
				t.Fatal(err)
			}
		}
		blk, err := bw.publish()
		if err != nil {
			t.Fatal(err)
		}
		blk.close()
		l.m.add(batch)
		l.m.checkpoint()
	}
	if err := l.open(2); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.st.Close() }()
	largest := func() int {
		n := 0
		for _, b := range l.st.dur.blocks {
			for _, refs := range b.index {
				for _, r := range refs {
					n = max(n, r.Count)
				}
			}
		}
		return n
	}
	if n := largest(); n != oldCut {
		t.Fatalf("largest chunk before compaction holds %d points, want %d", n, oldCut)
	}
	span := maxSampleT(samples)
	ops := append(readOps(compactQueries(span), 0), op{Kind: opScan, Q: RangeQuery{Component: "*", Metric: "*", From: span / 3, To: span}})
	ops = append(append(ops, op{Kind: opCompact}), ops...)
	for i, o := range ops {
		if err := l.apply(o); err != nil {
			t.Fatalf("op %d of %d (%s): %v", i, len(ops), o.Kind, err)
		}
		if err := l.diffCounters(); err != nil {
			t.Fatalf("after op %d (%s): %v", i, o.Kind, err)
		}
	}
	if n := l.st.Stats().Blocks; n != 1 {
		t.Fatalf("%d blocks after compaction, want 1", n)
	}
	if n := largest(); n > maxChunkPoints {
		t.Fatalf("largest chunk after compaction holds %d points, want at most %d", n, maxChunkPoints)
	}
}

// refWriteBlockParts is the block writer this package had before the
// streaming blockWriter, kept verbatim as the byte-level reference: the
// whole block comes in as a map of segment lists, chunks.dat is built in
// one []byte, index.json and meta.json are json.MarshalIndent output.
func refWriteBlockParts(blocksDir string, meta blockMeta, series map[string][][]Point) (*block, error) {
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
					summary: summary{
						Count:  len(part),
						MinT:   part[0].T,
						MaxT:   part[len(part)-1].T,
						MinV:   sum.MinV,
						MaxV:   sum.MaxV,
						FirstV: sum.FirstV,
						LastV:  sum.LastV,
					},
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
	if err := syncDir(osFS{}, tmp); err != nil {
		return nil, err
	}
	final := filepath.Join(blocksDir, blockDirName(meta.Seq, meta.MinT, meta.MaxT))
	if err := os.Rename(tmp, final); err != nil {
		return nil, err
	}
	if err := syncDir(osFS{}, blocksDir); err != nil {
		return nil, err
	}
	return openBlock(osFS{}, final)
}

// writeFileSync is the reference writer's file primitive, moved here
// with it.
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

// writerCase is one random block: per series, the segment list a
// compaction would hand the writer (a checkpoint hands one segment).
func writerCase(rng *rand.Rand) map[string][][]Point {
	keys := []string{
		"web/cpu", "db/mem", "a/b", "a/b2", "A/b", "quo\"te/m", "html<&>/m", "uni\u00e9\u2028/m",
		"ctl\x01/m", "back\\slash/m", "z", "",
	}
	values := func(n int, base int64, mode int) []Point {
		pts := make([]Point, n)
		t := base
		for i := range pts {
			t += int64(rng.Intn(3)) * 250 // zero steps: duplicate timestamps
			v := rng.NormFloat64() * 1e3
			switch mode {
			case 1: // counter-like integers
				v = float64(i)
			case 2: // non-finite and extreme values
				switch rng.Intn(6) {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(-1)
				case 2:
					v = math.MaxFloat64
				case 3:
					v = math.Copysign(0, -1)
				case 4:
					v = 5e-324
				}
			}
			pts[i] = Point{T: t, V: v}
		}
		return pts
	}
	series := map[string][][]Point{}
	for _, k := range keys {
		if rng.Intn(4) == 0 {
			continue
		}
		var segs [][]Point
		for s := 0; s <= rng.Intn(3); s++ { // later segments start earlier: late data
			n := 1 + rng.Intn(300)
			if rng.Intn(8) == 0 {
				n = 1 // one-point series / segments
			}
			segs = append(segs, values(n, int64(-s)*40_000-int64(rng.Intn(1000)), rng.Intn(3)))
		}
		if rng.Intn(3) == 0 {
			segs = append(segs, nil) // an empty segment is skipped
		}
		series[k] = segs
	}
	series["big/series"] = [][]Point{values(2*maxChunkPoints+rng.Intn(500), 0, 1), values(maxChunkPoints, -5, 0)}
	// One bucket per point: a companion list long enough to leave the
	// encoder in several pieces.
	wide := make([]Point, 2500)
	for i := range wide {
		wide[i] = Point{T: int64(i) * 300_000, V: rng.NormFloat64()}
	}
	series["wide/series"] = [][]Point{wide}
	series["empty/series"] = [][]Point{nil, {}} // no points: not indexed
	if rng.Intn(2) == 0 {
		series["extreme/t"] = [][]Point{{{T: math.MinInt64 + 1, V: 1}, {T: -1, V: 2}, {T: math.MaxInt64 - 1, V: 3}}}
	}
	return series
}

func pointsBitEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBlockWriterMatchesReference pins the streaming writer to the
// map-taking writer it replaced: same directory name and the same bytes
// in chunks.dat and meta.json for the same input, an index.json that is
// json.MarshalIndent of blockIndex, a returned block indistinguishable
// from reopening the directory, and companions that equal the reference
// fold over the published block's scan, each timed once. A block written
// without companions (every third seed, as a checkpoint writes it) has
// the reference writer's index.json byte for byte.
func TestBlockWriterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		series := writerCase(rng)
		meta := blockMeta{Seq: uint64(seed), WALCuts: map[string]uint64{"0": 3, "10": 7, "2": ^uint64(0)}}
		if seed%2 == 0 { // a compaction's identity fields
			meta = blockMeta{Seq: uint64(seed), MinSeq: 2, MaxSeq: uint64(seed) + 4, Level: 2}
		}
		refDir, dir := t.TempDir(), t.TempDir()
		want, err := refWriteBlockParts(refDir, meta, series)
		if err != nil {
			t.Fatalf("seed %d: reference writer: %v", seed, err)
		}
		tel := newStoreTelemetry(telemetry.NewRegistry())
		downsample := seed%3 != 0
		bw, err := newBlockWriter(osFS{}, dir, meta, downsample, tel)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range sortedKeys(series) {
			if err := bw.addSeries(key, series[key]...); err != nil {
				t.Fatalf("seed %d: addSeries(%q): %v", seed, key, err)
			}
		}
		got, err := bw.publish()
		if err != nil {
			t.Fatalf("seed %d: publish: %v", seed, err)
		}
		if filepath.Base(got.dir) != filepath.Base(want.dir) {
			t.Fatalf("seed %d: published as %s, reference %s", seed, filepath.Base(got.dir), filepath.Base(want.dir))
		}
		names := []string{blockChunksName, blockMetaName}
		if !downsample {
			names = append(names, blockIndexName)
		}
		for _, name := range names {
			if !bytes.Equal(mustReadFile(t, filepath.Join(got.dir, name)), mustReadFile(t, filepath.Join(want.dir, name))) {
				t.Fatalf("seed %d: %s differs from the reference writer's", seed, name)
			}
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("seed %d: blocks dir holds %d entries (%v), want only the block", seed, len(entries), err)
		}
		reopened, err := openBlock(osFS{}, got.dir)
		if err != nil {
			t.Fatal(err)
		}
		gotF, reF := got.f, reopened.f
		got.f, reopened.f = nil, nil
		if !reflect.DeepEqual(got, reopened) {
			t.Fatalf("seed %d: returned block differs from openBlock:\n got %+v\nwant %+v", seed, got.meta, reopened.meta)
		}
		got.f, reopened.f = gotF, reF
		reopened.close()
		// The handle opened before the rename must read the published file.
		for key, segs := range series {
			var all []Point
			for _, seg := range segs {
				all = append(all, seg...)
			}
			pts, err := blockQuery(got, key, math.MinInt64, math.MaxInt64)
			if err != nil {
				t.Fatalf("seed %d: scan %q: %v", seed, key, err)
			}
			if !pointsBitEqual(pts, all) {
				t.Fatalf("seed %d: %q reads back %d points, wrote %d", seed, key, len(pts), len(all))
			}
		}
		wantIdx := blockIndex{Series: want.index}
		if downsample {
			wantIdx.Downsampled = map[int64]map[string][]summary{}
			for _, res := range downsampleResolutions {
				wantDs := map[string][]summary{}
				for key := range got.index {
					pts, err := blockQuery(got, key, math.MinInt64, math.MaxInt64)
					if err != nil {
						t.Fatal(err)
					}
					wantDs[key] = mapDownsampleSeries(pts, res)
				}
				wantIdx.Downsampled[res] = wantDs
			}
		}
		if !reflect.DeepEqual(got.ds, wantIdx.Downsampled) {
			t.Fatalf("seed %d: companion buckets differ from the reference fold", seed)
		}
		if n, want := tel.DownsampleSeconds.Count(), uint64(len(wantIdx.Downsampled)); n != want {
			t.Fatalf("seed %d: %d companion builds timed, want %d", seed, n, want)
		}
		wantJSON, err := json.MarshalIndent(wantIdx, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustReadFile(t, filepath.Join(got.dir, blockIndexName)), wantJSON) {
			t.Fatalf("seed %d: %s differs from json.MarshalIndent", seed, blockIndexName)
		}
		if entries, err := os.ReadDir(got.dir); err != nil || len(entries) != 3 {
			t.Fatalf("seed %d: block dir holds %d entries (%v), want %s, %s and %s",
				seed, len(entries), err, blockMetaName, blockIndexName, blockChunksName)
		}
		got.close()
		want.close()
	}
}

// TestBlockWriterCompanionEmptySeries covers the document shape no
// published block produces (a block always indexes a series): empty
// series and companion maps marshal as {} on their key's line, not as an
// open and a close brace on separate lines.
func TestBlockWriterCompanionEmptySeries(t *testing.T) {
	bw, err := newBlockWriter(osFS{}, t.TempDir(), blockMeta{Seq: 1}, true, newStoreTelemetry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer bw.abort()
	if err := bw.writeIndex(); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(blockIndex{
		Series:      map[string][]chunkRef{},
		Downsampled: map[int64]map[string][]summary{300_000: {}, 3_600_000: {}},
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustReadFile(t, filepath.Join(bw.tmp, blockIndexName)); !bytes.Equal(got, want) {
		t.Fatalf("empty index:\n got %s\nwant %s", got, want)
	}
}

// TestBlockWriterRefusesAndCleansUp covers the writer's own error paths:
// each leaves the blocks directory empty.
func TestBlockWriterRefusesAndCleansUp(t *testing.T) {
	cases := map[string]func(bw *blockWriter) error{
		"no points": func(bw *blockWriter) error {
			if err := bw.addSeries("a/b"); err != nil {
				return err
			}
			_, err := bw.publish()
			return err
		},
		"keys out of order": func(bw *blockWriter) error {
			if err := bw.addSeries("b/b", blockPoints(3, 0)); err != nil {
				t.Fatal(err)
			}
			return bw.addSeries("a/b", blockPoints(3, 0))
		},
		"unsorted segment": func(bw *blockWriter) error {
			return bw.addSeries("a/b", []Point{{T: 10}, {T: 5}})
		},
	}
	for name, fail := range cases {
		dir := t.TempDir()
		bw, err := newBlockWriter(osFS{}, dir, blockMeta{Seq: 1}, true, newStoreTelemetry(telemetry.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		if err := fail(bw); err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		bw.abort() // idempotent after the writer's own abort
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("%s: blocks dir holds %d entries (%v) after the failure", name, len(entries), err)
		}
	}
}

// lateRounds is rounds of scrapes 10 s apart over nSeries series. In
// every round after the first, every third series also receives a few
// points stamped inside the previous round's span, in descending order:
// late data across checkpoints, so those series' concatenated block
// streams hold several monotone segments.
func lateRounds(nSeries, rounds, perRound int) [][]Sample {
	rng := rand.New(rand.NewSource(7))
	key := func(i int) (string, string) { return fmt.Sprintf("svc-%02d", i%8), fmt.Sprintf("metric_%03d", i) }
	out := make([][]Sample, rounds)
	for r := range out {
		for k := 0; k < perRound; k++ {
			for i := 0; i < nSeries; i++ {
				c, m := key(i)
				out[r] = append(out[r], Sample{Component: c, Metric: m, T: int64(r*perRound+k) * 10_000, V: rng.NormFloat64()})
			}
		}
		for i := 0; r > 0 && i < nSeries; i += 3 {
			c, m := key(i)
			for j := 0; j < 5; j++ {
				out[r] = append(out[r], Sample{Component: c, Metric: m, T: int64(r*perRound-1-7*j)*10_000 + 3, V: rng.NormFloat64()})
			}
		}
	}
	return out
}

// readBlockMeta decodes a published block's meta.json.
func readBlockMeta(t *testing.T, dir string) blockMeta {
	t.Helper()
	var meta blockMeta
	if err := json.Unmarshal(mustReadFile(t, filepath.Join(dir, blockMetaName)), &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// assertSameBlockBytes fails unless the published block dir holds, under
// the same name, the bytes of chunks.dat and meta.json that want holds,
// and an index.json equal to wantIndex.
func assertSameBlockBytes(t *testing.T, label, dir string, want *block, wantIndex []byte) {
	t.Helper()
	if filepath.Base(dir) != filepath.Base(want.dir) {
		t.Fatalf("%s: published as %s, reference %s", label, filepath.Base(dir), filepath.Base(want.dir))
	}
	for _, name := range []string{blockChunksName, blockMetaName} {
		if !bytes.Equal(mustReadFile(t, filepath.Join(dir, name)), mustReadFile(t, filepath.Join(want.dir, name))) {
			t.Fatalf("%s: %s differs from the reference writer's", label, name)
		}
	}
	if !bytes.Equal(mustReadFile(t, filepath.Join(dir, blockIndexName)), wantIndex) {
		t.Fatalf("%s: %s differs from the reference", label, blockIndexName)
	}
}

// TestBlockWriterWorkersWriteSameBytes runs a store's checkpoints and
// the merge of their blocks through the block writer's pool at 1, 2 and
// 7 encode workers (durable.writeWorkers). 150 series make batches of 64,
// 64 and 22 keys, which 7 workers do not divide evenly; late data across
// the checkpoints gives a third of the merged series several monotone
// segments. At every count, each checkpoint block and the merged block,
// companions included, must be the bytes the sequential reference writer
// produces for the same input: chunks.dat, meta.json and index.json.
func TestBlockWriterWorkersWriteSameBytes(t *testing.T) {
	const nSeries, rounds, perRound = 150, 4, 40
	data := lateRounds(nSeries, rounds, perRound)
	// The reference input: per round, each key's points stably sorted by
	// time (a checkpoint's one segment); per key, the rounds' sorted
	// lists concatenated in block order and split where time decreases
	// (the merge's segments).
	ckpt := make([]map[string][][]Point, rounds)
	merged := map[string][][]Point{}
	for r, samples := range data {
		ckpt[r] = map[string][][]Point{}
		byKey := map[string][]Point{}
		for _, s := range samples {
			key := s.Component + "/" + s.Metric
			byKey[key] = append(byKey[key], Point{T: s.T, V: s.V})
		}
		for key, pts := range byKey {
			sortStable(pts)
			ckpt[r][key] = [][]Point{pts}
			segs := merged[key]
			if n := len(segs); n > 0 && pts[0].T < segs[n-1][len(segs[n-1])-1].T {
				segs = append(segs, nil)
			}
			if len(segs) == 0 {
				segs = append(segs, nil)
			}
			segs[len(segs)-1] = append(segs[len(segs)-1], pts...)
			merged[key] = segs
		}
	}
	var multi int
	for _, segs := range merged {
		if len(segs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no merged series holds more than one monotone segment")
	}

	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			blocksDir := filepath.Join(dir, "blocks")
			s, _ := openCompactable(t, dir, 2, FsyncNever, 0)
			defer s.Close()
			s.dur.writeWorkers = workers
			for _, samples := range data {
				if err := s.WriteSamples(samples, 0); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			names := listBlockDirs(t, blocksDir)
			if len(names) != rounds {
				t.Fatalf("%d checkpoint blocks, want %d", len(names), rounds)
			}
			for r, name := range names {
				got := filepath.Join(blocksDir, name)
				meta := readBlockMeta(t, got)
				want, err := refWriteBlockParts(t.TempDir(), blockMeta{Seq: meta.Seq, WALCuts: meta.WALCuts}, ckpt[r])
				if err != nil {
					t.Fatal(err)
				}
				defer want.close()
				wantIndex, err := json.MarshalIndent(blockIndex{Series: want.index}, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				assertSameBlockBytes(t, "checkpoint "+name, got, want, wantIndex)
			}

			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			names = listBlockDirs(t, blocksDir)
			if len(names) != 1 {
				t.Fatalf("%d blocks after compaction, want 1", len(names))
			}
			got := filepath.Join(blocksDir, names[0])
			meta := readBlockMeta(t, got)
			want, err := refWriteBlockParts(t.TempDir(), blockMeta{
				Seq: meta.Seq, WALCuts: meta.WALCuts, MinSeq: 1, MaxSeq: rounds, Level: 1,
			}, merged)
			if err != nil {
				t.Fatal(err)
			}
			defer want.close()
			idx := blockIndex{Series: want.index, Downsampled: map[int64]map[string][]summary{}}
			for _, res := range downsampleResolutions {
				idx.Downsampled[res] = map[string][]summary{}
				for key, segs := range merged {
					idx.Downsampled[res][key] = downsampleSeries(res, segs...)
				}
			}
			wantIndex, err := json.MarshalIndent(idx, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			assertSameBlockBytes(t, "merged "+names[0], got, want, wantIndex)
		})
	}
}
