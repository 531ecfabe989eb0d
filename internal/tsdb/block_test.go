package tsdb

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
	err := b.scan(key, from, to, &out, nil)
	return out.pts, err
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
	blocks, err := openBlocks(dir)
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
	reblk, err := openBlock(blk.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reblk.close()
	if _, err := blockQuery(reblk, "a/b", 0, 1<<40); err == nil {
		t.Fatal("expected CRC error on corrupted chunk")
	}
}
