package tsdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// legacyFixture is the data directory commit 7f37d97 wrote, the last
// release whose WAL is one directory per shard (wal/shard-NNNN/), and
// the answers that release gave to a fixed query set over it
// (testdata/formats/7f37d97/generate.go.txt writes both). It is a
// hard-stopped 4-shard store: a block whose meta records a WAL cut per
// shard, a segment of shard 0 that block covers, live records in every
// shard's directory, and a torn tail in shard 1's.
const legacyFixture = "testdata/formats/7f37d97"

// legacyAnswer is one line of the fixture's answers.json.
type legacyAnswer struct {
	Query  RangeQuery     `json:"query"`
	Result []SeriesResult `json:"result"`
}

// checkLegacyAnswers requires every fixed query to return the committed
// line byte for byte, and Stats to count the raw answer's points once.
func checkLegacyAnswers(t *testing.T, s *Sharded, label string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(legacyFixture, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n")) {
		var a legacyAnswer
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatal(err)
		}
		res, err := s.QueryRange(context.Background(), a.Query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(legacyAnswer{a.Query, res})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("%s: %s answer differs from the committed one:\n got %.300s\nwant %.300s", label, a.Query.Agg, got, line)
		}
		if a.Query.Agg == AggNone {
			var points int
			for _, r := range res {
				points += len(r.Points)
			}
			if st := s.Stats(); st.Points != points {
				t.Fatalf("%s: Stats().Points = %d, the raw answer holds %d", label, st.Points, points)
			}
		}
	}
}

// checkOneLog requires the WAL directory of the store in dir to hold
// segments and nothing else: no per-shard directory is left.
func checkOneLog(dir string) error {
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".wal" {
			return fmt.Errorf("wal/ holds %s", e.Name())
		}
	}
	return nil
}

// TestDurableLegacyWALUpgrade opens copies of the 7f37d97 fixture. At 1,
// 2, 4 and 7 shards, the open prunes shard 0's covered segment, repairs
// shard 1's torn tail, replays every directory, seals the replay into
// one block whose meta records each directory's cut and removes the
// directories: every fixed query returns the committed answer, after the
// open, after Close and at the next open. A hard stop after the upgrade's
// block publish, before the removal, counts no point twice at the next
// open, and an upgrade whose block publish fails leaves the directories
// for the next open. Records an earlier release wrote into a directory
// this one hard-stopped replay after the store log's.
func TestDurableLegacyWALUpgrade(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			copyDirRecursive(t, filepath.Join(legacyFixture, "data"), dir)
			s := openCrashable(t, dir, n)
			if err := checkOneLog(dir); err != nil {
				t.Fatal(err)
			}
			checkLegacyAnswers(t, s, "upgraded")
			if got := listBlockDirs(t, filepath.Join(dir, "blocks")); len(got) != 2 {
				t.Fatalf("blocks after the upgrade %v, want the fixture's and the upgrade's", got)
			}
			cuts := s.dur.blocks[1].meta.WALCuts
			if len(cuts) != 5 || cuts[walKey] == 0 || cuts["0"] != 3 || cuts["3"] != 3 {
				t.Fatalf("the upgrade's block records wal_cuts %v, want the log's and 3 for each of shards 0-3", cuts)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re := openCrashable(t, dir, n)
			defer re.Close()
			checkLegacyAnswers(t, re, "reopened")
		})
	}

	t.Run("hard stop after the publish", func(t *testing.T) {
		dir := t.TempDir()
		copyDirRecursive(t, filepath.Join(legacyFixture, "data"), dir)
		openCrashable(t, dir, 3) // hard-stopped once the open returns
		// The directories as they were before the removal: their records
		// are in the upgrade's block, which recorded each one's cut.
		for i := 0; i < 4; i++ {
			shard := fmt.Sprintf("shard-%04d", i)
			copyDirRecursive(t, filepath.Join(legacyFixture, "data", "wal", shard), filepath.Join(dir, "wal", shard))
		}
		re := openCrashable(t, dir, 2)
		defer re.Close()
		if err := checkOneLog(dir); err != nil {
			t.Fatal(err)
		}
		checkLegacyAnswers(t, re, "reopened after a hard stop after the publish")
	})

	t.Run("earlier release writes after a hard stop", func(t *testing.T) {
		// The earlier release opens a directory this one hard-stopped,
		// does not see the store log and writes the same series at the
		// same timestamps under wal/shard-0000/: its records are the
		// newer, so they must read after the store log's.
		dir, earlier := t.TempDir(), t.TempDir()
		ref := newStoreModel(0)
		recoveryWrite(t, ref, recoveryBatch(0, 4, 3), openCrashable(t, dir, 2))
		later := recoveryBatch(0, 4, 3)
		for i := range later {
			later[i].V += 100
		}
		recoveryWrite(t, ref, later, openCrashable(t, earlier, 1))
		if err := os.Rename(filepath.Join(earlier, "wal"), filepath.Join(dir, "wal", "shard-0000")); err != nil {
			t.Fatal(err)
		}
		re := openCrashable(t, dir, 2)
		defer re.Close()
		if err := checkOneLog(dir); err != nil {
			t.Fatal(err)
		}
		assertSameContents(t, re, ref, "reopened over both logs")
	})

	t.Run("failed publish", func(t *testing.T) {
		dir := t.TempDir()
		copyDirRecursive(t, filepath.Join(legacyFixture, "data"), dir)
		opts := DurabilityOptions{Dir: dir, Fsync: FsyncNever, FlushInterval: -1, CompactInterval: -1}
		_, err := openSharded(4, opts, &faultFS{kind: "Rename", k: 1, err: syscall.EIO})
		if err == nil || !strings.Contains(err.Error(), "sealing the per-shard wal") {
			t.Fatalf("open whose upgrade block cannot publish: %v, want the seal's error", err)
		}
		re := openCrashable(t, dir, 4)
		defer re.Close()
		if err := checkOneLog(dir); err != nil {
			t.Fatal(err)
		}
		checkLegacyAnswers(t, re, "reopened after a failed upgrade")
	})
}
