package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy controls when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) leaves appends in the OS page cache and
	// fsyncs them on a background tick, bounding the post-crash loss
	// window to 200ms (fsyncTick) of writes.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs after every appended batch: zero loss on power
	// failure, at the cost of one disk flush per write.
	FsyncAlways
	// FsyncNever never fsyncs explicitly; durability is whatever the OS
	// provides. Survives process crashes but not host crashes.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("tsdb: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// castagnoli is the CRC-32C table shared by WAL records and block chunks.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecordHeader is [4B payload length][4B CRC-32C of payload], both
// little-endian, preceding every record.
const walRecordHeader = 8

// WAL record payload versioning. A v1 payload starts with its uvarint
// sample count, which is never zero (empty batches are not appended), so
// the byte 0x00 is free to mark a versioned v2 payload: 0x00, then a
// record-type byte, then the type's body. Replay switches per record on
// that first byte, which is what makes mixed-version recovery (v1
// segments from an old process next to v2 segments from this one — or
// even both forms inside one directory) seamless.
const (
	walV2Marker = 0x00
	// walRecSeries defines one series for the rest of the segment:
	// uvarint id, then length-prefixed component and metric strings. The
	// writer emits it on a series' first occurrence per segment; ids are
	// assigned sequentially from 0, in order of first use, and die with
	// the segment.
	walRecSeries = 0x01
	// walRecSamples is a sample batch referencing dictionary ids:
	// uvarint count, then per sample uvarint series id, zigzag-varint
	// timestamp delta from the record's previous sample (the first
	// sample's delta is from zero, i.e. the absolute timestamp), raw
	// float64 bits. Collector batches carry one scrape's worth of equal
	// or near-equal timestamps, so the deltas are almost always one
	// byte.
	walRecSamples = 0x02
)

// decodeWALSamples decodes one v1 record payload: a uvarint count
// followed by, per sample, length-prefixed component and metric strings,
// a zigzag-varint timestamp, and the raw float64 bits. The writer emits
// v2 (see encodeFramesLocked); replay must keep decoding pre-dictionary
// segments forever, so the decoder stays (the v1 encoder lives with the
// mixed-version tests that need to produce such segments).
func decodeWALSamples(payload []byte) ([]Sample, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("tsdb: wal record: bad sample count")
	}
	payload = payload[n:]
	// Each sample costs at least 2 length bytes + 1 timestamp byte + 8
	// value bytes, so a corrupt count cannot force a huge allocation.
	if count > uint64(len(payload)/11)+1 {
		return nil, fmt.Errorf("tsdb: wal record claims %d samples in %d bytes", count, len(payload))
	}
	readStr := func() (string, error) {
		l, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload)-n) < l {
			return "", fmt.Errorf("tsdb: wal record: truncated string")
		}
		s := string(payload[n : n+int(l)])
		payload = payload[n+int(l):]
		return s, nil
	}
	out := make([]Sample, 0, count)
	for i := uint64(0); i < count; i++ {
		var s Sample
		var err error
		if s.Component, err = readStr(); err != nil {
			return nil, err
		}
		if s.Metric, err = readStr(); err != nil {
			return nil, err
		}
		t, n := binary.Varint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("tsdb: wal record: truncated timestamp")
		}
		payload = payload[n:]
		if len(payload) < 8 {
			return nil, fmt.Errorf("tsdb: wal record: truncated value")
		}
		s.T = t
		s.V = math.Float64frombits(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
		out = append(out, s)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("tsdb: wal record: %d trailing bytes", len(payload))
	}
	return out, nil
}

// seriesIdent is one dictionary entry: the strings a v2 sample record's
// id resolves to and, once replay met the id's first sample, the
// destination they resolved to (zero until then).
type seriesIdent struct {
	component string
	metric    string
	ref       seriesRef
}

// beginFrame reserves a record header in buf and returns the payload
// start offset; finishFrame fills the header once the payload is built.
func beginFrame(buf []byte) ([]byte, int) {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return buf, len(buf)
}

func finishFrame(buf []byte, payloadStart int) []byte {
	payload := buf[payloadStart:]
	binary.LittleEndian.PutUint32(buf[payloadStart-walRecordHeader:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[payloadStart-walRecordHeader+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// appendSeriesFrame appends one complete walRecSeries record (header
// included) defining id -> component/metric.
func appendSeriesFrame(buf []byte, id uint64, component, metric string) []byte {
	buf, start := beginFrame(buf)
	buf = append(buf, walV2Marker, walRecSeries)
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(component)))
	buf = append(buf, component...)
	buf = binary.AppendUvarint(buf, uint64(len(metric)))
	buf = append(buf, metric...)
	return finishFrame(buf, start)
}

// appendSamplesFrameV2 appends one complete walRecSamples record in which
// samples[i] references the WAL id of refs[i] (every series must already
// be defined in the segment).
func appendSamplesFrameV2(buf []byte, samples []Sample, refs []*series) []byte {
	buf, start := beginFrame(buf)
	buf = append(buf, walV2Marker, walRecSamples)
	buf = binary.AppendUvarint(buf, uint64(len(samples)))
	var prevT int64
	for i := range samples {
		s := &samples[i]
		buf = binary.AppendUvarint(buf, refs[i].walID)
		buf = binary.AppendVarint(buf, s.T-prevT)
		prevT = s.T
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.V))
	}
	return finishFrame(buf, start)
}

// replaySink is where replay puts a segment's samples. resolve maps a
// series identity to its destination; add appends one point there.
// Replay calls resolve once per WAL id per segment (and once per sample
// of a v1 record, which carries no ids), so the per-sample cost of a v2
// segment is add alone.
type replaySink interface {
	resolve(component, metric string) seriesRef
	add(ref seriesRef, t int64, v float64)
}

// seriesRef is a resolved replay destination: a series and the shard
// that holds it.
type seriesRef struct {
	sh *shard
	sr *series
}

// walPoint is one decoded sample of a v2 record, before it is applied.
type walPoint struct {
	id uint64
	t  int64
	v  float64
}

// walDecoder replays one segment. dict holds the identities the
// segment's series records defined, in id order; pts the sample record
// being decoded, applied only once it decoded whole.
type walDecoder struct {
	dict []seriesIdent
	pts  []walPoint
}

// replayRecord decodes one record payload of either version and applies
// its samples to sink, returning how many it applied. A v1 payload
// decodes standalone; a v2 series record extends the decoder's
// dictionary and applies nothing; a v2 sample record resolves its ids
// against the dictionary built so far. Any malformed byte — including a
// series id the segment never defined or a non-sequential definition —
// is an error and applies nothing, which replay treats like any other
// corrupt record.
func (d *walDecoder) replayRecord(payload []byte, sink replaySink) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("tsdb: wal record: empty payload")
	}
	if payload[0] != walV2Marker {
		batch, err := decodeWALSamples(payload)
		if err != nil {
			return 0, err
		}
		for _, s := range batch {
			sink.add(sink.resolve(s.Component, s.Metric), s.T, s.V)
		}
		return len(batch), nil
	}
	if len(payload) < 2 {
		return 0, fmt.Errorf("tsdb: wal record: truncated v2 header")
	}
	body := payload[2:]
	switch payload[1] {
	case walRecSeries:
		id, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, fmt.Errorf("tsdb: wal series record: bad id")
		}
		if id != uint64(len(d.dict)) {
			return 0, fmt.Errorf("tsdb: wal series record: id %d out of sequence (have %d)", id, len(d.dict))
		}
		body = body[n:]
		readStr := func() (string, error) {
			l, n := binary.Uvarint(body)
			if n <= 0 || uint64(len(body)-n) < l {
				return "", fmt.Errorf("tsdb: wal series record: truncated string")
			}
			s := string(body[n : n+int(l)])
			body = body[n+int(l):]
			return s, nil
		}
		var ident seriesIdent
		var err error
		if ident.component, err = readStr(); err != nil {
			return 0, err
		}
		if ident.metric, err = readStr(); err != nil {
			return 0, err
		}
		if len(body) != 0 {
			return 0, fmt.Errorf("tsdb: wal series record: %d trailing bytes", len(body))
		}
		d.dict = append(d.dict, ident)
		return 0, nil
	case walRecSamples:
		count, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, fmt.Errorf("tsdb: wal record: bad sample count")
		}
		body = body[n:]
		// Each sample costs at least 1 id byte + 1 timestamp byte + 8
		// value bytes, so a corrupt count cannot force a huge allocation.
		if count > uint64(len(body)/10)+1 {
			return 0, fmt.Errorf("tsdb: wal record claims %d samples in %d bytes", count, len(body))
		}
		pts := d.pts[:0]
		var prevT int64
		for i := uint64(0); i < count; i++ {
			id, n := binary.Uvarint(body)
			if n <= 0 {
				return 0, fmt.Errorf("tsdb: wal record: truncated series id")
			}
			if id >= uint64(len(d.dict)) {
				return 0, fmt.Errorf("tsdb: wal record: undefined series id %d", id)
			}
			body = body[n:]
			dt, n := binary.Varint(body)
			if n <= 0 {
				return 0, fmt.Errorf("tsdb: wal record: truncated timestamp")
			}
			body = body[n:]
			if len(body) < 8 {
				return 0, fmt.Errorf("tsdb: wal record: truncated value")
			}
			prevT += dt
			pts = append(pts, walPoint{id: id, t: prevT, v: math.Float64frombits(binary.LittleEndian.Uint64(body))})
			body = body[8:]
		}
		d.pts = pts
		if len(body) != 0 {
			return 0, fmt.Errorf("tsdb: wal record: %d trailing bytes", len(body))
		}
		for _, p := range pts {
			ident := &d.dict[p.id]
			if ident.ref.sr == nil {
				ident.ref = sink.resolve(ident.component, ident.metric)
			}
			sink.add(ident.ref, p.t, p.v)
		}
		return len(pts), nil
	}
	return 0, fmt.Errorf("tsdb: wal record: unknown v2 record type 0x%02x", payload[1])
}

// walSegmentName formats a segment sequence number as its file name.
func walSegmentName(seq uint64) string { return fmt.Sprintf("%08d.wal", seq) }

// listWALSegments returns the segment sequence numbers in dir, ascending.
// Only a file named exactly as walSegmentName names its number counts:
// a stray 1.wal or 00000001.wal.wal would otherwise read as segment 1.
func listWALSegments(fsys fileSystem, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		digits, _ := strings.CutSuffix(e.Name(), ".wal")
		seq, err := strconv.ParseUint(digits, 10, 64)
		if e.IsDir() || err != nil || walSegmentName(seq) != e.Name() {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// walWriter appends CRC-framed sample batches to numbered segment files
// in one directory (one walWriter per store). Each shard appends under
// its own lock; mu orders the appends of every shard against each other,
// the commit leader, segment rotation and close.
type walWriter struct {
	fsys     fileSystem
	dir      string
	policy   FsyncPolicy
	segMax   int64 // roll to a new segment beyond this many bytes
	mu       sync.Mutex
	f        file
	seq      uint64 // sequence number of the open segment
	size     int64  // bytes written to the open segment
	retained int64  // bytes in older, still-live segments
	// pendingTrunc records a failed rollback of a rejected record: the
	// phantom bytes (a complete, CRC-valid frame the client was told
	// failed) are still in the segment past w.size, and nothing may
	// append, roll, or close after them until they are cut out — replay
	// would otherwise resurrect the failed write.
	pendingTrunc bool
	buf          []byte // encode scratch, reused across appends

	// The open segment's series ids live on the series themselves
	// (series.walID, valid while series.walSeg == seq): a series gets a
	// walRecSeries record and the id nextID on its first use in the
	// segment, and sample records reference the id from then on. A roll
	// starts nextID again at 0 and leaves every stored id stale, so replay
	// of any single segment is self-contained. defined is the per-append
	// rollback scratch, the series this append gave an id: when its write
	// fails they lose the id again, or a later sample record would
	// reference an id that never reached disk.
	nextID  uint64
	defined []*series

	// tel is the owning store's instrument set (append/fsync latency,
	// bytes written, group-commit cohort size and saved fsyncs). Fixed
	// at open and never written again, so it is read without mu.
	tel *StoreTelemetry

	// segments counts live segment files (older retained ones plus the
	// open one), maintained by roll/remove so the gauge needs no readdir.
	segments int

	// Commit state, guarded by mu. Every append is assigned a sequence
	// number once its write completes; syncedSeq is the highest append
	// known to be on stable storage — advanced by a commit leader's
	// fsync, by segment rolls (which fsync the old file before closing
	// it), and by close. syncing marks a leader's fsync in flight; cond
	// (on mu) wakes the commitWait callers queued behind it.
	cond      *sync.Cond
	appendSeq uint64
	syncedSeq uint64
	syncing   bool
	// failSeq/failErr record the last failed leader fsync. Under
	// FsyncAlways every waiter at or below failSeq whose data a later
	// fsync has not since covered gets failErr, and appends after the
	// failure start a fresh group, so a recovered disk resumes service
	// without restart. Under FsyncInterval the next append surfaces it
	// once and clears it.
	failSeq uint64
	failErr error
}

// openWALWriter opens dir (creating it) and starts a fresh segment after
// the highest existing one, numbered no lower than first; existing
// segments are left for replay and later truncation by checkpoints.
func openWALWriter(fsys fileSystem, dir string, policy FsyncPolicy, segMax int64, tel *StoreTelemetry, first uint64) (*walWriter, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	seqs, err := listWALSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	next := max(first, 1)
	var retained int64
	for _, seq := range seqs {
		if seq >= next {
			next = seq + 1
		}
		if fi, err := fsys.Stat(filepath.Join(dir, walSegmentName(seq))); err == nil {
			retained += fi.Size()
		}
	}
	w := &walWriter{fsys: fsys, dir: dir, policy: policy, segMax: segMax, seq: next, retained: retained, segments: len(seqs) + 1, tel: tel}
	w.cond = sync.NewCond(&w.mu)
	if w.f, err = w.create(next); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *walWriter) create(seq uint64) (file, error) {
	return w.fsys.Append(filepath.Join(w.dir, walSegmentName(seq)))
}

// encodeFramesLocked rebuilds w.buf with this batch's v2 frames: one
// walRecSeries frame per series (refs[i] is samples[i]'s) the open
// segment has not defined yet, then one walRecSamples frame referencing
// their ids. Series given an id here are recorded in w.defined so a
// failed write can take the ids back. Caller holds w.mu.
func (w *walWriter) encodeFramesLocked(samples []Sample, refs []*series) {
	w.buf = w.buf[:0]
	w.defined = w.defined[:0]
	for _, sr := range refs {
		if sr.walSeg != w.seq {
			sr.walID, sr.walSeg = w.nextID, w.seq
			w.nextID++
			component, metric := sr.ident()
			w.buf = appendSeriesFrame(w.buf, sr.walID, component, metric)
			w.defined = append(w.defined, sr)
		}
	}
	w.buf = appendSamplesFrameV2(w.buf, samples, refs)
}

// rollbackIDsLocked takes back the ids the current append gave out in
// the open segment: their series frames are not on disk (or are being
// truncated away), so later sample records must not reference them. Ids
// given out in a segment that has since rolled are stale already.
func (w *walWriter) rollbackIDsLocked() {
	for _, sr := range w.defined {
		if sr.walSeg == w.seq {
			sr.walSeg = 0
			w.nextID--
		}
	}
	clear(w.defined)
	w.defined = w.defined[:0]
}

// append encodes and writes one batch as v2 frames (series definitions
// first, then the sample record), rolling the segment first when it is
// full; refs[i] is the series of samples[i]. The write is buffered:
// durability comes from the interval tick (flush), the OS (FsyncNever),
// or commitWait (FsyncAlways — the returned sequence number is the
// handle to wait on). On a failure the frames are truncated back out and
// the ids given out rolled back, so the segment stays on a clean frame
// boundary and no id escapes that replay could not resolve.
func (w *walWriter) append(samples []Sample, refs []*series) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(samples) == 0 {
		return w.appendSeq, nil
	}
	if w.policy == FsyncInterval && w.failErr != nil {
		// An interval fsync failed since the last append: the writes it
		// covered may not be durable. Fail one write loudly instead of
		// letting the store keep acknowledging on a sinking log.
		err := w.failErr
		w.failErr = nil
		return 0, fmt.Errorf("tsdb: wal fsync (background): %w", err)
	}
	if err := w.clearPendingTruncLocked(); err != nil {
		return 0, err
	}
	start := time.Now()
	w.encodeFramesLocked(samples, refs)
	if w.size > 0 && w.size+int64(len(w.buf)) > w.segMax {
		// The encode above may have given ids in the segment we are about
		// to leave; the roll makes them stale, so re-encode against the
		// fresh segment (where every series of the batch is new and gets
		// a definition frame).
		if err := w.rollLocked(); err != nil {
			w.rollbackIDsLocked()
			return 0, err
		}
		w.encodeFramesLocked(samples, refs)
	}
	if n, err := w.f.Write(w.buf); err != nil {
		// Roll the torn frames back so the next append starts on a clean
		// frame boundary: garbage mid-segment would otherwise stop replay
		// there and discard every later (even fsynced) record. If the
		// same sick disk also fails the cut, remember it: the next
		// append, roll, or close must retry before anything lands after
		// the phantom frames.
		if n > 0 && w.f.Truncate(w.size) != nil {
			w.pendingTrunc = true
		}
		w.rollbackIDsLocked()
		return 0, fmt.Errorf("tsdb: wal append: %w", err)
	}
	clear(w.defined) // hold no series a checkpoint may steal next
	w.size += int64(len(w.buf))
	w.tel.WALBytesWritten.Add(uint64(len(w.buf)))
	w.appendSeq++
	w.tel.WALAppendSeconds.ObserveSince(start)
	return w.appendSeq, nil
}

// commitWait blocks until the append identified by seq is on stable
// storage, or until the group fsync that covered it fails — the
// FsyncAlways durability gate. The first waiter that finds no fsync in
// flight becomes the leader (leadSyncLocked), and that single fsync
// commits every append queued while the previous one was in flight (its
// own cohort). Followers just wait; each request still returns only once
// its own batch is durable, so the FsyncAlways contract per request is
// unchanged — only the fsync count scales with batches coalesced
// instead of with requests.
//
// On a leader fsync failure every cohort member gets the error. Their
// frames stay in the log and their samples stay in memory (a cohort's
// frames interleave, so there is no single record to truncate away), so
// a failed FsyncAlways write means "durability unconfirmed", not "not
// stored": a crash before a later successful fsync loses it, a retry may
// duplicate it.
func (w *walWriter) commitWait(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedSeq < seq {
		if w.failErr != nil && w.failSeq >= seq {
			return fmt.Errorf("tsdb: wal fsync: %w", w.failErr)
		}
		if w.syncing {
			w.cond.Wait()
		} else {
			w.leadSyncLocked()
		}
	}
	return nil
}

// flush is the FsyncInterval tick: it commits every append since the
// last successful fsync through the same leader as commitWait, and
// issues no fsync when there is none (or a leader is already at it). A
// failed fsync leaves syncedSeq behind, so the next tick retries, and
// the next append surfaces the error.
func (w *walWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.syncing && w.appendSeq > w.syncedSeq {
		w.leadSyncLocked()
	}
}

// leadSyncLocked is the one fsync of the open segment for durability:
// it snapshots the newest completed append and the file handle, then
// fsyncs with mu released, so appenders keep queueing behind the flush —
// that queue is the next leader's cohort. Caller holds mu and found no
// fsync in flight. A segment roll racing the fsync fsyncs and closes the
// file itself (the usual error here is then "file already closed") and
// advances syncedSeq past target, which commits the cohort.
func (w *walWriter) leadSyncLocked() {
	target, prev, f := w.appendSeq, w.syncedSeq, w.f
	w.syncing = true
	w.mu.Unlock()
	// A closed handle means close already ran; its final fsync either
	// advanced syncedSeq past target (checked below) or failed.
	err := fs.ErrClosed
	if f != closedFile {
		start := time.Now()
		err = f.Sync()
		w.tel.WALFsyncSeconds.ObserveSince(start)
	}
	w.mu.Lock()
	w.syncing = false
	if err == nil {
		if batches := target - prev; batches > 0 {
			w.tel.WALGroupCommitBatches.Observe(float64(batches))
			w.tel.WALFsyncsSaved.Add(batches - 1)
		}
		w.markSyncedLocked(target)
		return
	}
	if w.syncedSeq < target {
		w.failSeq, w.failErr = target, err
	}
	// Wake the cohort to its error, and the waiters queued behind this
	// fsync to elect the next leader.
	w.cond.Broadcast()
}

// markSyncedLocked records every append up to target as on stable
// storage and wakes the commitWait callers it covers.
func (w *walWriter) markSyncedLocked(target uint64) {
	w.syncedSeq = max(w.syncedSeq, target)
	w.cond.Broadcast()
}

// clearPendingTruncLocked retries a previously failed rollback of a
// rejected record; until it succeeds the segment must not accept
// appends, roll, or seal on close — the phantom frame past w.size is
// CRC-valid and replay would resurrect it.
func (w *walWriter) clearPendingTruncLocked() error {
	if !w.pendingTrunc {
		return nil
	}
	if err := w.f.Truncate(w.size); err != nil {
		return fmt.Errorf("tsdb: wal: cutting rejected record: %w", err)
	}
	w.pendingTrunc = false
	return nil
}

// rollLocked starts the next segment and closes the open one (fsyncing
// it unless the policy is never). Every series id dies with the segment;
// the roll's fsync also commits every append so far, so waiters whose
// records land in the rolled segment are released here rather than by a
// leader fsync of the new (empty) file. The next segment is created
// before anything else changes, so a failed create leaves appends going
// to the open segment and a later roll tries again.
func (w *walWriter) rollLocked() error {
	if err := w.clearPendingTruncLocked(); err != nil {
		return err
	}
	if w.policy != FsyncNever {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.markSyncedLocked(w.appendSeq)
	}
	f, err := w.create(w.seq + 1)
	if err != nil {
		return err
	}
	old := w.f
	w.f = f
	w.retained += w.size
	w.seq++
	w.size = 0
	w.nextID = 0
	w.segments++
	return old.Close()
}

// rotate rolls to a fresh segment and returns its sequence number: every
// record appended before rotate lives in a segment numbered below the
// returned value, the cut checkpoints rely on. Callers must hold every
// shard's lock so no append can interleave with the cut.
func (w *walWriter) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.rollLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// removeSegmentsBelow deletes segments with sequence numbers < seq: their
// records are covered by a persisted block, so replaying them would only
// duplicate data. The open segment is never below a rotate cut, so the
// files go without mu held.
func (w *walWriter) removeSegmentsBelow(seq uint64) error {
	removed, bytes, err := pruneWALSegmentsBelow(w.fsys, w.dir, seq)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.segments -= removed
	w.retained = max(w.retained-bytes, 0)
	return err
}

// usage reports the live segment files and the bytes they hold.
func (w *walWriter) usage() (segments int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segments, w.retained + w.size
}

// close fsyncs (unless the policy is never) and closes the open segment.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == closedFile {
		return nil
	}
	// A phantom record that still cannot be cut out is surfaced, but the
	// file is closed either way: holding the fd open cannot fix the disk.
	err := w.clearPendingTruncLocked()
	if w.policy != FsyncNever {
		serr := w.f.Sync()
		if serr != nil && err == nil {
			err = serr
		}
		if serr == nil {
			w.markSyncedLocked(w.appendSeq)
		}
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	w.f = closedFile
	return err
}

// pruneWALSegmentsBelow removes segments with sequence numbers < seq
// from dir and reports how many files and bytes went; a missing
// directory is fine. Recovery calls it before any writer has the
// directory open, a checkpoint through walWriter.removeSegmentsBelow.
func pruneWALSegmentsBelow(fsys fileSystem, dir string, seq uint64) (removed int, bytes int64, err error) {
	seqs, err := listWALSegments(fsys, dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	for _, s := range seqs {
		if s >= seq {
			continue
		}
		path := filepath.Join(dir, walSegmentName(s))
		if fi, err := fsys.Stat(path); err == nil {
			bytes += fi.Size()
		}
		if err := fsys.Remove(path); err != nil {
			return removed, bytes, err
		}
		removed++
	}
	return removed, bytes, nil
}

// walReplayStats summarizes one log directory's replay.
type walReplayStats struct {
	Segments int
	Records  int
	Samples  int
	// Repaired is true when replay hit a truncated or corrupt record: the
	// segment was truncated at the last good offset and any later
	// segments were discarded, mirroring Prometheus's WAL repair.
	Repaired bool
}

// replayWAL reads every record of every segment in dir in order, adding
// each decoded sample to sink. A short or corrupt record ends the replay:
// everything before it is applied, the bad tail is truncated away so the
// next open starts clean, and later segments (written after the
// corruption point, so of unknowable consistency) are removed; one
// warning names the segment, the offset cut and the segments removed.
func replayWAL(fsys fileSystem, dir string, sink replaySink) (walReplayStats, error) {
	var st walReplayStats
	seqs, err := listWALSegments(fsys, dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return st, nil
		}
		return st, err
	}
	for i, seq := range seqs {
		path := filepath.Join(dir, walSegmentName(seq))
		good, recs, samples, err := replaySegment(fsys, path, sink)
		st.Records += recs
		st.Samples += samples
		st.Segments++
		if err != nil {
			return st, err
		}
		if good >= 0 {
			// Truncate the bad tail and drop all later segments, loudly:
			// the records cut are gone for good.
			st.Repaired = true
			if err := fsys.Truncate(path, good); err != nil {
				return st, err
			}
			removed := make([]string, 0, len(seqs)-i-1)
			for _, later := range seqs[i+1:] {
				name := walSegmentName(later)
				if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
					return st, err
				}
				removed = append(removed, name)
			}
			slog.Warn("wal repaired at open: cut a torn or corrupt record and every later segment",
				"dir", dir, "segment", walSegmentName(seq), "offset", good, "removed", removed)
			return st, nil
		}
	}
	return st, nil
}

// replaySegment applies every whole, checksummed record of one segment.
// It returns goodOffset >= 0 when it stopped at a truncated or corrupt
// record (the offset where the segment should be cut), -1 when the
// segment replayed cleanly to the end. Only a short read (the file
// physically ends mid-record) counts as truncation; a real read error
// aborts the whole recovery instead of destructively "repairing" a
// segment that a transient disk hiccup merely failed to read.
// The decoder's dictionary starts empty per segment (an id's lifetime is
// the segment) and grows as walRecSeries records stream by; v1 records
// decode standalone, so segments of either version — or a segment mixing
// both record forms — replay with the same loop.
// Records counts sample-bearing records only, matching appends.
func replaySegment(fsys fileSystem, path string, sink replaySink) (goodOffset int64, records, samples int, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return -1, 0, 0, err
	}
	defer f.Close()
	var off int64
	var dec walDecoder
	hdr := make([]byte, walRecordHeader)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF {
				return -1, records, samples, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				return off, records, samples, nil // truncated header
			}
			return -1, records, samples, fmt.Errorf("tsdb: reading %s: %w", path, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(length) > 1<<30 { // implausible: corrupt length field
			return off, records, samples, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, records, samples, nil // truncated payload
			}
			return -1, records, samples, fmt.Errorf("tsdb: reading %s: %w", path, err)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, records, samples, nil // corrupt payload
		}
		n, err := dec.replayRecord(payload, sink)
		if err != nil {
			return off, records, samples, nil // framing ok, content corrupt
		}
		if n > 0 {
			records++
			samples += n
		}
		off += walRecordHeader + int64(length)
	}
}
