package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/parallel"
)

// The store's differential test: a seeded generator draws a life of
// writes, reads, checkpoints, compactions and restarts, runs it against
// a durable store and the storeModel side by side, and compares every
// read by float bit pattern and the store's counters after every op. A
// failing life is shrunk to a 1-minimal op list and printed as a Go
// literal for storeRegressions.

type opKind uint8

const (
	opWrite        opKind = iota // Sharded.Write (line protocol, so never NaN)
	opWriteSamples               // Sharded.WriteSamples
	opIngestParsed               // Sharded.IngestParsed
	opQueryRange                 // Sharded.QueryRange
	opScan                       // scanSeries over each key Q's globs select
	opCheckpoint
	opCompact
	opClose // Close, then reopen with Shards
	opCrash // a hard stop: abandon the store unclosed, then reopen with Shards
)

var opNames = [...]string{"opWrite", "opWriteSamples", "opIngestParsed", "opQueryRange", "opScan", "opCheckpoint", "opCompact", "opClose", "opCrash"}

func (k opKind) String() string   { return opNames[k] }
func (k opKind) GoString() string { return opNames[k] }

// op is one step of a store's life.
type op struct {
	Kind   opKind
	Batch  []Sample   // writes
	Q      RangeQuery // reads
	Procs  int        // reads: GOMAXPROCS during the read, 0 for the machine's
	Shards int        // opClose, opCrash: the next life's shard count (0 is GOMAXPROCS)
}

// storeScript is a whole life: the options of the first open and the
// ops that follow. A hand-written script may add end, a check on the
// last life's store once every op has agreed with the model.
type storeScript struct {
	name        string
	shards      int
	fsync       FsyncPolicy
	retentionMS int64
	ops         []op
	end         func(*Sharded) error
}

// storeLife is one store under test beside its model.
type storeLife struct {
	dir   string
	fsync FsyncPolicy
	st    *Sharded
	m     *storeModel
}

func (l *storeLife) open(shards int) error {
	st, err := OpenSharded(shards, DurabilityOptions{
		Dir: l.dir, Fsync: l.fsync, FlushInterval: -1, CompactInterval: -1,
		RetentionMS: l.m.retentionMS, Downsample: true,
	})
	if err != nil {
		return fmt.Errorf("open with %d shards: %w", shards, err)
	}
	l.st = st
	l.m.open(st.NumShards())
	// The next open reads this life's shard count off the WAL
	// directories, so an open leaves exactly its own.
	if dirs, err := os.ReadDir(filepath.Join(l.dir, "wal")); err != nil || len(dirs) != st.NumShards() {
		return fmt.Errorf("%d WAL directories after an open with %d shards (%v)", len(dirs), st.NumShards(), err)
	}
	return nil
}

// runScript plays s in a fresh directory under root and returns the
// index of the first op whose effect differs from the model's, with
// the difference (-1, nil when the whole life agrees). A failing end
// check reports index len(s.ops).
func runScript(root string, s storeScript) (int, error) {
	dir, err := os.MkdirTemp(root, "life-")
	if err != nil {
		return -1, err
	}
	defer os.RemoveAll(dir)
	l := &storeLife{dir: dir, fsync: s.fsync, m: newStoreModel(s.retentionMS)}
	if err := l.open(s.shards); err != nil {
		return -1, err
	}
	defer func() { _ = l.st.Close() }()
	for i, o := range s.ops {
		if err := l.apply(o); err != nil {
			return i, fmt.Errorf("%s: %w", o.Kind, err)
		}
		if err := l.diffCounters(); err != nil {
			return i, fmt.Errorf("after %s: %w", o.Kind, err)
		}
	}
	if s.end != nil {
		if err := s.end(l.st); err != nil {
			return len(s.ops), fmt.Errorf("end check: %w", err)
		}
	}
	return -1, nil
}

func (l *storeLife) apply(o op) error {
	switch o.Kind {
	case opWrite, opWriteSamples, opIngestParsed:
		var n int
		var err error
		switch o.Kind {
		case opWrite:
			n, err = l.st.Write(EncodeLineProtocol(o.Batch))
		case opWriteSamples:
			n, err = len(o.Batch), l.st.WriteSamples(o.Batch, 0)
		default:
			n, err = l.st.IngestParsed(o.Batch, 0, time.Now())
		}
		if err != nil || n != len(o.Batch) {
			return fmt.Errorf("stored %d of %d: %v", n, len(o.Batch), err)
		}
		l.m.add(o.Batch)
		return nil
	case opQueryRange, opScan:
		if o.Procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.Procs))
		}
		q := o.Q
		if o.Kind == opScan {
			return diffScan(l.st, l.m, q.Component, q.Metric, q.From, q.To)
		}
		got, err := l.st.QueryRange(context.Background(), q)
		if err != nil {
			return err
		}
		return diffResults(got, l.m.queryRange(q))
	case opCheckpoint:
		if err := l.st.Checkpoint(); err != nil {
			return err
		}
		l.m.checkpoint()
	case opCompact:
		if err := l.st.Compact(); err != nil {
			return err
		}
		l.m.compact()
	case opClose:
		err := l.st.Close()
		l.m.checkpoint()
		if err != nil {
			return err
		}
		if err := l.open(o.Shards); err != nil {
			return err
		}
	case opCrash:
		if err := l.open(o.Shards); err != nil {
			return err
		}
	}
	// After a lifecycle op, check every series' whole storage order.
	return diffScan(l.st, l.m, "*", "*", math.MinInt64, math.MaxInt64)
}

// diffCounters compares the store's cheap summaries with the model's:
// points held, both high-water marks, block count and the catalog's
// keys.
func (l *storeLife) diffCounters() error {
	st := l.st.Stats()
	if want := l.m.points(); st.Points != want {
		return fmt.Errorf("Stats().Points = %d, want %d", st.Points, want)
	}
	if got, want := l.st.MaxTime(), l.m.maxTime(); got != want {
		return fmt.Errorf("MaxTime = %d, want %d", got, want)
	}
	if got, want := l.st.AppMaxTime(), l.m.appMaxTime(); got != want {
		return fmt.Errorf("AppMaxTime = %d, want %d", got, want)
	}
	if got, want := l.st.BlockCount(), len(l.m.blocks); got != want {
		return fmt.Errorf("BlockCount = %d, want %d", got, want)
	}
	got := l.st.catalogKeys()
	if want := l.m.keys(); st.Series != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("catalog %v (Stats().Series %d), want %v", got, st.Series, want)
	}
	return nil
}

// diffScan compares a storage-order read with the model: the keys the
// globs select from the catalog, and each series' points as scanSeries
// streams them into a rawSink, unsorted. The series are read
// concurrently, as QueryRange's fan-out reads them.
func diffScan(st *Sharded, m *storeModel, componentGlob, metricGlob string, from, to int64) error {
	keys := RangeQuery{Component: componentGlob, Metric: metricGlob}.matchKeys(st.catalogKeys())
	want := m.matchKeys(componentGlob, metricGlob)
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		return fmt.Errorf("scan(%s, %s) keys %v, want %v", componentGlob, metricGlob, keys, want)
	}
	got := make([]rawSink, len(keys))
	err := parallel.ForEach(context.Background(), 0, len(keys), func(_ context.Context, i int) error {
		return st.scanSeries(keys[i], from, to, &got[i])
	})
	if err != nil {
		return err
	}
	for i, key := range want {
		if err := diffPoints(got[i].pts, m.stream(key, from, to)); err != nil {
			return fmt.Errorf("scan %s [%d, %d): %w", key, from, to, err)
		}
	}
	return nil
}

// storeGen draws one life. Series are born, scraped on a 30 s clock and
// retired; writes also land late, repeat timestamps, carry NaN, and
// arrive as dense bursts long enough to seal chunks in memory. Self-
// telemetry lands under ReservedComponent stamped a day ahead of the
// clock, as a wall clock runs ahead of replayed application data.
type storeGen struct {
	rng         *rand.Rand
	retentionMS int64
	live        []string // keys scraped every tick
	born        []string // every key ever born: reads and late writes name them
	clock       int64
	stamps      []int64 // every timestamp written: reads put range edges on them
	// The application timestamps retention ages by: the newest written,
	// the newest since the last checkpoint (MinInt64 for none), and the
	// newest of each checkpoint, on which retention horizons land.
	newest   int64
	unsealed int64
	sealed   []int64
}

// genSkewMS is how far ahead of the clock self-telemetry is stamped.
const genSkewMS = 24 * 3_600_000

const genTickMS = 30_000

func genScript(seed int64, n int) storeScript {
	g := &storeGen{rng: rand.New(rand.NewSource(seed)), unsealed: math.MinInt64}
	for i := 0; i < 4; i++ {
		g.birth()
	}
	s := storeScript{
		name:        fmt.Sprintf("seed=%d", seed),
		shards:      g.shards(),
		fsync:       FsyncNever,
		retentionMS: []int64{0, 0, 30 * 60_000, 2 * 3_600_000}[g.rng.Intn(4)],
	}
	g.retentionMS = s.retentionMS
	for len(s.ops) < n {
		s.ops = append(s.ops, g.op())
	}
	return s
}

func (g *storeGen) pick(weights ...int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := g.rng.Intn(total)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	panic("unreachable")
}

func (g *storeGen) shards() int { return []int{0, 1, 2, 3, 4, 7}[g.rng.Intn(6)] }

// birth adds a series to the scraped set. Keys spread over three
// component families and two metrics, so globs select real subsets.
func (g *storeGen) birth() {
	b := len(g.born)
	key := fmt.Sprintf("%s-%d/%s", []string{"web", "db", "cache"}[b%3], b/6, []string{"cpu", "mem"}[(b/3)%2])
	g.born = append(g.born, key)
	g.live = append(g.live, key)
}

func (g *storeGen) op() op {
	switch g.pick(45, 25, 5, 6, 9, 5, 2, 3) {
	case 0:
		return g.write()
	case 1:
		return op{Kind: opQueryRange, Q: g.query(true), Procs: g.procs()}
	case 2:
		return op{Kind: opScan, Q: g.query(false), Procs: g.procs()}
	case 3: // an exact read: one series' own names as the globs
		q := g.query(false)
		q.Component, q.Metric = splitKey(g.born[g.rng.Intn(len(g.born))])
		if g.rng.Intn(8) == 0 {
			q.Component = "absent"
		}
		return op{Kind: opQueryRange, Q: q, Procs: g.procs()}
	case 4:
		g.seal()
		return op{Kind: opCheckpoint}
	case 5:
		return op{Kind: opCompact}
	case 6:
		g.seal()
		return op{Kind: opClose, Shards: g.shards()}
	}
	return op{Kind: opCrash, Shards: g.shards()}
}

func (g *storeGen) seal() {
	if g.unsealed != math.MinInt64 {
		g.sealed = append(g.sealed, g.unsealed)
		g.unsealed = math.MinInt64
	}
}

func (g *storeGen) procs() int { return []int{1, 0}[g.rng.Intn(2)] }

func (g *storeGen) sample(key string, t int64) Sample {
	c, m := splitKey(key)
	return Sample{Component: c, Metric: m, T: t, V: math.Round(g.rng.NormFloat64()*1e6) / 1e3}
}

func (g *storeGen) write() op {
	if g.rng.Intn(10) == 0 {
		if g.rng.Intn(2) == 0 && len(g.live) > 1 {
			i := g.rng.Intn(len(g.live))
			g.live = append(g.live[:i], g.live[i+1:]...)
		} else {
			g.birth()
		}
	}
	var batch []Sample
	switch g.pick(50, 20, 10, 15, 5, 5) {
	case 0: // scrape every live series for 1-10 ticks
		for n := 1 + g.rng.Intn(10); n > 0; n-- {
			for i, key := range g.live {
				batch = append(batch, g.sample(key, g.clock+int64(i*37%1000)))
			}
			g.clock += genTickMS
		}
	case 1: // late points, up to 3 h behind the clock
		for n := 1 + g.rng.Intn(30); n > 0; n-- {
			batch = append(batch, g.sample(g.born[g.rng.Intn(len(g.born))], g.clock-1-g.rng.Int63n(3*3_600_000)))
		}
	case 2: // timestamps repeated from the clock's recent past
		for n := 1 + g.rng.Intn(20); n > 0; n-- {
			t := g.clock - genTickMS*g.rng.Int63n(20)
			batch = append(batch, g.sample(g.live[g.rng.Intn(len(g.live))], t-t%genTickMS))
		}
	case 3: // a dense burst on one series, maybe newest first
		key := g.born[g.rng.Intn(len(g.born))]
		start, dt := g.clock-g.rng.Int63n(2*3_600_000), []int64{1, 10, 1000}[g.rng.Intn(3)]
		for i := 100 + g.rng.Intn(1100); i > 0; i-- {
			batch = append(batch, g.sample(key, start+int64(i)*dt))
		}
		if g.rng.Intn(2) == 0 {
			for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
				batch[i], batch[j] = batch[j], batch[i]
			}
		}
	case 4: // the clock jumps 20-90 minutes ahead, or to exactly R past a checkpoint's newest point
		g.clock += (20 + g.rng.Int63n(70)) * 60_000
		if g.retentionMS > 0 && len(g.sealed) > 0 {
			if t := g.sealed[g.rng.Intn(len(g.sealed))] + g.retentionMS; t > g.newest {
				g.clock = t
			}
		}
		batch = append(batch, g.sample(g.live[g.rng.Intn(len(g.live))], g.clock))
	default: // a self-scrape: reserved series stamped ahead of application time
		for _, metric := range []string{"selfscrape_total", "store_points"} {
			batch = append(batch, g.sample(ReservedComponent+"/"+metric, g.clock+genSkewMS))
		}
	}
	for i := 0; i+1 < len(batch); i++ {
		if g.rng.Intn(10) == 0 {
			batch[i], batch[i+1] = batch[i+1], batch[i]
		}
	}
	kind := []opKind{opWrite, opWriteSamples, opIngestParsed}[g.rng.Intn(3)]
	if kind != opWrite && g.rng.Intn(5) == 0 {
		// NaN anywhere, or on the earliest point, which seeds a chunk's
		// summary when the batch seals one.
		first := 0
		for i := range batch {
			if batch[i].T < batch[first].T {
				first = i
			}
		}
		batch[first].V = math.NaN()
		for n := g.rng.Intn(3); n > 0; n-- {
			batch[g.rng.Intn(len(batch))].V = math.NaN()
		}
	}
	for _, smp := range batch {
		g.stamps = append(g.stamps, smp.T)
		if smp.Component != ReservedComponent {
			g.newest, g.unsealed = max(g.newest, smp.T), max(g.unsealed, smp.T)
		}
	}
	return op{Kind: kind, Batch: batch}
}

// query draws globs, a range (sometimes grid-aligned, so downsampled
// companions can serve it) and, if agg, an aggregation and step.
func (g *storeGen) query(agg bool) RangeQuery {
	q := RangeQuery{
		Component: []string{"*", "web*", "db-?", "*-1", "cache-0", "absent*"}[g.rng.Intn(6)],
		Metric:    []string{"*", "cpu", "m*", "?pu"}[g.rng.Intn(4)],
	}
	if agg {
		q.Agg = Agg(g.rng.Intn(int(AggRate) + 1))
	}
	if q.Agg != AggNone {
		q.StepMS = []int64{1, 997, 60_000, 300_000, 600_000, 3_600_000, 7_200_000, 1 << 40}[g.rng.Intn(8)]
	}
	switch g.rng.Intn(5) {
	case 0:
		q.From, q.To = math.MinInt64, math.MaxInt64
	case 1:
		q.From, q.To = 0, g.clock+1
	case 2: // edges on written points: recent ones still in memory, and where a block's last chunk ends
		if n := len(g.stamps); n > 0 {
			q.From, q.To = g.stamps[g.rng.Intn(n)], g.stamps[n-1-g.rng.Intn(min(n, 64))]
			if len(g.sealed) > 0 && g.rng.Intn(2) == 0 {
				q.From = g.sealed[g.rng.Intn(len(g.sealed))]
			}
			if q.From > q.To {
				q.From, q.To = q.To, q.From
			}
			break
		}
		fallthrough
	default:
		q.From = g.rng.Int63n(g.clock + 1)
		if g.rng.Intn(2) == 0 {
			q.From -= q.From % 3_600_000
		}
		q.To = q.From + g.rng.Int63n(g.clock+1)
	}
	return q
}

// shrink delta-debugs items to a 1-minimal sublist on which fails still
// holds: removing any one remaining element makes it pass. Only
// complements are tried, chunk by chunk, so the result is deterministic
// given items and fails.
func shrink[T any](items []T, fails func([]T) bool) []T {
	for n := 2; len(items) >= 2; {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for start := 0; start < len(items) && !reduced; start += chunk {
			rest := append(append([]T(nil), items[:start]...), items[min(start+chunk, len(items)):]...)
			if reduced = fails(rest); reduced {
				items, n = rest, max(n-1, 2)
			}
		}
		if !reduced {
			if chunk == 1 {
				break
			}
			n = min(2*n, len(items))
		}
	}
	return items
}

// shrinkScript shrinks a failing life: first its ops, then each write's
// batch, then the ops again.
func shrinkScript(root string, s storeScript) storeScript {
	fails := func(ops []op) bool {
		c := s
		c.ops = ops
		_, err := runScript(root, c)
		return err != nil
	}
	s.ops = shrink(s.ops, fails)
	for i := range s.ops {
		if len(s.ops[i].Batch) < 2 {
			continue
		}
		s.ops[i].Batch = shrink(s.ops[i].Batch, func(b []Sample) bool {
			ops := append([]op(nil), s.ops...)
			ops[i].Batch = b
			return fails(ops)
		})
	}
	s.ops = shrink(s.ops, fails)
	return s
}

// goLiteral prints a script as a storeRegressions row: each op in Go
// syntax, without the package qualifier, and NaN as the call that makes
// it.
func (s storeScript) goLiteral() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{name: %q, shards: %d, fsync: FsyncPolicy(%d), retentionMS: %d, ops: []op{\n", s.name, s.shards, s.fsync, s.retentionMS)
	for _, o := range s.ops {
		fmt.Fprintf(&b, "\t%#v,\n", o)
	}
	b.WriteString("}},")
	return strings.NewReplacer("tsdb.", "", ":NaN", ":math.NaN()").Replace(b.String())
}

// checkScript runs one life and, on a difference, reports it with the
// shrunk op list as a literal to add to storeRegressions.
func checkScript(t *testing.T, s storeScript) {
	t.Helper()
	root := t.TempDir()
	i, err := runScript(root, s)
	if err == nil {
		return
	}
	small := shrinkScript(root, s)
	_, smallErr := runScript(root, small)
	t.Fatalf("%s: op %d of %d: %v\nshrunk to %d ops: %v\n%s",
		s.name, i, len(s.ops), err, len(small.ops), smallErr, small.goLiteral())
}

// playScript runs a hand-written life and reports its first difference
// as is: its fixtures are too large to shrink quickly.
func playScript(t *testing.T, s storeScript) {
	t.Helper()
	if i, err := runScript(t.TempDir(), s); err != nil {
		t.Fatalf("%s: op %d of %d: %v", s.name, i, len(s.ops), err)
	}
}

// TestStoreModelGenerated plays generated lives against the model. The
// budget is testing.Short's alone: a few seeds of a few hundred ops in
// tier-1, more of both otherwise.
func TestStoreModelGenerated(t *testing.T) {
	seeds, ops := 5, 300
	if testing.Short() {
		seeds, ops = 3, 250
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := genScript(seed, ops)
		t.Run(s.name, func(t *testing.T) { checkScript(t, s) })
	}
}

// storeRegressions are the historical store bugs written as op
// sequences, and every sequence the generator has shrunk.
var storeRegressions = []storeScript{
	// Replay routes by the current hash: a hard stop with data in the
	// WAL, then fewer shards (the directories beyond the count still
	// replay) and more shards than ever existed.
	{name: "reshard live WAL", shards: 4, fsync: FsyncNever, ops: []op{
		{Kind: opWrite, Batch: reshardBatch(0)},
		{Kind: opCrash, Shards: 2},
		{Kind: opCheckpoint},
		{Kind: opWrite, Batch: reshardBatch(500)},
		{Kind: opCrash, Shards: 8},
	}},
	// Every life at shards=0 (GOMAXPROCS): compared with the raw 0, every
	// live directory looked stale, and the checkpoint deleted them out
	// from under their writers.
	{name: "default shards restart", shards: 0, fsync: FsyncNever, ops: []op{
		{Kind: opWrite, Batch: reshardBatch(0)},
		{Kind: opCrash},
		{Kind: opCheckpoint},
		{Kind: opWrite, Batch: reshardBatch(500)},
		{Kind: opCrash},
	}},
	// A late write behind the tail after a checkpoint: the aggregator
	// opens buckets behind the ones the block filled.
	{name: "late write behind tail", shards: 1, fsync: FsyncNever, ops: []op{
		{Kind: opWrite, Batch: []Sample{{"late", "m", 0, 3}, {"late", "m", 100, 1}, {"late", "m", 200, 4}, {"late", "m", 300, 1}, {"late", "m", 400, 5}, {"late", "m", 500, 9}}},
		{Kind: opCheckpoint},
		{Kind: opWrite, Batch: []Sample{{"late", "m", 5, -1}, {"late", "m", 250, -2}, {"late", "m", 250, 7}}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 600, AggMin, 100}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 600, AggMax, 100}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 600, AggAvg, 100}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 600, AggSum, 200}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 600, AggCount, 100}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 600, AggRate, 300}},
	}},
	// A merged block ages as one unit: its points leave Stats().Points
	// exactly once, and the accounting survives a reopen.
	{name: "merged block retention", shards: 2, fsync: FsyncNever, retentionMS: 200_000, ops: []op{
		{Kind: opWrite, Batch: []Sample{{"svc", "m0", 0, 1}, {"svc", "m1", 400, 2}}},
		{Kind: opCheckpoint},
		{Kind: opWrite, Batch: []Sample{{"svc", "m0", 10_000, 3}, {"svc", "m2", 10_400, 4}}},
		{Kind: opCheckpoint},
		{Kind: opCompact},
		{Kind: opWrite, Batch: []Sample{{"svc", "m0", 400_000, 5}}},
		{Kind: opCheckpoint},
		{Kind: opClose, Shards: 2},
	}},
	// Found by the generator: a series replayed from one directory after
	// a reshard appended to another, and the next replay, which goes by
	// directory index, put the newer record first.
	{name: "reshard replay order", shards: 4, fsync: FsyncNever, ops: []op{
		{Kind: opWrite, Batch: []Sample{{"web-1", "cpu", 29850037, -346.484}}},
		{Kind: opCrash, Shards: 2},
		{Kind: opWrite, Batch: []Sample{{"web-1", "cpu", 34320037, 188.27}}},
		{Kind: opCrash, Shards: 1},
	}},
	// Found by the generator: a shrink retired directory 1 with a cut
	// covering every segment it could ever hold; a later, wider life
	// wrote into directory 1 again and the next open pruned it all.
	{name: "retired dir reused", shards: 2, fsync: FsyncNever, ops: []op{
		{Kind: opWrite, Batch: reshardBatch(0)},
		{Kind: opCrash, Shards: 1},
		{Kind: opWrite, Batch: []Sample{{"web-1", "cpu", 2052976, -1004.694}}},
		{Kind: opClose, Shards: 7},
		{Kind: opWrite, Batch: reshardBatch(1302579)},
		{Kind: opCrash, Shards: 2},
	}},
	// A memory chunk whose first point is NaN joins a bucket an earlier
	// chunk opened: its summary's min and max are that NaN, which loses
	// every comparison, so push-down would drop the chunk's real extrema.
	// NaN anywhere in a chunk must keep it decoding.
	{name: "NaN-first memory chunk in an open bucket", shards: 1, fsync: FsyncNever, ops: []op{
		{Kind: opWriteSamples, Batch: chunkOf(0, func(int) float64 { return 0.5 })},
		{Kind: opWriteSamples, Batch: chunkOf(blockSize, func(i int) float64 {
			if i == 0 {
				return math.NaN()
			}
			return float64(i * (i%2*2 - 1)) // -2, 3, -4, ...: both extrema past 0.5
		})},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 2 * blockSize, AggMin, 2 * blockSize}},
		{Kind: opQueryRange, Q: RangeQuery{"*", "*", 0, 2 * blockSize, AggMax, 2 * blockSize}},
	}},
	// Found by the generator with retention aged by MaxTime: one
	// self-telemetry sample stamped a day ahead expired the application
	// block behind it. Retention ages by AppMaxTime.
	{name: "reserved stamp ahead of application time", shards: 7, fsync: FsyncNever, retentionMS: 7_200_000, ops: []op{
		{Kind: opWriteSamples, Batch: []Sample{{"db-0", "mem", 45990481, -12.023}}},
		{Kind: opCheckpoint},
		{Kind: opWrite, Batch: []Sample{{"sieve", "store_points", 132870407, -579.154}}},
		{Kind: opCheckpoint},
	}},
	// The application mark comes back at every open, from the block
	// indexes and the WAL replay, past reserved stamps on both sides: a
	// hard stop, a close at a new shard count, a merge, another hard stop.
	{name: "application mark across restarts", shards: 2, fsync: FsyncNever, retentionMS: 3_600_000, ops: []op{
		{Kind: opWrite, Batch: []Sample{{"web-0", "cpu", 1_000, 1}, {"sieve", "store_points", 90_000_000, 2}}},
		{Kind: opCheckpoint},
		{Kind: opWrite, Batch: []Sample{{"sieve", "store_points", 90_030_000, 3}, {"web-0", "cpu", 2_000, 4}}},
		{Kind: opCrash, Shards: 2},
		{Kind: opClose, Shards: 3},
		{Kind: opCompact},
		{Kind: opCrash, Shards: 1},
	}},
}

// chunkOf is blockSize points of n/m from t, which the shard seals into
// one memory chunk; v gives the i-th point's value.
func chunkOf(t int64, v func(i int) float64) []Sample {
	out := make([]Sample, blockSize)
	for i := range out {
		out[i] = Sample{Component: "n", Metric: "m", T: t + int64(i), V: v(i)}
	}
	return out
}

// reshardBatch is one sample at t for each of eight series, enough for
// every shard count the rows use to spread them over several shards.
func reshardBatch(t int64) []Sample {
	var out []Sample
	for i := 0; i < 8; i++ {
		out = append(out, Sample{Component: fmt.Sprintf("comp-%02d", i), Metric: "m", T: t + int64(i), V: float64(i) + float64(t)/1000})
	}
	return out
}

func TestStoreModelRegressions(t *testing.T) {
	for _, s := range storeRegressions {
		t.Run(s.name, func(t *testing.T) { checkScript(t, s) })
	}
}

// TestStoreModelShrinkerOneMinimal pins the shrinker on a synthetic
// predicate: from a seeded list it must find exactly the three elements
// the predicate needs, in order, and the same result on every run.
func TestStoreModelShrinkerOneMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := rng.Perm(300)
	need := map[int]bool{items[17]: true, items[150]: true, items[299]: true}
	runs := 0
	fails := func(xs []int) bool {
		runs++
		n := 0
		for _, x := range xs {
			if need[x] {
				n++
			}
		}
		return n == len(need)
	}
	got := shrink(items, fails)
	first := runs
	if want := []int{items[17], items[150], items[299]}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shrink = %v, want %v", got, want)
	}
	for i := range got {
		if fails(append(append([]int(nil), got[:i]...), got[i+1:]...)) {
			t.Fatalf("shrink = %v is not 1-minimal: still fails without %d", got, got[i])
		}
	}
	runs = 0
	if again := shrink(items, fails); fmt.Sprint(again) != fmt.Sprint(got) || runs != first {
		t.Fatalf("second shrink = %v after %d runs, first %v after %d", again, runs, got, first)
	}
}
