package tsdb

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/sieve-microservices/sieve/internal/parallel"
)

// This file is the read-side query engine (the counterpart of the
// durable write-side engine in wal.go/block.go/durable.go): matcher
// queries over many series at once, aggregation push-down computed
// during decode iteration, and the chunk-skipping scan shared by every
// read path.
//
// The layers, bottom up:
//
//   - pointSink / scanChunkWith: a streaming decode loop over one Gorilla
//     chunk. Chunks are time-ordered, so the scan stops at the first
//     point past the range instead of decoding the remainder.
//   - summary: the facts of one run of points — a sealed chunk in memory
//     (memChunk) or on disk (chunkRef), a downsampled companion bucket, a
//     query bucket — built, folded, scrubbed and persisted one way. Reads
//     skip disjoint chunks on [MinT, MaxT] alone, and order-independent
//     aggregations (min/max/count/rate) consume the summaries that
//     aggregator.consumes admits without reading or decoding the points.
//   - aggregator: bucket accumulation for min/max/avg/sum/count/rate on
//     a step grid anchored at the query's From. Raw points never
//     materialize for aggregated queries — every source streams into
//     the accumulator.
//   - Sharded.scanSeries: the one read primitive. It streams one series
//     in canonical storage order — persisted blocks by sequence, the
//     checkpoint overlay, then shard memory — into a pointSink under that
//     series' own checkpoint-cut hold.
//   - QueryRange: the one read entry point — the keys the globs select
//     from the catalog plus a sink over scanSeries (rawSink or
//     aggregator) per key. It fans the matched series out across a
//     worker pool (internal/parallel) and merges in series-key order, so
//     output is identical at any shard count and worker count. An exact
//     read of one series is a QueryRange whose globs are its own names,
//     keeping the result with that exact key: a name holding '*' or '?'
//     can only widen the match, never lose it.

// Agg selects the aggregation a range query applies per step bucket.
// AggNone returns raw points.
type Agg uint8

const (
	// AggNone returns raw points (no bucketing).
	AggNone Agg = iota
	// AggMin is the per-bucket minimum value.
	AggMin
	// AggMax is the per-bucket maximum value.
	AggMax
	// AggAvg is the per-bucket arithmetic mean.
	AggAvg
	// AggSum is the per-bucket sum.
	AggSum
	// AggCount is the per-bucket point count.
	AggCount
	// AggRate is the per-bucket per-second rate of change: (last value -
	// first value) / (last T - first T), scaled to seconds. Buckets whose
	// points share one timestamp are omitted (no defined rate).
	AggRate
)

// ParseAgg parses an aggregation name as used by the /query_range `agg`
// parameter. "" and "raw" mean AggNone.
func ParseAgg(s string) (Agg, error) {
	switch s {
	case "", "raw", "none":
		return AggNone, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "avg":
		return AggAvg, nil
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "rate":
		return AggRate, nil
	}
	return AggNone, fmt.Errorf("tsdb: unknown aggregation %q (want min, max, avg, sum, count, rate, or raw)", s)
}

// String returns the wire name of the aggregation ("raw" for AggNone).
func (a Agg) String() string {
	switch a {
	case AggNone:
		return "raw"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggRate:
		return "rate"
	}
	return fmt.Sprintf("agg(%d)", uint8(a))
}

// RangeQuery is one query-engine request: every series whose component
// and metric match the globs, restricted to T in [From, To), either raw
// (Agg == AggNone) or aggregated per StepMS bucket. Globs support '*'
// (any run) and '?' (any byte); "*"/"*" matches every series.
type RangeQuery struct {
	// Component and Metric are glob patterns over the two halves of the
	// series key.
	Component string
	Metric    string
	// From and To bound the time range: [From, To) in milliseconds.
	From, To int64
	// Agg selects the aggregation; AggNone returns raw points.
	Agg Agg
	// StepMS is the aggregation bucket width in milliseconds, anchored at
	// From (bucket i covers [From+i*StepMS, From+(i+1)*StepMS)). Required
	// (> 0) when Agg is set, and must be 0 when Agg is AggNone.
	StepMS int64
}

// Validate checks the query's internal consistency.
func (q RangeQuery) Validate() error {
	if q.From > q.To {
		return fmt.Errorf("tsdb: query range [%d, %d) is inverted", q.From, q.To)
	}
	if q.Agg > AggRate {
		return fmt.Errorf("tsdb: invalid aggregation %d", uint8(q.Agg))
	}
	if q.Agg == AggNone && q.StepMS != 0 {
		return errors.New("tsdb: step requires an aggregation function")
	}
	if q.Agg != AggNone && q.StepMS <= 0 {
		return fmt.Errorf("tsdb: aggregation %s requires step > 0, got %d", q.Agg, q.StepMS)
	}
	return nil
}

// ParseRangeQuery builds a RangeQuery from the /query_range parameter
// strings. Empty component/metric default to "*" (match everything),
// empty from to 0, empty to to defaultTo (callers pass the store's
// MaxTime()+1 so the default range covers everything ingested), or to
// from when that lies past defaultTo: a range the client did not bound
// above is empty there, never inverted. The returned query is validated.
func ParseRangeQuery(component, metric, from, to, agg, step string, defaultTo int64) (RangeQuery, error) {
	q := RangeQuery{Component: component, Metric: metric, From: 0, To: defaultTo}
	if q.Component == "" {
		q.Component = "*"
	}
	if q.Metric == "" {
		q.Metric = "*"
	}
	var err error
	if from != "" {
		if q.From, err = strconv.ParseInt(from, 10, 64); err != nil {
			return q, fmt.Errorf("tsdb: bad from: %w", err)
		}
		q.To = max(q.To, q.From)
	}
	if to != "" {
		if q.To, err = strconv.ParseInt(to, 10, 64); err != nil {
			return q, fmt.Errorf("tsdb: bad to: %w", err)
		}
	}
	if q.Agg, err = ParseAgg(agg); err != nil {
		return q, err
	}
	if step != "" {
		if q.StepMS, err = strconv.ParseInt(step, 10, 64); err != nil {
			return q, fmt.Errorf("tsdb: bad step: %w", err)
		}
	}
	if err := q.Validate(); err != nil {
		return q, err
	}
	return q, nil
}

// SeriesResult is one matched series' answer: raw points, or one point
// per non-empty bucket (T = bucket start) for aggregated queries.
type SeriesResult struct {
	Component string  `json:"component"`
	Metric    string  `json:"metric"`
	Points    []Point `json:"points"`
}

// matchGlob reports whether s matches the glob pattern: '*' matches any
// (possibly empty) run of bytes, '?' any single byte, everything else
// itself. Iterative with single-star backtracking, so adversarial
// patterns stay linear-ish instead of exponential.
func matchGlob(pattern, s string) bool {
	pi, si := 0, 0
	starPi, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			starPi, starSi = pi, si
			pi++
		case starPi >= 0:
			pi = starPi + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// splitKey splits a series key at its first slash into component and
// metric (the convention of Sample.Key).
func splitKey(key string) (component, metric string) {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// matchKey applies the query's globs to a series key.
func (q RangeQuery) matchKey(key string) bool {
	component, metric := splitKey(key)
	return matchGlob(q.Component, component) && matchGlob(q.Metric, metric)
}

// summary describes one run of a series' points: a sealed chunk in
// memory (memChunk) or on disk (chunkRef), a downsampled companion bucket
// (block.ds), or a query bucket (aggregator). MinT and MaxT bound the
// run; FirstV is the value of the first point fed with MinT and LastV of
// the last point fed with MaxT — for a time-sorted chunk, its first and
// last points. NoSummary disqualifies the run from push-down (it always
// decodes): set for runs containing NaN — min/max over a sequence with
// NaN is order-dependent under comparison semantics (NaN never wins a
// comparison but poisons a seed), so no single summary value reproduces
// what decoding yields — and, by scrub, for any non-finite value, which
// JSON cannot carry. Only WriteSamples can ingest non-finite values; the
// line protocol rejects them.
//
// The JSON tags are the persisted field names of index.json, where
// chunkRef embeds a summary, and of the ds-<res>.json companions, whose
// buckets are summaries (appendSummaryJSON writes both).
type summary struct {
	Count     int     `json:"count"`
	MinT      int64   `json:"min_t"`
	MaxT      int64   `json:"max_t"`
	MinV      float64 `json:"min_v"`
	MaxV      float64 `json:"max_v"`
	FirstV    float64 `json:"first_v"`
	LastV     float64 `json:"last_v"`
	NoSummary bool    `json:"no_summary,omitempty"`
}

// seed returns the summary of the single point p.
func seed(p Point) summary {
	return summary{
		Count: 1, MinT: p.T, MaxT: p.T,
		MinV: p.V, MaxV: p.V, FirstV: p.V, LastV: p.V,
		NoSummary: p.V != p.V, // NaN
	}
}

// add folds in p, fed after every point s already holds. The extrema
// compare (no sentinels: NaN then behaves as in a naive fold); a strictly
// earlier timestamp displaces first and a greater-or-equal one displaces
// last, which is the order a stable sort by time gives the feed. Seeding
// stays in seed, keeping add within the inliner's budget.
func (s *summary) add(p Point) {
	s.Count++
	if p.V != p.V {
		s.NoSummary = true
	}
	if p.V < s.MinV {
		s.MinV = p.V
	}
	if p.V > s.MaxV {
		s.MaxV = p.V
	}
	if p.T < s.MinT {
		s.MinT, s.FirstV = p.T, p.V
	}
	if p.T >= s.MaxT {
		s.MaxT, s.LastV = p.T, p.V
	}
}

// merge folds in o, a run fed after every point s already holds, by
// add's rules.
func (s *summary) merge(o summary) {
	s.Count += o.Count
	s.NoSummary = s.NoSummary || o.NoSummary
	if o.MinV < s.MinV {
		s.MinV = o.MinV
	}
	if o.MaxV > s.MaxV {
		s.MaxV = o.MaxV
	}
	if o.MinT < s.MinT {
		s.MinT, s.FirstV = o.MinT, o.FirstV
	}
	if o.MaxT >= s.MaxT {
		s.MaxT, s.LastV = o.MaxT, o.LastV
	}
}

// scrub readies s for persisting: a summary that is flagged or holds a
// value JSON cannot carry is flagged, with its values zeroed.
func (s *summary) scrub() {
	if s.NoSummary || !isFinite(s.MinV) || !isFinite(s.MaxV) || !isFinite(s.FirstV) || !isFinite(s.LastV) {
		s.NoSummary = true
		s.MinV, s.MaxV, s.FirstV, s.LastV = 0, 0, 0, 0
	}
}

// summarizeChunk returns the summary of a non-empty run of points.
func summarizeChunk(pts []Point) summary {
	s := seed(pts[0])
	for _, p := range pts[1:] {
		s.add(p)
	}
	return s
}

// pointSink consumes a streamed scan. Besides single points it is
// offered two kinds of summary: a sealed chunk's, and one persisted
// block's downsampled companions for the scanned series. A sink consumes
// a summary in place of the points behind it (aggregation push-down), or
// declines it and receives those points through add instead.
type pointSink interface {
	add(Point)
	// consumes reports whether the sink takes s in place of its points. A
	// block scan asks before it reads, so a run of chunks the sink
	// declines leaves chunks.dat in one pread.
	consumes(s *summary) bool
	// chunk folds s in if consumes admits it, and reports whether it did.
	chunk(s *summary) bool
	// companion reports, when it consumes, how many companion buckets it
	// read (the downsampled-buckets counter).
	companion(b *block, key string) (buckets int, ok bool)
}

// rawSink collects raw points, declining every summary offer. A block
// scan grows pts once per run of chunks it decodes, by the run's point
// count.
type rawSink struct {
	pts []Point
}

func (r *rawSink) add(p Point) { r.pts = append(r.pts, p) }

func (*rawSink) consumes(*summary) bool { return false }

func (*rawSink) chunk(*summary) bool { return false }

func (*rawSink) companion(*block, string) (int, bool) { return 0, false }

// scanChunkWith streams a compressed chunk's points with T in [from, to)
// to sink through a caller-owned iterator, so loops over many chunks
// (series.scanRange, block scans) reset one stack-resident iterator
// instead of heap-allocating per chunk. The chunk is time-ordered, so the
// scan returns at the first point past `to` without decoding the rest.
func scanChunkWith(it *chunkIter, chunk []byte, from, to int64, sink pointSink) error {
	ok, err := it.reset(chunk)
	if err != nil || !ok {
		return err
	}
	for {
		ok, err := it.next()
		if err != nil {
			return err
		}
		if !ok || it.cur.T >= to {
			return nil
		}
		if it.cur.T >= from {
			sink.add(it.cur)
		}
	}
}

// bucket accumulates one step bucket (index idx on the grid): the
// summary of its points in feed order, plus their sum folded point by
// point.
type bucket struct {
	idx uint64
	sum float64
	summary
}

// aggregator buckets a storage-order point stream on the step grid
// anchored at from. It implements pointSink: whole in-bucket chunks are
// consumed from their summaries when the aggregation allows it (sum and
// avg always decode — a per-chunk subtotal would change float rounding,
// and results must be bit-identical to a naive point-by-point
// reference).
//
// Buckets are kept by value in the order they were opened. Storage order
// is time order for in-order ingest, so each new bucket lies past the
// tail and is appended: no allocation per bucket, no map, no sort. Only
// when a contribution lands behind the tail (late data after a
// checkpoint, a backfill, a jittered chunk) is the index from bucket to
// position built, once per scan; from then on every bucket goes through
// it and points sorts the buckets at the end.
type aggregator struct {
	agg      Agg
	from, to int64
	step     uint64
	pushdown bool
	buckets  []bucket
	// last is the position of the bucket the previous contribution landed
	// in: points arrive in time order within a chunk, so consecutive ones
	// almost always share a bucket. Without an index it is the tail.
	last  int
	index map[uint64]int
}

// reset readies the aggregator for a new scan under q, keeping the
// bucket slice's storage.
func (a *aggregator) reset(q RangeQuery) {
	*a = aggregator{
		agg:  q.Agg,
		from: q.From,
		to:   q.To,
		step: uint64(q.StepMS),
		// Order-independent facts come straight from chunk summaries;
		// sum/avg accumulate point by point to keep rounding identical to
		// the naive reference.
		pushdown: q.Agg == AggMin || q.Agg == AggMax || q.Agg == AggCount || q.Agg == AggRate,
		buckets:  a.buckets[:0],
	}
}

// bucketIdx maps a timestamp in [from, to) onto its bucket index. The
// subtraction runs unsigned: t >= from, so the wrapped difference is the
// exact mathematical distance even when int64 subtraction would
// overflow (from can be MinInt64 on an unbounded query).
func (a *aggregator) bucketIdx(t int64) uint64 {
	return (uint64(t) - uint64(a.from)) / a.step
}

// bucketStart inverts bucketIdx, again through unsigned arithmetic.
func (a *aggregator) bucketStart(idx uint64) int64 {
	return int64(uint64(a.from) + idx*a.step)
}

// lookup returns the bucket at idx, nil if nothing has landed there yet.
func (a *aggregator) lookup(idx uint64) *bucket {
	if len(a.buckets) == 0 {
		return nil
	}
	if b := &a.buckets[a.last]; b.idx == idx {
		return b
	}
	if a.index == nil {
		if idx > a.buckets[len(a.buckets)-1].idx {
			return nil // past the tail: the storage-order case
		}
		a.index = make(map[uint64]int, len(a.buckets))
		for i := range a.buckets {
			a.index[a.buckets[i].idx] = i
		}
	}
	i, ok := a.index[idx]
	if !ok {
		return nil
	}
	a.last = i
	return &a.buckets[i]
}

// open appends b, a bucket lookup found empty, with its first
// contribution.
func (a *aggregator) open(b bucket) {
	a.last = len(a.buckets)
	a.buckets = append(a.buckets, b)
	if a.index != nil {
		a.index[b.idx] = a.last
	}
}

func (a *aggregator) add(p Point) {
	idx := a.bucketIdx(p.T)
	if b := a.lookup(idx); b != nil {
		b.sum += p.V
		b.add(p)
		return
	}
	a.open(bucket{idx: idx, sum: p.V, summary: seed(p)})
}

// consumes is the one rule for which summaries stand for their points,
// whether a chunk's or a companion bucket's: the aggregation must be
// order-independent, and the summary must lie inside [from, to) (a run
// overlapping an end holds points the summary cannot split out), within
// one query bucket (a run straddling a boundary belongs to two) and not
// be flagged NoSummary.
func (a *aggregator) consumes(s *summary) bool {
	return a.pushdown && !s.NoSummary && s.MinT >= a.from && s.MaxT < a.to &&
		a.bucketIdx(s.MinT) == a.bucketIdx(s.MaxT)
}

func (a *aggregator) chunk(s *summary) bool {
	if !a.consumes(s) {
		return false
	}
	idx := a.bucketIdx(s.MinT)
	if b := a.lookup(idx); b != nil {
		b.merge(*s)
	} else {
		a.open(bucket{idx: idx, summary: *s})
	}
	return true
}

// points appends the non-empty buckets to out in time order: one point
// per bucket, T = bucket start. Rate buckets whose points share a single
// timestamp are omitted. Buckets opened in storage order are already in
// time order; only a scan that built the index sorts them.
func (a *aggregator) points(out []Point) []Point {
	if a.index != nil {
		slices.SortFunc(a.buckets, func(x, y bucket) int { return cmp.Compare(x.idx, y.idx) })
	}
	for i := range a.buckets {
		b := &a.buckets[i]
		var v float64
		switch a.agg {
		case AggMin:
			v = b.MinV
		case AggMax:
			v = b.MaxV
		case AggAvg:
			v = b.sum / float64(b.Count)
		case AggSum:
			v = b.sum
		case AggCount:
			v = float64(b.Count)
		case AggRate:
			if b.MaxT == b.MinT {
				continue
			}
			// Unsigned difference: exact even across a huge bucket.
			dtMS := uint64(b.MaxT) - uint64(b.MinT)
			v = (b.LastV - b.FirstV) * 1000 / float64(dtMS)
		}
		out = append(out, Point{T: a.bucketStart(b.idx), V: v})
	}
	return out
}

// matchKeys filters sorted series keys down to those the query matches,
// preserving their order. The input is not modified (Sharded passes its
// shared catalog).
func (q RangeQuery) matchKeys(sorted []string) []string {
	var keys []string
	for _, k := range sorted {
		if q.matchKey(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// compactResults drops empty series from a pre-sized result slice,
// preserving order.
func compactResults(results []SeriesResult) []SeriesResult {
	out := results[:0]
	for _, r := range results {
		if len(r.Points) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// scanSeries is the store's one read primitive: it streams the points of
// one series with T in [from, to) into sink in canonical storage order —
// persisted blocks by sequence number, the checkpoint overlay, then shard
// memory — which is arrival order, so a stable sort by T of the stream is
// the same before and after any checkpoint, compaction or restart. On a
// durable store the checkpoint-cut read lock is held for exactly this one
// series: it is read from one consistent side of any concurrent cut
// (never duplicated, never partially drained), while a wide fan-out over
// cold blocks cannot stall a pending checkpoint — and, through the
// RWMutex writer queue, every other reader — for its full duration. A key
// that is nowhere streams nothing; callers select keys from the catalog.
func (s *Sharded) scanSeries(key string, from, to int64, sink pointSink) error {
	if s.dur != nil {
		s.dur.cutMu.RLock()
		defer s.dur.cutMu.RUnlock()
		if err := s.dur.scanBlocks(key, from, to, sink); err != nil {
			return err
		}
	}
	return s.shards[s.shardIndex(key)].scan(key, from, to, sink)
}

// seriesScratch is one reader's reusable sink state: the point buffer a
// raw scan collects into (and an aggregated one materializes into), and
// the aggregator with its buckets. Both are truncated between series, so
// a fan-out worker allocates them once however many series it answers.
type seriesScratch struct {
	raw rawSink
	agg aggregator
}

// evalSeries answers a query for one series: raw points stably sorted by
// time (equal timestamps keep arrival order), or one point per non-empty
// step bucket — aggregated queries never materialize raw points. The
// answer lives in sc until its next use. The response size is charged to
// network-out once, here: 16 bytes per returned point (timestamp +
// float64).
func (s *Sharded) evalSeries(key string, q RangeQuery, sc *seriesScratch) ([]Point, error) {
	sc.raw.pts = sc.raw.pts[:0]
	if q.Agg == AggNone {
		if err := s.scanSeries(key, q.From, q.To, &sc.raw); err != nil {
			return nil, err
		}
		// Storage order is time order for in-order ingest, and a stable
		// sort of sorted input is the identity: check before sorting.
		byTime := func(a, b Point) int { return cmp.Compare(a.T, b.T) }
		if !slices.IsSortedFunc(sc.raw.pts, byTime) {
			slices.SortStableFunc(sc.raw.pts, byTime)
		}
	} else {
		sc.agg.reset(q)
		if err := s.scanSeries(key, q.From, q.To, &sc.agg); err != nil {
			return nil, err
		}
		sc.raw.pts = sc.agg.points(sc.raw.pts)
	}
	s.netOut.Add(16 * int64(len(sc.raw.pts)))
	return sc.raw.pts, nil
}

// QueryRange evaluates a matcher/aggregation query: the matched series
// are fanned out across a worker pool and merged in series-key order, so
// the result is identical at any shard count and worker count
// (runtime.GOMAXPROCS(0) workers, each with its own seriesScratch; a
// series' answer leaves it as one exact-size copy). Series with no
// points in the range are omitted.
//
// Each series is read under its own checkpoint-cut hold (see scanSeries),
// not one hold across the fan-out. Against the cut itself that costs no
// observable consistency: a cut only moves points between memory and
// blocks, and reads are byte-identical on either side (pinned by the
// store model's checks), so a result mixing pre- and post-cut series equals
// the all-pre and all-post results. It is not a snapshot against
// anything else: ingest racing the fan-out may reach some series and not
// others, and with RetentionMS set a checkpoint may drop expired blocks
// midway, so a single response can reflect different history depths
// across series (a series that vanishes that way is simply omitted).
// Per-query atomicity is not part of the contract — the standalone
// single-lock store that offered it is gone.
func (s *Sharded) QueryRange(ctx context.Context, q RangeQuery) ([]SeriesResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	keys := q.matchKeys(s.catalogKeys())
	results := make([]SeriesResult, len(keys))
	workers := parallel.Workers(0)
	scratch := make([]seriesScratch, workers)
	err := parallel.ForEachWorker(ctx, workers, len(keys), func(_ context.Context, w, i int) error {
		pts, err := s.evalSeries(keys[i], q, &scratch[w])
		if err != nil {
			return err
		}
		component, metric := splitKey(keys[i])
		results[i] = SeriesResult{Component: component, Metric: metric, Points: slices.Clone(pts)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return compactResults(results), nil
}
