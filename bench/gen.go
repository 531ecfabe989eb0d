package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/sieve-microservices/sieve/internal/snappy"
)

// Scrape geometry shared by ingest and dashboard: one batch is one
// scrape of one target at one timestamp.
const (
	scrapeIntervalMS = 15_000
	ingestComponents = 64 // per target
	ingestMetrics    = 8  // per component
	ingestTargets    = 8  // per writer
	batchSamples     = ingestComponents * ingestMetrics
	churnEvery       = 50 // every 50th batch renames one component
)

// subSeed derives an independent generator seed from the run seed and a
// stream label, so adding a stream never shifts the others.
func subSeed(seed int64, stream string) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001B3
	}
	return int64(h >> 1)
}

// series is one generated time series: its identity pre-encoded for both
// wire formats, and the state of its value process.
type series struct {
	linePrefix []byte // "<component>,metric=<name> value="
	protoLabel []byte // the TimeSeries' encoded labels (field 1, repeated)
	counter    bool
	v          int64 // value in hundredths: cheap to step and to print
}

// target is one scrape target: 64 components × 8 metrics and its own
// clock, advanced by the scrape interval on every visit.
type target struct {
	name   string
	comps  []string
	gen    []int // rename generation per component
	series []series
	nowMS  int64
}

// batchGen produces one writer's deterministic batch stream: it rotates
// over its targets, advances the visited target's clock and values, and
// every churnEvery-th batch renames one component (deploy churn: eight
// series die, eight are born). encode leaves the payload in buf, which
// the next call reuses — the request is sent before the next encode.
type batchGen struct {
	rng     *rand.Rand
	remote  bool
	targets []*target
	batches int
	buf     []byte
	plain   []byte
}

func metricName(m int) string { return "metric_" + strconv.Itoa(100 + m)[1:] }

func newBatchGen(seed int64, writer int, remote bool) *batchGen {
	g := &batchGen{
		rng:    rand.New(rand.NewSource(subSeed(seed, "ingest-writer-"+strconv.Itoa(writer)))),
		remote: remote,
	}
	for t := 0; t < ingestTargets; t++ {
		tg := &target{name: fmt.Sprintf("w%d-t%d", writer, t), nowMS: scrapeIntervalMS}
		for c := 0; c < ingestComponents; c++ {
			tg.comps = append(tg.comps, fmt.Sprintf("%s-comp-%02d", tg.name, c))
		}
		tg.gen = make([]int, ingestComponents)
		tg.series = make([]series, batchSamples)
		for c := range tg.comps {
			g.nameComponent(tg, c)
		}
		for i := range tg.series {
			tg.series[i].counter = i%2 == 1
			tg.series[i].v = g.rng.Int63n(100_000)
		}
		g.targets = append(g.targets, tg)
	}
	return g
}

// nameComponent (re)encodes the identities of component c's series under
// its current rename generation.
func (g *batchGen) nameComponent(tg *target, c int) {
	comp := tg.comps[c]
	if tg.gen[c] > 0 {
		comp += "-g" + strconv.Itoa(tg.gen[c])
	}
	for m := 0; m < ingestMetrics; m++ {
		s := &tg.series[c*ingestMetrics+m]
		name := metricName(m)
		s.linePrefix = append(s.linePrefix[:0], comp+",metric="+name+" value="...)
		s.protoLabel = s.protoLabel[:0]
		for _, l := range [][2]string{{"__name__", name}, {"job", comp}} {
			var lb []byte
			lb = appendProtoBytes(lb, 1, []byte(l[0]))
			lb = appendProtoBytes(lb, 2, []byte(l[1]))
			s.protoLabel = appendProtoBytes(s.protoLabel, 1, lb)
		}
	}
}

func appendProtoBytes(dst []byte, field int, msg []byte) []byte {
	dst = append(dst, byte(field<<3|2))
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// next encodes the writer's next batch and returns the payload and the
// number of samples in it.
func (g *batchGen) next() ([]byte, int) {
	tg := g.targets[g.batches%len(g.targets)]
	g.batches++
	if g.batches%churnEvery == 0 {
		c := g.rng.Intn(ingestComponents)
		tg.gen[c]++
		g.nameComponent(tg, c)
	}
	tg.nowMS += scrapeIntervalMS
	for i := range tg.series {
		s := &tg.series[i]
		if s.counter {
			s.v += g.rng.Int63n(64) * 100
		} else {
			s.v += g.rng.Int63n(601) - 300
		}
	}
	if g.remote {
		g.plain = g.plain[:0]
		var smp [20]byte
		for i := range tg.series {
			s := &tg.series[i]
			b := append(smp[:0], 1<<3|1)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(s.v)/100))
			b = append(b, 2<<3|0)
			b = binary.AppendUvarint(b, uint64(tg.nowMS))
			n := len(s.protoLabel) + 2 + len(b)
			g.plain = append(g.plain, 1<<3|2)
			g.plain = binary.AppendUvarint(g.plain, uint64(n))
			g.plain = append(g.plain, s.protoLabel...)
			g.plain = append(g.plain, 2<<3|2, byte(len(b)))
			g.plain = append(g.plain, b...)
		}
		g.buf = snappy.Encode(g.plain)
		return g.buf, len(tg.series)
	}
	g.buf = g.buf[:0]
	for i := range tg.series {
		s := &tg.series[i]
		g.buf = append(g.buf, s.linePrefix...)
		g.buf = appendHundredths(g.buf, s.v)
		g.buf = append(g.buf, ' ')
		g.buf = strconv.AppendInt(g.buf, tg.nowMS, 10)
		g.buf = append(g.buf, '\n')
	}
	return g.buf, len(tg.series)
}

// appendHundredths prints v/100 as a decimal: what strconv.AppendFloat
// would, at a fraction of the cost, which keeps the generator's share of
// the client loop small.
func appendHundredths(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	dst = strconv.AppendInt(dst, v/100, 10)
	if frac := v % 100; frac != 0 {
		dst = append(dst, '.', byte('0'+frac/10), byte('0'+frac%10))
	}
	return dst
}
