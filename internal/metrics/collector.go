package metrics

import (
	"errors"
	"time"

	"github.com/sieve-microservices/sieve/internal/tsdb"
)

// Collector scrapes a set of registries and ships the readings to a tsdb
// writer over the line-protocol wire format, mirroring the paper's
// Telegraf -> InfluxDB pipeline. The writer can be an in-process store
// (tsdb.Sharded) or the sieved HTTP client, so the same
// collector drives both the offline pipeline and a remote server. An
// optional allowlist restricts which series are shipped; Sieve installs
// its representative-metric set here to realize the Table 3 overhead
// reduction.
type Collector struct {
	targets []*Registry
	db      tsdb.Writer
	// allow, when non-nil, keeps only listed "component/metric" keys.
	allow map[string]bool

	scrapeCPU time.Duration
	bytesOut  int
	scrapes   int
}

// NewCollector creates a collector shipping to db.
func NewCollector(db tsdb.Writer, targets ...*Registry) (*Collector, error) {
	if db == nil {
		return nil, errors.New("metrics: nil db")
	}
	return &Collector{targets: targets, db: db}, nil
}

// SetAllowlist restricts future scrapes to the given component/metric
// keys (formatted "component/metric"). Passing nil removes the filter.
func (c *Collector) SetAllowlist(keys []string) {
	if keys == nil {
		c.allow = nil
		return
	}
	c.allow = make(map[string]bool, len(keys))
	for _, k := range keys {
		c.allow[k] = true
	}
}

// ScrapeOnce reads every target registry at the given (simulated)
// timestamp, encodes the readings, and writes them to the store. It
// returns the number of samples shipped. Encode time is attributed to the
// collector, parse/store time to the DB.
func (c *Collector) ScrapeOnce(nowMS int64) (int, error) {
	start := time.Now()
	var samples []tsdb.Sample
	for _, r := range c.targets {
		for _, reading := range r.Snapshot() {
			s := tsdb.Sample{
				Component: reading.Component,
				Metric:    reading.Metric,
				T:         nowMS,
				V:         reading.Value,
			}
			if c.allow != nil && !c.allow[s.Key()] {
				continue
			}
			samples = append(samples, s)
		}
	}
	payload := tsdb.EncodeLineProtocol(samples)
	c.scrapeCPU += time.Since(start)
	c.bytesOut += len(payload)
	c.scrapes++

	// A scrape can legitimately yield nothing (an allowlist matching no
	// current series); skip the wire round-trip rather than ship an
	// empty payload remote writers reject.
	if len(samples) == 0 {
		return 0, nil
	}
	n, err := c.db.Write(payload)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// CollectorStats summarizes the collector side of the pipeline.
type CollectorStats struct {
	// Scrapes is the number of completed scrape rounds.
	Scrapes int
	// BytesSent counts line-protocol bytes shipped to the store.
	BytesSent int
	// EncodeCPU is the cumulative wall time spent snapshotting and
	// encoding.
	EncodeCPU time.Duration
}

// Stats returns a snapshot of the collector counters.
func (c *Collector) Stats() CollectorStats {
	return CollectorStats{Scrapes: c.scrapes, BytesSent: c.bytesOut, EncodeCPU: c.scrapeCPU}
}
