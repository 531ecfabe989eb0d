package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parse of sieved's /metrics exposition: every unlabeled
// sample line (counters, gauges, and histograms' _sum/_count). Bucket
// lines are skipped: the layer table needs busy time and counts, and the
// percentiles come from the client side, where every sample is kept.
type scrape map[string]float64

// parseScrape reads Prometheus text exposition 0.0.4.
func parseScrape(data []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.IndexByte(line, '{') >= 0 {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("bench: malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bench: /metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta returns after−before per name: the work sieved's own instruments
// attribute to the measured phase. Names absent before count from zero.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}
