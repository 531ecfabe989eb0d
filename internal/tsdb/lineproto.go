package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sample is one metric observation on the wire.
type Sample struct {
	// Component is the emitting microservice component.
	Component string
	// Metric is the metric name within the component.
	Metric string
	// T is the timestamp in milliseconds.
	T int64
	// V is the value.
	V float64
}

// Key returns the canonical series identifier "component/metric".
func (s Sample) Key() string { return s.Component + "/" + s.Metric }

// ReservedComponent is the one component whose samples carry process
// time: sieved writes its own telemetry under it, stamped by its clock.
// Every other sample is application data, and only application
// timestamps move the store's application high-water mark
// (Sharded.AppMaxTime), which retention and the pipeline window age by.
const ReservedComponent = "sieve"

// reservedKey reports whether a series key belongs to ReservedComponent.
func reservedKey(key string) bool {
	return strings.HasPrefix(key, ReservedComponent+"/")
}

// AppendLineProtocol encodes a sample in the wire format
//
//	<component>,metric=<name> value=<v> <t>\n
//
// mirroring the InfluxDB line protocol the paper's Telegraf deployment
// speaks, and appends it to dst.
func AppendLineProtocol(dst []byte, s Sample) []byte {
	dst = append(dst, s.Component...)
	dst = append(dst, ",metric="...)
	dst = append(dst, s.Metric...)
	dst = append(dst, " value="...)
	dst = strconv.AppendFloat(dst, s.V, 'g', -1, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, s.T, 10)
	dst = append(dst, '\n')
	return dst
}

// EncodeLineProtocol encodes a batch of samples.
func EncodeLineProtocol(samples []Sample) []byte {
	var dst []byte
	for _, s := range samples {
		dst = AppendLineProtocol(dst, s)
	}
	return dst
}

// ParseLineProtocol decodes a batch encoded by EncodeLineProtocol. Blank
// lines are ignored; any malformed line (including non-finite values,
// which a store must never accept, and a component holding '/', which a
// series key could not be split back into) aborts with an error naming
// the line number.
//
// The payload is converted to a string once and scanned index-based from
// there: component and metric names are substrings sharing that single
// backing copy, and the output slice is pre-sized from the newline
// count. Compared to the old strings.Split path this drops the per-line
// slice (16 bytes/line) and all growth reallocations — a handful of
// allocations per batch regardless of line count (see
// BenchmarkParseLineProtocol).
func ParseLineProtocol(data []byte) ([]Sample, error) {
	out := make([]Sample, 0, bytes.Count(data, []byte{'\n'})+1)
	str := string(data)
	lineNo := 0
	for start := 0; start < len(str); {
		lineNo++
		var line string
		if end := strings.IndexByte(str[start:], '\n'); end < 0 {
			line = str[start:]
			start = len(str)
		} else {
			line = str[start : start+end]
			start += end + 1
		}
		if line == "" {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("tsdb: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	return out, nil
}

var errNonFinite = fmt.Errorf("non-finite value")

// MaxTimestampMS bounds accepted timestamps (~35,000 years in ms). The
// wire format is milliseconds; a value beyond this is unambiguously a
// nanosecond/microsecond unit error (e.g. a Telegraf default), and
// accepting one would permanently poison the store's high-water marks —
// and with them retention and the server's sliding analysis window.
// Exported so every ingest edge (line protocol here, remote write in
// internal/server) enforces the same bound.
const MaxTimestampMS = int64(1) << 50

func parseLine(line string) (Sample, error) {
	var s Sample
	comma := strings.IndexByte(line, ',')
	if comma < 0 {
		return s, fmt.Errorf("missing tag separator in %q", line)
	}
	component := line[:comma]
	rest := line[comma+1:]
	if !strings.HasPrefix(rest, "metric=") {
		return s, fmt.Errorf("missing metric tag in %q", line)
	}
	rest = rest[len("metric="):]
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return s, fmt.Errorf("missing field section in %q", line)
	}
	metric := rest[:sp]
	rest = rest[sp+1:]
	if !strings.HasPrefix(rest, "value=") {
		return s, fmt.Errorf("missing value field in %q", line)
	}
	rest = rest[len("value="):]
	sp = strings.IndexByte(rest, ' ')
	if sp < 0 {
		return s, fmt.Errorf("missing timestamp in %q", line)
	}
	v, err := strconv.ParseFloat(rest[:sp], 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %w", err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return s, fmt.Errorf("%w %q", errNonFinite, rest[:sp])
	}
	t, err := strconv.ParseInt(rest[sp+1:], 10, 64)
	if err != nil {
		return s, fmt.Errorf("bad timestamp: %w", err)
	}
	if t > MaxTimestampMS {
		return s, fmt.Errorf("timestamp %d exceeds the millisecond range (nanosecond unit error?)", t)
	}
	if component == "" || metric == "" {
		return s, fmt.Errorf("empty component or metric in %q", line)
	}
	if strings.IndexByte(component, '/') >= 0 {
		// A series key is component/metric, split at its first '/': a
		// component holding one would be stored, and read back, as a
		// different series (and "sieve/x" would land in ReservedComponent).
		return s, fmt.Errorf("component %q contains '/' in %q", component, line)
	}
	s.Component = component
	s.Metric = metric
	s.V = v
	s.T = t
	return s, nil
}
