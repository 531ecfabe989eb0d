package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format (version 0.0.4): a `# HELP` and `# TYPE`
// comment per metric followed by its sample lines, histograms expanded
// to cumulative `_bucket{le="..."}` lines plus `_sum` and `_count`.
// Collect hooks run first so mirrored gauges are fresh. Output order
// is deterministic (sorted by metric name).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var bucketCounts []uint64
	for _, e := range r.collect() {
		if e.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
		switch {
		case e.c != nil:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.c.Value())
		case e.gf != nil:
			fmt.Fprintf(bw, "%s %s\n", e.name, formatFloat(e.gf()))
		case e.h != nil:
			h := e.h
			if cap(bucketCounts) < len(h.counts) {
				bucketCounts = make([]uint64, len(h.counts))
			}
			counts := bucketCounts[:len(h.counts)]
			n, sum := h.snapshot(counts)
			var cum uint64
			for i, b := range h.bounds {
				cum += counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", e.name, formatFloat(b), cum)
			}
			// The +Inf bucket equals the total count by construction.
			cum += counts[len(h.bounds)]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
			fmt.Fprintf(bw, "%s_sum %s\n", e.name, formatFloat(sum))
			fmt.Fprintf(bw, "%s_count %d\n", e.name, n)
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Lint validates a Prometheus text exposition payload: metric-name and
// label syntax, TYPE declarations preceding their samples, parseable
// values, non-decreasing histogram buckets ending in a `+Inf` bucket
// that matches `_count`, and a `_sum` line per histogram. It is the
// exposition-format gate the CI scrape test runs over `GET /metrics`
// output; it returns the first violation found.
func Lint(data []byte) error {
	types := map[string]string{}    // base name -> declared TYPE
	seenSample := map[string]bool{} // base name -> sample emitted
	type histState struct {
		lastLE    float64
		infCount  uint64
		haveInf   bool
		haveSum   bool
		haveCount bool
		count     uint64
	}
	hists := map[string]*histState{}

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validName(name) {
				return fmt.Errorf("line %d: invalid metric name %q in %s comment", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE comment missing type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q", lineNo, fields[3])
				}
				if seenSample[name] {
					return fmt.Errorf("line %d: TYPE for %s appears after its samples", lineNo, name)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				types[name] = fields[3]
				if fields[3] == "histogram" {
					hists[name] = &histState{lastLE: math.Inf(-1)}
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if _, ok := hists[trimmed]; ok {
					base = trimmed
				}
				break
			}
		}
		seenSample[base] = true
		if _, declared := types[base]; !declared {
			return fmt.Errorf("line %d: sample %s has no preceding TYPE", lineNo, name)
		}

		if hs, ok := hists[base]; ok && base != name {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: %s missing le label", lineNo, name)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						return fmt.Errorf("line %d: bad le %q: %v", lineNo, le, err)
					}
				}
				if bound <= hs.lastLE {
					return fmt.Errorf("line %d: histogram %s buckets not ascending (le=%q)", lineNo, base, le)
				}
				if value < 0 || value != math.Trunc(value) {
					return fmt.Errorf("line %d: bucket count %v not a non-negative integer", lineNo, value)
				}
				if uint64(value) < hs.infCount {
					return fmt.Errorf("line %d: histogram %s bucket counts not cumulative", lineNo, base)
				}
				hs.lastLE = bound
				hs.infCount = uint64(value)
				if math.IsInf(bound, 1) {
					hs.haveInf = true
				}
			case strings.HasSuffix(name, "_sum"):
				hs.haveSum = true
			case strings.HasSuffix(name, "_count"):
				hs.haveCount = true
				hs.count = uint64(value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, hs := range hists {
		if !seenSample[name] {
			continue
		}
		if !hs.haveInf {
			return fmt.Errorf("histogram %s missing +Inf bucket", name)
		}
		if !hs.haveSum || !hs.haveCount {
			return fmt.Errorf("histogram %s missing _sum or _count", name)
		}
		if hs.count != hs.infCount {
			return fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", name, hs.count, hs.infCount)
		}
	}
	return nil
}

// parseSample parses `name{label="v",...} value [timestamp]`.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels = map[string]string{}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			key := strings.TrimSpace(rest[:eq])
			if !validName(key) || strings.Contains(key, ":") {
				return "", nil, 0, fmt.Errorf("invalid label name %q", key)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					val.WriteByte(rest[j+1])
					j++
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
	} else {
		rest = rest[i:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q: %v", fields[1], err)
		}
	}
	return name, labels, value, nil
}
