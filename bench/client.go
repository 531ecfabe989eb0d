package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"time"
)

// requestTimeout is the per-operation limit: an operation that takes
// longer counts as failed.
const requestTimeout = 5 * time.Second

// conn is one driver goroutine's HTTP state: a keep-alive client and a
// reusable response buffer. Each goroutine owns one, so no request ever
// waits on another's connection.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		hc: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do issues one request with an already-encoded body and reads the whole
// response into c.buf (valid until the next call). A transport error, a
// timeout or a non-2xx status is an error.
func (c *conn) do(method, path, contentType, contentEncoding string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if contentEncoding != "" {
		req.Header.Set("Content-Encoding", contentEncoding)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.buf.Bytes())
	}
	return resp, nil
}

func (c *conn) get(path string) error {
	_, err := c.do(http.MethodGet, path, "", "", nil)
	return err
}

// writeLine posts a line-protocol payload to /write.
func (c *conn) writeLine(payload []byte) error {
	_, err := c.do(http.MethodPost, "/write", "text/plain", "", payload)
	return err
}

// scrapeMetrics fetches and parses /metrics.
func (c *conn) scrapeMetrics() (scrape, error) {
	if err := c.get("/metrics"); err != nil {
		return nil, err
	}
	return parseScrape(c.buf.Bytes())
}

// bodySum fingerprints a response body for the output checks: length
// plus CRC-32 (hardware-accelerated, so a 1.5 MB raw fan-out costs the
// harness well under a millisecond).
func bodySum(b []byte) uint64 {
	return uint64(len(b))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// loopClock splits a driver goroutine's wall time into time spent inside
// requests and everything else (generating, patching, checking): the
// harness's own share of the loop, which must stay small or the numbers
// measure the harness.
type loopClock struct {
	loop    time.Duration
	request time.Duration
}

func (l loopClock) genShare() float64 {
	if l.loop <= 0 {
		return 0
	}
	return float64(l.loop-l.request) / float64(l.loop)
}

func (l *loopClock) merge(o loopClock) {
	l.loop += o.loop
	l.request += o.request
}
