package metrics_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/loadgen"
	"github.com/sieve-microservices/sieve/internal/metrics"
)

// scrapePin is the digest of every payload the three runs below ship.
// A payload whose readings are reordered, renamed, revalued or dropped
// changes it; so does a counter exported as a gauge, because the two
// accumulate differently.
const scrapePin = "bc34d0fb062a3df9b399b74f5ec8d3ea88c9fcb772dda5a1af0e249a2ea93d1b"

// hashWriter is a tsdb.Writer that folds each payload, length-prefixed,
// into a running hash instead of storing it.
type hashWriter struct {
	h        hash.Hash
	payloads int
	samples  int
}

func (w *hashWriter) Write(p []byte) (int, error) {
	var size [8]byte
	binary.LittleEndian.PutUint64(size[:], uint64(len(p)))
	w.h.Write(size[:])
	w.h.Write(p)
	w.payloads++
	n := bytes.Count(p, []byte{'\n'})
	w.samples += n
	return n, nil
}

// scrapeRun steps a for every tick of p, calls beforeTick first, and
// scrapes through a collector restricted to allow (nil ships everything).
func scrapeRun(t *testing.T, w *hashWriter, a *app.App, p loadgen.Pattern, allow []string, beforeTick func(tick int)) {
	t.Helper()
	coll, err := metrics.NewCollector(w, a.Registries()...)
	if err != nil {
		t.Fatal(err)
	}
	coll.SetAllowlist(allow)
	for i, rps := range p {
		if beforeTick != nil {
			beforeTick(i)
		}
		a.Step(rps)
		if _, err := coll.ScrapeOnce(a.Now()); err != nil {
			t.Fatalf("scrape at tick %d: %v", i, err)
		}
	}
}

// TestScrapePayloadsPinned hashes the line-protocol bytes the lab's
// collector ships: ShareLatex under random load, OpenStack turning faulty
// mid-run (so families are born after the first scrape), and ShareLatex
// again under a three-key allowlist.
func TestScrapePayloadsPinned(t *testing.T) {
	w := &hashWriter{h: sha256.New()}
	const ticks = 40
	load := loadgen.Random(7, ticks, 200, 2500)

	sl, err := sharelatex.New(7)
	if err != nil {
		t.Fatal(err)
	}
	scrapeRun(t, w, sl, load, nil, nil)

	osApp, err := openstack.New(7, false)
	if err != nil {
		t.Fatal(err)
	}
	scrapeRun(t, w, osApp, loadgen.Random(7, ticks, 50, 400), nil, func(tick int) {
		if tick == 20 {
			osApp.SetFault(true)
		}
	})

	sl, err = sharelatex.New(7)
	if err != nil {
		t.Fatal(err)
	}
	allow := []string{"haproxy/uptime_seconds_total", "redis/context_switches_total", "web/web_version"}
	before := w.samples
	scrapeRun(t, w, sl, load, allow, nil)
	if got := w.samples - before; got != len(allow)*ticks {
		t.Fatalf("allowlisted run shipped %d samples, want %d", got, len(allow)*ticks)
	}

	if w.payloads != 3*ticks {
		t.Fatalf("shipped %d payloads, want %d", w.payloads, 3*ticks)
	}
	if got := hex.EncodeToString(w.h.Sum(nil)); got != scrapePin {
		t.Fatalf("scrape digest = %s, want %s", got, scrapePin)
	}
}
