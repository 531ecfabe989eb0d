package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/app/openstack"
	"github.com/sieve-microservices/sieve/internal/app/sharelatex"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// reductionHash folds everything a Reduction decides — per component, in
// name order: K, the silhouette's bits, every cluster's members and
// representative, every assignment — into one digest.
func reductionHash(reds ...Reduction) string {
	h := sha256.New()
	str := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	num := func(v uint64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	for _, red := range reds {
		comps := make([]string, 0, len(red))
		for c := range red {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		for _, c := range comps {
			cr := red[c]
			str(c)
			num(uint64(cr.Total))
			num(uint64(cr.K))
			num(math.Float64bits(cr.Silhouette))
			for _, f := range cr.Filtered {
				str(f)
			}
			for _, cl := range cr.Clusters {
				num(uint64(cl.ID))
				str(cl.Representative)
				for _, m := range cl.Metrics {
					str(m)
				}
			}
			names := make([]string, 0, len(cr.Assignments))
			for m := range cr.Assignments {
				names = append(names, m)
			}
			sort.Strings(names)
			for _, m := range names {
				str(m)
				num(uint64(cr.Assignments[m]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// slidingReductions captures the application under the sievebench
// pipeline workload's load trace and reduces `windows` 240-tick windows,
// each slid 20 ticks past the previous one.
func slidingReductions(t *testing.T, a *app.App, windows int) []Reduction {
	t.Helper()
	const windowTicks, slideTicks = 240, 20
	ticks := windowTicks + (windows-1)*slideTicks
	start := a.Now()
	res, err := Capture(a, loadgen.Random(2, ticks, 200, 2500), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Reduction, windows)
	for i := range out {
		from := start + int64(i*slideTicks)*a.TickMS()
		ds, err := DatasetFromDB(res.DB, a.Name(), a.TickMS(), from, from+windowTicks*a.TickMS())
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = ReduceContext(context.Background(), ds, DefaultReduceOptions()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReduceZeroOptionsRunThePaper: a zero ReduceOptions runs the
// paper's reduction — the 0.002 variance filter, then a name-seeded
// k-Shape sweep over k in [2,7] — deciding every K, silhouette bit,
// cluster and representative of a ShareLatex window exactly as
// DefaultReduceOptions does.
func TestReduceZeroOptionsRunThePaper(t *testing.T) {
	sl, err := sharelatex.New(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Capture(sl, loadgen.Random(2, 240, 200, 2500), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := ReduceContext(context.Background(), res.Dataset, ReduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := ReduceContext(context.Background(), res.Dataset, DefaultReduceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reductionHash(zero), reductionHash(paper); got != want {
		t.Errorf("zero ReduceOptions reduce to %s, DefaultReduceOptions to %s", got, want)
	}
}

// TestReduceHashPinned pins the reduction of thirteen sliding ShareLatex
// windows and one OpenStack window to the digests recorded at commit
// babab68, before the k-Shape sweep's fast path (fused SBD kernel,
// spectral-bound pruning, periodic-orbit stop) existed: that path is
// exact, so not one K, silhouette bit, assignment or representative may
// move.
func TestReduceHashPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("reduces fourteen full application windows")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; compilers for other architectures fuse multiply-adds and round differently")
	}
	sl, err := sharelatex.New(3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reductionHash(slidingReductions(t, sl, 13)...), pinnedShareLatexHash; got != want {
		t.Errorf("ShareLatex reductions hash to %s, parent commit recorded %s", got, want)
	}
	os, err := openstack.New(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reductionHash(slidingReductions(t, os, 1)...), pinnedOpenStackHash; got != want {
		t.Errorf("OpenStack reduction hashes to %s, parent commit recorded %s", got, want)
	}
}

const (
	pinnedShareLatexHash = "ad26f68bfd495057692e807faf2c3220d25929215c2ba92d415b6c8753f30e1c"
	pinnedOpenStackHash  = "e72959674e1e5978666c52ef1ca41f93c58ec88b145c9e11e9cb6068474a0555"
)
