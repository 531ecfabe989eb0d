// Package loadgen generates the workloads that stress the simulated
// applications during Sieve's loading phase (§3.1) and the case studies:
// a WorldCup'98-shaped trace for the autoscaling experiment (§6.2 maps
// the 1998 soccer world-cup HTTP trace onto ShareLatex traffic) and the
// randomized workloads that drive the robustness measurements (§6.1.1)
// and the OpenStack experiments (§6.3).
package loadgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/metrics"
)

// Pattern is a load trace: external requests/second applied at each
// simulation tick.
type Pattern []float64

// Constant returns a flat pattern.
func Constant(rps float64, ticks int) Pattern {
	p := make(Pattern, ticks)
	for i := range p {
		p[i] = rps
	}
	return p
}

// Random returns the randomized workload used for the clustering
// robustness runs: piecewise-constant levels redrawn every 20-60 ticks
// with linear ramps between them, plus per-tick jitter. Deterministic for
// a fixed seed.
func Random(seed int64, ticks int, minRPS, maxRPS float64) Pattern {
	rng := rand.New(rand.NewSource(seed))
	p := make(Pattern, ticks)
	level := minRPS + rng.Float64()*(maxRPS-minRPS)
	next := minRPS + rng.Float64()*(maxRPS-minRPS)
	segLen := 20 + rng.Intn(41)
	segPos := 0
	for i := range p {
		frac := float64(segPos) / float64(segLen)
		base := level + (next-level)*frac
		p[i] = math.Max(0, base*(1+rng.NormFloat64()*0.05))
		segPos++
		if segPos >= segLen {
			level = next
			next = minRPS + rng.Float64()*(maxRPS-minRPS)
			segLen = 20 + rng.Intn(41)
			segPos = 0
		}
	}
	return p
}

// WorldCup returns a trace with the shape of the 1998 world-cup HTTP
// log: a slow diurnal swell with sharp match-time spikes. The paper
// replays one hour of the real trace; this generator reproduces the
// statistical shape (we do not have the original log — see DESIGN.md).
// It returns an empty pattern for ticks <= 0.
func WorldCup(seed int64, ticks int, baseRPS, peakRPS float64) Pattern {
	if ticks <= 0 {
		return Pattern{}
	}
	rng := rand.New(rand.NewSource(seed))
	p := make(Pattern, ticks)

	// Two to four spike episodes at random positions.
	type spike struct {
		center, width int
		height        float64
	}
	nSpikes := 2 + rng.Intn(3)
	spikes := make([]spike, nSpikes)
	for i := range spikes {
		spikes[i] = spike{
			center: rng.Intn(ticks),
			width:  ticks/50 + rng.Intn(ticks/40+1),
			height: 0.7 + 0.3*rng.Float64(),
		}
		// A zero width (short traces) would make the spike's centre 0/0.
		spikes[i].width = max(spikes[i].width, 1)
	}
	for i := range p {
		// Diurnal swell across the window.
		diurnal := 0.5 + 0.5*math.Sin(2*math.Pi*float64(i)/float64(ticks)-math.Pi/2)
		v := baseRPS + (peakRPS-baseRPS)*0.25*diurnal
		for _, s := range spikes {
			d := float64(i - s.center)
			v += (peakRPS - baseRPS) * s.height * math.Exp(-d*d/float64(2*s.width*s.width))
		}
		v *= 1 + rng.NormFloat64()*0.06
		if v < 0 {
			v = 0
		}
		p[i] = v
	}
	return p
}

// Drive replays a pattern against an application, invoking onTick (when
// non-nil) after every step — the hook where experiments scrape metrics,
// evaluate SLAs, or run the autoscaler.
func Drive(a *app.App, p Pattern, onTick func(tick int, nowMS int64)) {
	for i, rps := range p {
		a.Step(rps)
		if onTick != nil {
			onTick(i, a.Now())
		}
	}
}

// DriveCollector replays a pattern against an application while scraping
// every scrapeEvery ticks (<= 0 means every tick) through the collector —
// the wiring that lets a simulator feed a local store or, with a
// collector pointed at the sieved HTTP client, a remote server over real
// HTTP. The context is checked before every step; the first scrape error
// or a done context stops the replay, leaving the rest of the pattern
// unapplied.
func DriveCollector(ctx context.Context, a *app.App, p Pattern, coll *metrics.Collector, scrapeEvery int) error {
	if coll == nil {
		return fmt.Errorf("loadgen: nil collector")
	}
	if scrapeEvery <= 0 {
		scrapeEvery = 1
	}
	for i, rps := range p {
		if err := ctx.Err(); err != nil {
			return err
		}
		a.Step(rps)
		if i%scrapeEvery != 0 {
			continue
		}
		if _, err := coll.ScrapeOnce(a.Now()); err != nil {
			return fmt.Errorf("loadgen: scrape at tick %d: %w", i, err)
		}
	}
	return ctx.Err()
}
