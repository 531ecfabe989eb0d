package main

import (
	"math"
	"strings"
	"testing"
)

// TestRunRejectsNonPositiveTicks: every pattern kind refuses a length of
// no ticks by name instead of panicking in the generator.
func TestRunRejectsNonPositiveTicks(t *testing.T) {
	for _, kind := range []string{"worldcup", "random", "constant", "steps"} {
		for _, ticks := range []int{0, -5} {
			err := run(kind, ticks, 42, 150, 2600, "")
			if err == nil || !strings.Contains(err.Error(), "-ticks") {
				t.Errorf("run -kind %s -ticks %d: error %v, want one naming -ticks", kind, ticks, err)
			}
		}
	}
}

// TestRunRejectsUnusableRates: a NaN, infinite or negative -base or -peak
// is refused by name instead of printing NaN ticks or a rate the
// simulator clamps away.
func TestRunRejectsUnusableRates(t *testing.T) {
	for _, tc := range []struct {
		kind, drive, flag string
		base, peak        float64
	}{
		{"worldcup", "", "-peak", 100, math.Inf(1)},
		{"constant", "sharelatex", "-base", math.NaN(), 2600},
		{"constant", "sharelatex", "-base", -5, 2600},
		{"random", "", "-base", math.Inf(-1), 2600},
		{"steps", "", "-peak", 150, math.NaN()},
		{"random", "openstack", "-peak", 150, -1},
	} {
		err := run(tc.kind, 3, 42, tc.base, tc.peak, tc.drive)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run -kind %s -base %g -peak %g -drive %q: error %v, want one naming %s",
				tc.kind, tc.base, tc.peak, tc.drive, err, tc.flag)
		}
	}
}
