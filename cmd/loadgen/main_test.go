package main

import (
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
