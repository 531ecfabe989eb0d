package main

import (
	"strings"
	"testing"
)

// TestRunRejectsNonPositiveTicks: a load of no ticks is refused by name
// before any work, instead of a makeslice panic (negative) or a core
// error that does not say which flag is wrong (zero).
func TestRunRejectsNonPositiveTicks(t *testing.T) {
	for _, ticks := range []int{0, -5} {
		err := run("sharelatex", false, ticks, 42, false, false, "")
		if err == nil || !strings.Contains(err.Error(), "-ticks") {
			t.Errorf("run with -ticks %d: error %v, want one naming -ticks", ticks, err)
		}
	}
}
