package main

import (
	"io"
	"os"
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

// TestRunRejectsFaultyWithoutOpenStack: -faulty injects an OpenStack bug,
// so with any other -app it is refused by name instead of silently
// ignored.
func TestRunRejectsFaultyWithoutOpenStack(t *testing.T) {
	err := run("sharelatex", true, 14, 42, false, false, "")
	if err == nil || !strings.Contains(err.Error(), "-faulty") {
		t.Errorf("run -app sharelatex -faulty: error %v, want one naming -faulty", err)
	}
}

// TestRunReductionRatioWithoutSurvivors: a capture too short to cluster
// keeps no metric, and the summary says the ratio is undefined instead
// of printing +Inf, and that no relation gives an autoscaling signal
// instead of printing an empty one.
func TestRunReductionRatioWithoutSurvivors(t *testing.T) {
	out := captureStdout(t, func() error { return run("sharelatex", false, 2, 42, false, false, "") })
	if !strings.Contains(out, "reduction: 912 -> 0 metrics (n/a)") || strings.Contains(out, "Inf") {
		t.Errorf("summary of a 2-tick run:\n%s\nwant a reduction line ending in (n/a)", out)
	}
	if !strings.Contains(out, "most frequent metric in relations: (none)\n") {
		t.Errorf("summary of a 2-tick run:\n%s\nwant no autoscaling signal, printed (none)", out)
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}
