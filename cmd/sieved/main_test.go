package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// sievedFlags is the daemon's whole flag surface, sorted. A new flag is
// a reviewed change to this list, not drift (ROADMAP: flags must not
// grow).
var sievedFlags = []string{
	"addr",
	"app",
	"compact-interval",
	"compact-max-block",
	"data-dir",
	"downsample",
	"flush-interval",
	"fsync",
	"incremental",
	"interval",
	"log-level",
	"parallelism",
	"pprof-addr",
	"remote-write-component-label",
	"remote-write-max-bytes",
	"remote-write-max-samples",
	"retention",
	"self-scrape-interval",
	"shards",
	"slow-op-threshold",
	"step",
	"window",
}

// removedFlags were deleted with the code or the option they selected;
// the binary must refuse them rather than silently ignore them.
var removedFlags = []string{
	"full-recompute-every",
	"warm-start",
	"warm-resweep-every",
	"warm-silhouette-tolerance",
	"query-parallelism",
	"remote-write-retry-after",
	"read-header-timeout",
	"read-timeout",
	"idle-timeout",
	"shutdown-timeout",
}

func TestFlagSurface(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sieved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	usage, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllSubmatch(usage, -1) {
		got = append(got, string(m[1]))
	}
	if !reflect.DeepEqual(got, sievedFlags) {
		t.Errorf("sieved -h lists %d flags:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, " "), len(sievedFlags), strings.Join(sievedFlags, " "))
	}

	for _, name := range removedFlags {
		out, err := exec.Command(bin, "-"+name+"=1").CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte("flag provided but not defined: -"+name)) {
			t.Errorf("sieved -%s: err %v, output %.120q; want it refused as not defined", name, err, out)
		}
	}
}
