package main

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sievedFlags is the daemon's whole flag surface, sorted. A new flag is
// a reviewed change to this list, not drift (ROADMAP: flags must not
// grow).
var sievedFlags = []string{
	"addr",
	"app",
	"compact-interval",
	"data-dir",
	"downsample",
	"flush-interval",
	"fsync",
	"incremental",
	"interval",
	"log-level",
	"pprof-addr",
	"remote-write-component-label",
	"retention",
	"self-scrape-interval",
	"shards",
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
	"parallelism",
	"remote-write-retry-after",
	"read-header-timeout",
	"read-timeout",
	"idle-timeout",
	"shutdown-timeout",
	"remote-write-max-bytes",
	"remote-write-max-samples",
	"compact-max-block",
	"slow-op-threshold",
}

// buildSieved compiles the daemon into the test's temp directory.
func buildSieved(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sieved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestFlagSurface(t *testing.T) {
	bin := buildSieved(t)

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

// TestRejectsUnusableDurations: a value the server could only run with
// by replacing it (it keeps whole milliseconds and reads zero or less as
// "default") is refused at start-up with the flag named, instead of
// sieved starting on 240s / 500ms / 30s / keep-forever / GOMAXPROCS
// shards and printing the value it was given; so are a -window, -step or
// -retention that is not a whole number of milliseconds (it would be
// truncated), a window too short for any pipeline cycle to ever run, a
// positive -retention shorter than -window (it would drop the window's
// head), an
// -fsync policy that does not exist, any -fsync set without -data-dir, the
// reserved __name__ label as the remote-write component label, a
// positive -flush-interval, -compact-interval or -self-scrape-interval
// under 1ms (the ticker would spin), and a negative
// -self-scrape-interval.
func TestRejectsUnusableDurations(t *testing.T) {
	bin := buildSieved(t)
	for _, tc := range []struct{ flag, value string }{
		{"window", "-5m"},
		{"window", "0"},
		{"window", "999us"},
		{"step", "100us"},
		{"step", "0s"},
		{"step", "-500ms"},
		{"interval", "0"},
		{"interval", "-30s"},
		{"interval", "10us"},
		{"retention", "-24h"},
		{"retention", "500us"},
		{"step", "1999us"},        // would run a 1ms grid
		{"window", "240500us"},    // also under 64 steps
		{"window", "240000500us"}, // would run a 240s window
		{"retention", "1500us"},   // would keep 1ms
		{"retention", "1m"},       // under the default 240s window
		{"window", "20s"},         // 40 steps of the default 500ms grid, 64 needed
		{"step", "5s"},            // 48 steps in the default 240s window
		{"shards", "-3"},
		{"fsync", "bogus"},
		{"fsync", "always"}, // no -data-dir, so no WAL to fsync
		{"remote-write-component-label", "__name__"},
		{"flush-interval", "1us"}, // a WAL segment churned per tick
		{"flush-interval", "999us"},
		{"compact-interval", "500us"},
		{"self-scrape-interval", "-1s"},
		{"self-scrape-interval", "100us"},
	} {
		// A refused flag exits before listening; -addr only keeps an
		// accepted one (the parent's behaviour) off a fixed port.
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-"+tc.flag, tc.value)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), "-"+tc.flag+" ") {
				t.Errorf("sieved -%s %s: err %v, stderr %.200q; want exit 1 naming the flag", tc.flag, tc.value, err, stderr.String())
			}
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Errorf("sieved -%s %s started serving; want it refused at start-up", tc.flag, tc.value)
		}
	}
}

// TestSIGTERMExitsClean: a durable sieved with self-scrape on, started
// on port 0, names the port it bound in its "listening" line; once ready
// and holding one acknowledged write, it exits 0 within 10s of SIGTERM,
// the stop a supervisor (or sievebench) sends its child. A
// second sieved on the same address exits 1 without a "listening" line.
func TestSIGTERMExitsClean(t *testing.T) {
	bin := buildSieved(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-self-scrape-interval", "50ms")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody reads past the first line
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	exited := false
	// kill stops a sieved still running and returns its stderr, which is
	// only safe to read once the process is gone.
	kill := func() string {
		if !exited {
			_ = cmd.Process.Kill()
			<-done
			exited = true
		}
		return stderr.String()
	}
	t.Cleanup(func() { kill() })

	var addr string
	select {
	case line := <-lines:
		m := regexp.MustCompile(`^sieved listening on (127\.0\.0\.1:(\d+)) `).FindStringSubmatch(line)
		if m == nil || m[2] == "0" {
			t.Fatalf("first line %q, want sieved listening on the bound port", line)
		}
		addr = m[1]
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line within 10s; stderr %.300q", kill())
	}

	second := exec.Command(bin, "-addr", addr)
	out, err := second.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || bytes.Contains(out, []byte("listening")) {
		t.Errorf("second sieved on %s: err %v, stdout %q; want exit 1 and no listening line", addr, err, out)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	base := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sieved not ready within 10s: last error %v, stderr %.300q", err, kill())
		}
	}
	resp, err := client.Post(base+"/write", "text/plain", strings.NewReader("web,metric=cpu value=1 500"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST /write: status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Fatalf("sieved exited with %v after SIGTERM; stderr %.300q", err, stderr.String())
		}
		t.Logf("sieved exited 0 in %s after SIGTERM", time.Since(start))
	case <-time.After(10 * time.Second):
		t.Fatalf("sieved still running 10s after SIGTERM; stderr %.300q", kill())
	}
}
