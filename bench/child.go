package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload run shares: where the repo and the built
// sieved are, where scratch data may go, and which children are alive so
// an error or a SIGINT can take them down.
type env struct {
	root    string // repo root (the directory holding go.mod)
	outDir  string // bench/out: child stderr, traces, temp data dirs
	tmpDir  string // this invocation's scratch under outDir, removed on exit
	sieved  string // path of the built cmd/sieved binary
	buildS  float64
	procs   int // child GOMAXPROCS; 0 leaves the runtime default (all cores)
	spawned int

	mu   sync.Mutex
	live map[*child]struct{}
}

// findRoot walks up from the working directory to the module root, so
// the harness works from the repo root (go run ./bench) and from bench/
// (go test). The root must be the tree this binary was built from: a copy
// of bench/ placed under some other checkout would otherwise build and
// measure that checkout's sieved.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	_, self, _, _ := runtime.Caller(0)
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sieved", "main.go")); err == nil {
			built := filepath.Dir(filepath.Dir(self))
			a, errA := os.Stat(built)
			b, errB := os.Stat(dir)
			if errA != nil || errB != nil || !os.SameFile(a, b) {
				return "", fmt.Errorf("bench: built from %s but run inside %s; run it from its own repo", built, dir)
			}
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: cmd/sieved not found above the working directory (run from the repo)")
		}
		dir = parent
	}
}

// newEnv locates the repo, creates the scratch directory on the repo's
// own filesystem (so fsync and rename cost what the data dir would), and
// builds cmd/sieved. Build time is reported on its own: it measures the
// build cache, not the program.
func newEnv(procs int) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out"), procs: procs, live: map[*child]struct{}{}}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		return nil, err
	}
	e.sieved = filepath.Join(e.outDir, "sieved")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.sieved, "./cmd/sieved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("bench: building cmd/sieved: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return e, nil
}

// close kills whatever children are still alive and removes the scratch
// directory. Safe to call more than once.
func (e *env) close() {
	e.mu.Lock()
	live := make([]*child, 0, len(e.live))
	for c := range e.live {
		live = append(live, c)
	}
	e.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
	_ = os.RemoveAll(e.tmpDir)
}

// mkdir creates a fresh directory under the invocation's scratch dir.
func (e *env) mkdir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmpDir, pattern+"-")
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds, so spawn retries on the (rare) race.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// child is one running sieved process.
type child struct {
	cmd        *exec.Cmd
	base       string // http://127.0.0.1:<port>
	stderrPath string
	exited     chan struct{} // closed once Wait has returned
	waitErr    error
	// readyS is spawn → first /readyz 200.
	readyS float64
}

// commonArgs are the flags every child runs with.
var commonArgs = []string{"-shards", "4", "-log-level", "error"}

// spawn starts sieved with the common flags plus args on a free loopback
// port and polls /readyz until it answers 200. The child's stderr goes to
// a file under bench/out and is shown if readiness fails.
func (e *env) spawn(label string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := e.spawnOnce(label, args)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (e *env) spawnOnce(label string, args []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	e.spawned++
	c := &child{
		base:       "http://127.0.0.1:" + strconv.Itoa(port),
		stderrPath: filepath.Join(e.outDir, fmt.Sprintf("sieved-%s-%d.stderr", label, e.spawned)),
		exited:     make(chan struct{}),
	}
	stderr, err := os.Create(c.stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor after Start
	full := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, commonArgs...)
	full = append(full, args...)
	c.cmd = exec.Command(e.sieved, full...)
	c.cmd.Stderr = stderr
	c.cmd.Env = os.Environ()
	if e.procs > 0 {
		c.cmd.Env = append(c.cmd.Env, "GOMAXPROCS="+strconv.Itoa(e.procs))
	}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting sieved: %w", err)
	}
	e.mu.Lock()
	e.live[c] = struct{}{}
	e.mu.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		e.mu.Lock()
		delete(e.live, c)
		e.mu.Unlock()
		close(c.exited)
	}()
	if err := c.waitReady(60 * time.Second); err != nil {
		c.kill()
		log, _ := os.ReadFile(c.stderrPath)
		return nil, fmt.Errorf("bench: sieved %v never became ready: %v\n--- %s ---\n%s", full, err, c.stderrPath, log)
	}
	c.readyS = time.Since(start).Seconds()
	return c, nil
}

// waitReady polls /readyz; it returns early when the child exits.
func (c *child) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var last error
	for time.Now().Before(deadline) {
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("/readyz answered %d", resp.StatusCode)
		} else {
			last = err
		}
		select {
		case <-c.exited:
			return fmt.Errorf("child exited: %v", c.waitErr)
		case <-tick.C:
		}
	}
	return fmt.Errorf("timeout after %s: %v", timeout, last)
}

// terminate sends SIGTERM (graceful: drain, final checkpoint) and waits.
func (c *child) terminate() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(60 * time.Second):
		c.kill()
		return errors.New("bench: sieved ignored SIGTERM for 60s")
	}
	if c.waitErr != nil {
		log, _ := os.ReadFile(c.stderrPath)
		return fmt.Errorf("bench: sieved exited uncleanly: %v\n%s", c.waitErr, log)
	}
	return nil
}

// kill sends SIGKILL (a crash: nothing is flushed) and waits.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// procUsage reads the child's peak resident set (VmHWM, MiB) and its
// cumulative CPU time (user+system seconds) from /proc.
func (c *child) procUsage() (rssPeakMB, cpuS float64, err error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				rssPeakMB = kb / 1024
			}
		}
	}
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks (USER_HZ=100).
	if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
		f := strings.Fields(string(stat[i+1:]))
		if len(f) > 12 {
			ut, _ := strconv.ParseFloat(f[11], 64)
			st, _ := strconv.ParseFloat(f[12], 64)
			cpuS = (ut + st) / 100
		}
	}
	return rssPeakMB, cpuS, nil
}

// bracket is the pair of readings of a child around a measured phase:
// its /metrics, for the M rows, and its CPU time and peak RSS from /proc.
type bracket struct {
	c      *child
	probe  *conn
	opened chan struct{}
	before scrape
	cpu0   float64
	err    error
}

// openBracket takes the first reading at time at: inline when at has
// passed, otherwise on its own goroutine, so a driver loop that is already
// warming up need not stop for it. probe is the bracket's own until close
// returns.
func openBracket(c *child, probe *conn, at time.Time) *bracket {
	b := &bracket{c: c, probe: probe, opened: make(chan struct{})}
	read := func() {
		defer close(b.opened)
		time.Sleep(time.Until(at))
		if b.before, b.err = probe.scrapeMetrics(); b.err == nil {
			_, b.cpu0, b.err = c.procUsage()
		}
	}
	if time.Now().Before(at) {
		go read()
	} else {
		read()
	}
	return b
}

// close takes the second reading and returns the /metrics delta, the CPU
// seconds the child used in between, and its peak RSS.
func (b *bracket) close() (m scrape, cpuS, rssMB float64, err error) {
	<-b.opened
	if b.err != nil {
		return nil, 0, 0, b.err
	}
	after, err := b.probe.scrapeMetrics()
	if err != nil {
		return nil, 0, 0, err
	}
	rssMB, cpu1, err := b.c.procUsage()
	return delta(b.before, after), cpu1 - b.cpu0, rssMB, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files and directories under src into dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%X", uint32(st.Type))
}

// gitCommit is the short HEAD of the repo, or "unknown" outside a git
// checkout (the benchmark driver runs from an exported tree).
func gitCommit(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
