// Command bench is sievebench: it builds cmd/sieved, starts it as a child
// process on a loopback port with a temp data dir, drives it over real
// HTTP with one of four workloads, checks the outputs, and prints every
// metric by name with its unit. See README.md.
//
//	go run ./bench -workload ingest|dashboard|pipeline|mixed|all -seed N
//	               [-seconds S] [-trace 0|1] [-procs N] [-repeat N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// nominalSeconds is the measured-phase length the workload sizes in the
// issue are written for; -seconds scales every phase and every
// fixed-work count by seconds/nominalSeconds.
const nominalSeconds = 30

// runConfig is one workload run's inputs.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

func (c runConfig) scale() float64 { return c.seconds / nominalSeconds }

// scaled shrinks a nominal duration with the run length.
func (c runConfig) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale())
}

// scaledCount shrinks a nominal fixed-work count, never below min.
func (c runConfig) scaledCount(n, min int) int {
	v := int(math.Round(float64(n) * c.scale()))
	if v < min {
		v = min
	}
	return v
}

// warmup is the discarded head of every timed phase.
func (c runConfig) warmup() time.Duration { return c.scaled(3 * time.Second) }

var runners = map[string]func(*env, runConfig, *result) error{
	"ingest":    runIngest,
	"dashboard": runDashboard,
	"pipeline":  runPipeline,
	"mixed":     runMixed,
}

// parseBool reads -trace, which is a value flag: the benchmark driver
// passes "--trace 1", and a Go bool flag would not consume the "1".
func parseBool(s string) (bool, error) {
	switch s {
	case "0", "false", "off", "":
		return false, nil
	case "1", "true", "on":
		return true, nil
	}
	return false, fmt.Errorf("want 0 or 1, got %q", s)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "all", "ingest, dashboard, pipeline, mixed, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measured-phase length; fixed-work phases scale by seconds/30")
	traceArg := flag.String("trace", "0", "1 adds the traced in-process replay and reports the per-layer metrics")
	procs := flag.Int("procs", 0, "child GOMAXPROCS (0 = all cores)")
	repeat := flag.Int("repeat", 0, "run the set N times and print per-metric median, quartiles and spread against the bound")
	flag.Parse()
	// The in-process twins log like sieved does; keep the tables readable.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})))
	trace, err := parseBool(*traceArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -trace:", err)
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := runners[*workload]; ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	e, err := newEnv(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.close()
	// A SIGINT or SIGTERM must not leave a sieved behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		e.close()
		os.Exit(130)
	}()

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: trace}
	printHeader(e, cfg)

	if *repeat > 0 {
		return runRepeat(e, cfg, names, *repeat)
	}
	code := 0
	var last *result
	for _, name := range names {
		r, err := runWorkload(e, cfg, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		r.printTable(os.Stdout, cfg.trace)
		if !r.correct() {
			code = 1
		}
		last = r
	}
	if len(names) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object. An incorrect run still prints it (correct=false).
		line, err := last.jsonLine(cfg.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(line)
		return 0
	}
	return code
}

// runWorkload runs one workload and derives the metrics common to all.
func runWorkload(e *env, cfg runConfig, name string) (*result, error) {
	r := newResult(name)
	start := time.Now()
	if err := runners[name](e, cfg, r); err != nil {
		return nil, fmt.Errorf("bench: workload %s: %w", name, err)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	r.set("failed_ops_share", share, 0)
	fmt.Fprintf(os.Stderr, "bench: workload %s took %.1fs wall\n", name, time.Since(start).Seconds())
	return r, nil
}

func printHeader(e *env, cfg runConfig) {
	childProcs := e.procs
	if childProcs == 0 {
		childProcs = runtime.NumCPU()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fmt.Printf("sievebench: nproc=%d child_gomaxprocs=%d go=%s commit=%s fs=%s seed=%d seconds=%s trace=%v build_s=%.2f\n",
		runtime.NumCPU(), childProcs, runtime.Version(), gitCommit(ctx, e.root), fsType(e.tmpDir),
		cfg.seed, strconv.FormatFloat(cfg.seconds, 'g', -1, 64), cfg.trace, e.buildS)
}
