package sieve

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// benchJSON gates the BENCH_*.json rewrites: a plain benchmark run only
// prints its rows, and `go test -bench <name> -benchjson` also rewrites
// the committed file. Absolute numbers do not travel between hosts, so a
// row is committed on purpose, with the host it was measured on.
var benchJSON = flag.Bool("benchjson", false, "rewrite the BENCH_*.json file of each benchmark run")

// benchHost records where a BENCH_*.json file's rows were measured; the
// flushers embed it, so its fields sit at the top of each file.
type benchHost struct {
	CPU        string `json:"cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// thisHost describes the running host and checkout.
func thisHost() benchHost {
	return benchHost{CPU: cpuModel(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: gitCommit()}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// the architecture where there is none.
func cpuModel() string {
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// gitCommit names the checked-out commit, marked -dirty when the work
// tree differs from it ("unknown" outside a git checkout).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		commit += "-dirty"
	}
	return commit
}

// writeBenchJSON writes doc to path as indented JSON.
func writeBenchJSON(path string, doc any) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(path, append(data, '\n'), 0o644)
}
