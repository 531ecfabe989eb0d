package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsSmoke regenerates every artifact end to end on
// QuickConfig, sanity-checks the headline values and pins Table 4's bytes.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite (slow)")
	}
	suite := NewSuite(QuickConfig())
	results, err := suite.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("got %d results, want %d", len(results), len(IDs()))
	}

	byID := map[string]*Result{}
	for _, r := range results {
		if r.Text == "" || r.Title == "" {
			t.Errorf("%s: empty output", r.ID)
		}
		byID[r.ID] = r
	}

	// Table 1: metric populations near the paper's.
	if v := byID["table1"].Values["sharelatex_metrics"]; v < 800 || v > 980 {
		t.Errorf("table1 sharelatex metrics = %g, want ~889", v)
	}
	if v := byID["table1"].Values["openstack_metrics"]; v != 508 {
		t.Errorf("table1 openstack metrics = %g, want 508", v)
	}

	// Figure 3: consistent clustering (clearly above random).
	if v := byID["figure3"].Values["average_ami"]; v < 0.3 {
		t.Errorf("figure3 average AMI = %g, want clearly above random", v)
	}

	// Figure 4: an order-of-magnitude style reduction.
	if v := byID["figure4"].Values["reduction_factor"]; v < 4 {
		t.Errorf("figure4 reduction factor = %g, want >= 4", v)
	}

	// Figure 5: the overhead percentages are wall-clock ratios that move
	// with machine load, so they are printed but not checked. The work the
	// tracers did is counted: every request is at least one read and one
	// write on the server's connection, each an event to the syscall
	// tracer and a record to the packet capture.
	f5, requests := byID["figure5"].Values, float64(QuickConfig().HTTPRequests)
	if v := f5["native_seconds"]; v <= 0 {
		t.Errorf("figure5 native time = %g, want positive", v)
	}
	for _, c := range []struct {
		key        string
		perRequest float64
	}{
		{"sysdig_events", 2},
		{"sysdig_encoded_bytes", 2 * 40}, // an event encodes its process name and both addresses
		{"tcpdump_records", 2},
		{"tcpdump_bytes", 2*16 + 96}, // two record headers, the response snapped at 96 bytes
	} {
		if v := f5[c.key]; v < c.perRequest*requests {
			t.Errorf("figure5 %s = %g, want >= %g per request (%g)", c.key, v, c.perRequest, c.perRequest*requests)
		}
	}

	// Table 3: every resource dimension must shrink substantially.
	for _, k := range []string{"cpu_reduction_pct", "db_reduction_pct", "net_in_reduction_pct", "net_out_reduction_pct"} {
		if v := byID["table3"].Values[k]; v < 25 {
			t.Errorf("table3 %s = %g%%, want substantial reduction", k, v)
		}
	}

	// Figure 6: a non-trivial dependency graph with a hub metric.
	if v := byID["figure6"].Values["edges"]; v < 5 {
		t.Errorf("figure6 edges = %g, want a connected graph", v)
	}

	// Table 4: the bytes cmd/experiments prints, without its timing line.
	// After an intended change, regenerate with
	//   go run ./cmd/experiments -quick -run table4 | grep -v '^regenerated' > internal/experiments/testdata/table4_quick.txt
	want, err := os.ReadFile("testdata/table4_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	t4 := byID["table4"]
	if got := fmt.Sprintf("==== %s: %s ====\n%s\n", t4.ID, t4.Title, t4.Text); got != string(want) {
		t.Errorf("table4 text differs from testdata/table4_quick.txt:\n%s", got)
	}

	// Table 5: the RCA ranking, as printed, is pinned whole (QuickConfig
	// and DefaultConfig print the same bytes; amd64, like Table 4's).
	// After an intended change, regenerate with
	//   go run ./cmd/experiments -quick -run table5 | grep -v '^regenerated' > internal/experiments/testdata/table5.txt
	want, err = os.ReadFile("testdata/table5.txt")
	if err != nil {
		t.Fatal(err)
	}
	t5 := byID["table5"]
	if got := fmt.Sprintf("==== %s: %s ====\n%s\n", t5.ID, t5.Title, t5.Text); got != string(want) {
		t.Errorf("table5 text differs from testdata/table5.txt:\n%s", got)
	}
	// The Table 5 metric populations reproduce exactly.
	if v := byID["table5"].Values["total_metrics"]; v != 508 {
		t.Errorf("table5 total = %g, want 508", v)
	}
	if v := byID["table5"].Values["total_new"]; v != 22 {
		t.Errorf("table5 new = %g, want 22", v)
	}
	if v := byID["table5"].Values["nova_api_novelty_pos"]; v != 1 {
		t.Errorf("table5 nova-api position = %g, want 1", v)
	}
	if v := byID["table5"].Values["neutron_final_rank"]; v < 1 || v > 5 {
		t.Errorf("table5 neutron-server final rank = %g, want top-5", v)
	}

	// Figure 7: novel metrics concentrate in a minority of clusters, and
	// the threshold sweep shrinks the inspection surface monotonically.
	f7 := byID["figure7"].Values
	if f7["clusters_novel"] <= 0 || f7["clusters_novel"] >= f7["clusters_total"] {
		t.Errorf("figure7 novel clusters = %g of %g", f7["clusters_novel"], f7["clusters_total"])
	}
	if f7["metrics_t00"] < f7["metrics_t70"] {
		t.Errorf("figure7 sweep not shrinking: %g at t=0 vs %g at t=0.7", f7["metrics_t00"], f7["metrics_t70"])
	}

	// Figure 8: the headline root-cause metrics surface among suspects.
	if v := byID["figure8"].Values["headline_metric_suspects"]; v < 1 {
		t.Errorf("figure8 headline suspects = %g, want >= 1", v)
	}
}

// TestTable4NoRatioAgainstZero: at seed 1 the CPU rule breaks the SLA in
// no sample, so the violations difference has no ratio. Its cell reads
// n/a and its key stays out of Values instead of reading as a tie.
func TestTable4NoRatioAgainstZero(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscaling replays (slow)")
	}
	cfg := QuickConfig()
	cfg.Seed = 1
	cfg.ShareLatexRuns = 1 // Table 4 reads the first run only
	r, err := NewSuite(cfg).Table4()
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Values["cpu_rule_violations"]; v != 0 {
		t.Fatalf("cpu rule violations = %g, want the 0 this test is about", v)
	}
	if v, ok := r.Values["violations_diff_pct"]; ok {
		t.Errorf("violations_diff_pct = %g, want no value against 0", v)
	}
	if !strings.Contains(r.Text, " n/a ") {
		t.Errorf("no n/a cell in:\n%s", r.Text)
	}
}

func TestByIDUnknown(t *testing.T) {
	suite := NewSuite(QuickConfig())
	if _, err := suite.ByID("table9"); err == nil {
		t.Error("expected error for unknown id")
	}
	if !strings.Contains(strings.Join(IDs(), ","), "figure6") {
		t.Error("IDs missing figure6")
	}
}
