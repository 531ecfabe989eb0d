package openstack

import (
	"strings"
	"testing"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/callgraph"
	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/trace"
)

func TestSpecBuildsWithSixteenComponents(t *testing.T) {
	a, err := New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Components()); got != 16 {
		t.Errorf("components = %d, want 16", got)
	}
}

func TestTable5PopulationTotals(t *testing.T) {
	var total, newM, discarded int
	for _, p := range populations {
		total += p.total
		newM += p.new
		discarded += p.discarded
	}
	if total != 508 {
		t.Errorf("total metrics = %d, want 508 (Table 5)", total)
	}
	// Table 5's rows sum to 22 new / 98 discarded (its totals row prints
	// 113 changed (22/91), inconsistent with its own rows; we follow the
	// rows).
	if newM != 22 || discarded != 98 {
		t.Errorf("changed = %d new / %d discarded, want 22/98 (Table 5 rows)", newM, discarded)
	}
}

func TestSpecBudgetsMatchTable5(t *testing.T) {
	// Every component's family list (plus constants) must expand to
	// exactly its Table 5 total, with the phase split matching the
	// new/discarded columns.
	spec := Spec()
	for _, c := range spec.Components {
		pop := populations[c.Name]
		var always, healthy, faulty int
		for _, f := range c.Families {
			n := 1
			if len(f.Variants) > 0 {
				n = len(f.Variants)
			}
			switch f.Phase {
			case app.PhaseHealthyOnly:
				healthy += n
			case app.PhaseFaultyOnly:
				faulty += n
			default:
				always += n
			}
		}
		always += len(c.Constants)
		if always+healthy+faulty != pop.total {
			t.Errorf("%s: %d metrics, want %d", c.Name, always+healthy+faulty, pop.total)
		}
		if healthy != pop.discarded {
			t.Errorf("%s: %d healthy-only, want %d", c.Name, healthy, pop.discarded)
		}
		if faulty != pop.new {
			t.Errorf("%s: %d faulty-only, want %d", c.Name, faulty, pop.new)
		}
	}
}

func TestFaultFlipsHeadlineMetrics(t *testing.T) {
	correct, err := New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := New(1, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		correct.Step(150)
		faulty.Step(150)
	}

	cNova := metricNames(correct.Registry("nova-api"))
	fNova := metricNames(faulty.Registry("nova-api"))
	if !has(cNova, "nova_instances_in_state_ACTIVE") || has(cNova, "nova_instances_in_state_ERROR") {
		t.Errorf("correct nova-api population wrong: %v", filter(cNova, "state"))
	}
	if has(fNova, "nova_instances_in_state_ACTIVE") || !has(fNova, "nova_instances_in_state_ERROR") {
		t.Errorf("faulty nova-api population wrong: %v", filter(fNova, "state"))
	}

	fNeutron := metricNames(faulty.Registry("neutron-server"))
	if !has(fNeutron, "neutron_ports_in_status_DOWN") {
		t.Error("faulty neutron-server must export ports DOWN")
	}
	if rd, ok := faulty.Registry("neutron-server").Read("neutron_ports_in_status_DOWN"); !ok || rd.Value <= 0 {
		t.Errorf("fault must raise neutron-server's error-driven ports DOWN gauge, got %g", rd.Value)
	}
}

func TestCallGraphShape(t *testing.T) {
	a, err := New(1, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(1<<16, nil)
	a.AttachTracer(tr)
	for i := 0; i < 20; i++ {
		a.Step(200)
	}
	calls := map[[2]string]bool{}
	for _, e := range callgraph.FromSyscallEvents(tr.Events()).Edges() {
		calls[[2]string{e.Caller, e.Callee}] = true
	}
	for _, edge := range [][2]string{
		{"haproxy", "nova-api"},
		{"nova-api", "rabbitmq"},
		{"rabbitmq", "nova-compute"},
		{"nova-compute", "nova-libvirt"},
		{"neutron-server", "mariadb"},
		{"keystone", "memcached"},
	} {
		if !calls[edge] {
			t.Errorf("missing call edge %s -> %s", edge[0], edge[1])
		}
	}
}

// metricNames lists a registry's metric names in name order.
func metricNames(reg *metrics.Registry) []string {
	var out []string
	for _, rd := range reg.Snapshot() {
		out = append(out, rd.Metric)
	}
	return out
}

func has(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func filter(names []string, substr string) []string {
	var out []string
	for _, n := range names {
		if strings.Contains(n, substr) {
			out = append(out, n)
		}
	}
	return out
}
