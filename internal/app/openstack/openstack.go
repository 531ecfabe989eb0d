// Package openstack defines the simulated OpenStack Kolla deployment used
// by the paper's root-cause-analysis case study (§4.2, §6.3): 16
// components (Nova, Neutron, Glance, Keystone services plus RabbitMQ,
// memcached, MariaDB and an haproxy front) exporting 508 metrics, and a
// fault switch reproducing Launchpad bug #1533942 — the crash of
// Neutron's Open vSwitch agent that leaves VM launches failing with
// "No valid host was found".
//
// Metric populations are phase-gated so the correct (C) and faulty (F)
// versions differ exactly as Table 5 reports: series on dead code paths
// disappear (discarded), error-path series are created lazily (new). The
// headline pair is Nova API's nova_instances_in_state_ACTIVE (C only)
// versus nova_instances_in_state_ERROR (F only), linked to Neutron
// server's neutron_ports_in_status_DOWN (F only).
package openstack

import (
	"fmt"

	"github.com/sieve-microservices/sieve/internal/app"
)

// TickMS is the simulation step.
const TickMS = 500

// population pins a component's Table 5 metric counts.
type population struct {
	total     int // metrics in the union of both versions
	discarded int // present in C only (PhaseHealthyOnly)
	new       int // present in F only (PhaseFaultyOnly)
}

// populations reproduces Table 5's Changed (New/Discarded) and Total
// columns per component.
var populations = map[string]population{
	"nova-api":           {total: 59, discarded: 22, new: 7},
	"nova-libvirt":       {total: 39, discarded: 21, new: 0},
	"nova-scheduler":     {total: 30, discarded: 7, new: 7},
	"neutron-server":     {total: 42, discarded: 10, new: 2},
	"rabbitmq":           {total: 57, discarded: 6, new: 5},
	"neutron-l3-agent":   {total: 39, discarded: 7, new: 0},
	"nova-novncproxy":    {total: 12, discarded: 7, new: 0},
	"glance-api":         {total: 27, discarded: 5, new: 0},
	"neutron-dhcp-agent": {total: 35, discarded: 4, new: 0},
	"nova-compute":       {total: 41, discarded: 3, new: 0},
	"glance-registry":    {total: 23, discarded: 3, new: 0},
	"haproxy":            {total: 14, discarded: 1, new: 1},
	"nova-conductor":     {total: 29, discarded: 2, new: 0},
	"keystone":           {total: 21},
	"mariadb":            {total: 20},
	"memcached":          {total: 20},
}

// namedFamilies returns the hand-written, semantically meaningful metric
// families per component, including the Fig. 8 headline metrics. All
// remaining budget is filled with generated families.
func namedFamilies(name string) []app.Family {
	switch name {
	case "nova-api":
		return []app.Family{
			{Base: "nova_instances_in_state_ACTIVE", Driver: app.DriverRate, Scale: 4, Noise: 0.05, Phase: app.PhaseHealthyOnly},
			{Base: "nova_instances_launched_total", Driver: app.DriverRate, Counter: true, Phase: app.PhaseHealthyOnly},
			{Base: "nova_instances_in_state_ERROR", Driver: app.DriverErrors, Scale: 3, Noise: 0.05, Phase: app.PhaseFaultyOnly},
			{Base: "nova_boot_failures_total", Driver: app.DriverErrors, Counter: true, Phase: app.PhaseFaultyOnly},
			{Base: "nova_api_request_time", Driver: app.DriverLatency, Scale: 1, Noise: 0.05,
				Variants: []string{"mean", "p95"}},
			{Base: "nova_api_requests_total", Driver: app.DriverRate, Counter: true},
		}
	case "neutron-server":
		return []app.Family{
			{Base: "neutron_ports_in_status_ACTIVE", Driver: app.DriverRate, Scale: 6, Noise: 0.05, Phase: app.PhaseHealthyOnly},
			{Base: "neutron_ports_in_status_DOWN", Driver: app.DriverErrors, Scale: 5, Noise: 0.05, Phase: app.PhaseFaultyOnly},
			{Base: "neutron_port_create_time_ms", Driver: app.DriverLatency, Scale: 0.8, Noise: 0.06},
			{Base: "neutron_api_requests_total", Driver: app.DriverRate, Counter: true},
		}
	case "rabbitmq":
		return app.QueueBrokerFamilies() // includes messages, messages_ack-diff
	case "nova-libvirt":
		return []app.Family{
			{Base: "usage", Driver: app.DriverUtil, Scale: 100, Noise: 0.05},
			{Base: "active_anon", Driver: app.DriverMemory, Scale: 1 << 18, Noise: 0.04},
			{Base: "domains_running", Driver: app.DriverRate, Scale: 2, Noise: 0.06, Phase: app.PhaseHealthyOnly},
			{Base: "vcpu_time_total", Driver: app.DriverUtil, Scale: 8, Counter: true, Phase: app.PhaseHealthyOnly},
		}
	case "nova-scheduler":
		return []app.Family{
			{Base: "scheduler_host_selections_total", Driver: app.DriverRate, Counter: true, Phase: app.PhaseHealthyOnly},
			{Base: "scheduler_no_valid_host_total", Driver: app.DriverErrors, Counter: true, Phase: app.PhaseFaultyOnly},
			{Base: "scheduler_run_time_ms", Driver: app.DriverOwnLatency, Scale: 1.2, Noise: 0.08},
		}
	default:
		return nil
	}
}

// Spec returns the OpenStack application spec. It panics if a component's
// named families plus constants exceed the Table 5 budget (a programming
// error caught by the package tests).
func Spec() app.Spec {
	host := func(i int) string { return fmt.Sprintf("10.2.0.%d:9000", i) }

	type def struct {
		name      string
		idx       int
		serviceMS float64
		capacity  float64
		entry     bool
		calls     []app.Call
		fault     *app.FaultImpact
		memMB     float64
	}
	defs := []def{
		{name: "haproxy", idx: 1, serviceMS: 1.5, capacity: 3000, entry: true,
			calls: []app.Call{
				{Target: "nova-api", Prob: 0.55},
				{Target: "keystone", Prob: 0.2},
				{Target: "glance-api", Prob: 0.1},
				{Target: "neutron-server", Prob: 0.1},
				{Target: "nova-novncproxy", Prob: 0.05},
			}, memMB: 96},
		{name: "nova-api", idx: 2, serviceMS: 25, capacity: 180,
			calls: []app.Call{
				{Target: "keystone", Prob: 0.8},
				{Target: "rabbitmq", Prob: 1.5},
				{Target: "mariadb", Prob: 1.0},
				{Target: "glance-api", Prob: 0.4},
				{Target: "neutron-server", Prob: 0.7},
			},
			fault: &app.FaultImpact{ErrorRate: 2.5, LatencyFactor: 1.3}, memMB: 512},
		{name: "rabbitmq", idx: 3, serviceMS: 2, capacity: 5000,
			calls: []app.Call{
				{Target: "nova-scheduler", Prob: 0.4},
				{Target: "nova-conductor", Prob: 0.6},
				{Target: "nova-compute", Prob: 0.5},
				{Target: "neutron-l3-agent", Prob: 0.2},
				{Target: "neutron-dhcp-agent", Prob: 0.2},
			},
			fault: &app.FaultImpact{UtilFactor: 1.2}, memMB: 384},
		{name: "nova-scheduler", idx: 4, serviceMS: 15, capacity: 300,
			calls: []app.Call{{Target: "mariadb", Prob: 0.6}},
			fault: &app.FaultImpact{UtilFactor: 1.4, ErrorRate: 1.5}, memMB: 256},
		{name: "nova-conductor", idx: 5, serviceMS: 8, capacity: 500,
			calls: []app.Call{{Target: "mariadb", Prob: 1.0}}, memMB: 256},
		{name: "nova-compute", idx: 6, serviceMS: 40, capacity: 120,
			calls: []app.Call{
				{Target: "nova-libvirt", Prob: 1.0},
				{Target: "neutron-server", Prob: 0.5},
				{Target: "glance-api", Prob: 0.3},
			},
			fault: &app.FaultImpact{DropRate: 0.7, ErrorRate: 1.0}, memMB: 768},
		{name: "nova-libvirt", idx: 7, serviceMS: 60, capacity: 80, memMB: 512},
		{name: "nova-novncproxy", idx: 8, serviceMS: 5, capacity: 600,
			calls: []app.Call{{Target: "nova-api", Prob: 0.5}}, memMB: 128},
		{name: "neutron-server", idx: 9, serviceMS: 20, capacity: 250,
			calls: []app.Call{
				{Target: "mariadb", Prob: 0.8},
				{Target: "rabbitmq", Prob: 0.4},
			},
			fault: &app.FaultImpact{ErrorRate: 4, LatencyFactor: 1.6}, memMB: 384},
		{name: "neutron-l3-agent", idx: 10, serviceMS: 12, capacity: 300,
			calls: []app.Call{{Target: "neutron-server", Prob: 0.3}},
			fault: &app.FaultImpact{DropRate: 0.5, ErrorRate: 0.5}, memMB: 192},
		{name: "neutron-dhcp-agent", idx: 11, serviceMS: 10, capacity: 300,
			calls: []app.Call{{Target: "neutron-server", Prob: 0.3}}, memMB: 192},
		{name: "glance-api", idx: 12, serviceMS: 18, capacity: 280,
			calls: []app.Call{
				{Target: "glance-registry", Prob: 0.9},
				{Target: "keystone", Prob: 0.3},
			}, memMB: 256},
		{name: "glance-registry", idx: 13, serviceMS: 7, capacity: 450,
			calls: []app.Call{{Target: "mariadb", Prob: 0.8}}, memMB: 192},
		{name: "keystone", idx: 14, serviceMS: 9, capacity: 800,
			calls: []app.Call{
				{Target: "mariadb", Prob: 0.7},
				{Target: "memcached", Prob: 1.2},
			}, memMB: 256},
		{name: "mariadb", idx: 15, serviceMS: 4, capacity: 4000, memMB: 1024},
		{name: "memcached", idx: 16, serviceMS: 0.5, capacity: 10000, memMB: 128},
	}

	comps := make([]app.ComponentSpec, 0, len(defs))
	for _, d := range defs {
		pop, ok := populations[d.name]
		if !ok {
			panic(fmt.Sprintf("openstack: no population for %q", d.name))
		}
		constants := map[string]float64{
			d.name + "_build_info": 1,
			d.name + "_version":    13,
			d.name + "_worker_cap": 8,
		}

		named := namedFamilies(d.name)
		var alwaysNamed, healthyNamed, faultyNamed int
		for _, f := range named {
			n := 1
			if len(f.Variants) > 0 {
				n = len(f.Variants)
			}
			switch f.Phase {
			case app.PhaseHealthyOnly:
				healthyNamed += n
			case app.PhaseFaultyOnly:
				faultyNamed += n
			default:
				alwaysNamed += n
			}
		}

		alwaysBudget := pop.total - pop.discarded - pop.new
		fillAlways := alwaysBudget - alwaysNamed - len(constants)
		fillHealthy := pop.discarded - healthyNamed
		fillFaulty := pop.new - faultyNamed
		if fillAlways < 0 || fillHealthy < 0 || fillFaulty < 0 {
			panic(fmt.Sprintf("openstack: %s over budget (always=%d healthy=%d faulty=%d)",
				d.name, fillAlways, fillHealthy, fillFaulty))
		}

		fams := append([]app.Family{}, named...)
		fams = append(fams, app.GenFamilies(d.name, fillAlways, app.PhaseAlways)...)
		fams = append(fams, app.GenFamilies(d.name+"_healthy", fillHealthy, app.PhaseHealthyOnly)...)
		fams = append(fams, app.GenFamilies(d.name+"_errpath", fillFaulty, app.PhaseFaultyOnly)...)

		comps = append(comps, app.ComponentSpec{
			Name:                d.name,
			Addr:                host(d.idx),
			ServiceMS:           d.serviceMS,
			CapacityPerInstance: d.capacity,
			Instances:           1,
			Entry:               d.entry,
			Calls:               d.calls,
			Families:            fams,
			Constants:           constants,
			MemBaseMB:           d.memMB,
			Fault:               d.fault,
		})
	}
	return app.Spec{Name: "openstack", TickMS: TickMS, Components: comps}
}

// New builds a ready-to-run OpenStack simulation; faulty selects the
// version with Launchpad bug #1533942 active.
func New(seed int64, faulty bool) (*app.App, error) {
	a, err := app.New(Spec(), seed)
	if err != nil {
		return nil, err
	}
	a.SetFault(faulty)
	return a, nil
}
