// Package app is a deterministic discrete-event simulator for
// microservices-based applications: the experiment substrate standing in
// for the paper's real ShareLatex and OpenStack deployments. Components
// form a call graph; external load enters at entry components and
// propagates downstream with a one-tick lag, which is precisely the
// delayed predictive structure Sieve's Granger analysis is designed to
// find. Every component exports metric families through a
// metrics.Registry (system metrics, app metrics, redundant variants,
// constants, and lazily-created error-path series), the simulated socket
// layer emits sysdig-style syscall events for call-graph extraction,
// instance counts can be scaled at runtime for the autoscaling case
// study, and a global fault switch reproduces version-to-version
// anomalies for the RCA case study.
package app

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/sieve-microservices/sieve/internal/metrics"
	"github.com/sieve-microservices/sieve/internal/trace"
)

// Driver identifies which piece of simulated component state feeds a
// metric family.
type Driver int

// Drivers for metric families.
const (
	// DriverUtil is the component's utilization in [0, ~1.2].
	DriverUtil Driver = iota + 1
	// DriverRate is the arrival rate (requests/second).
	DriverRate
	// DriverLatency is the end-to-end latency at this component (ms),
	// including lagged downstream contributions.
	DriverLatency
	// DriverOwnLatency is the component-local latency (ms).
	DriverOwnLatency
	// DriverErrors is the error rate (errors/second).
	DriverErrors
	// DriverMemory is the memory footprint (bytes-scale driver).
	DriverMemory
	// DriverQueue is the queue depth (requests).
	DriverQueue
	// DriverConst is a constant 1.0 (for build-info style metrics that the
	// variance filter must discard).
	DriverConst
)

// Phase gates a metric family on the application's fault state. Series
// are created lazily on first write, exactly like Ceilometer/Telegraf
// deployments: an error-path series does not exist until the error path
// runs, and a healthy-path series stops being produced when its code path
// dies. This is what makes metric populations differ between the paper's
// correct and faulty versions (Table 5).
type Phase int

// Family phases.
const (
	// PhaseAlways emits in both versions.
	PhaseAlways Phase = iota + 1
	// PhaseHealthyOnly emits only while no fault is active.
	PhaseHealthyOnly
	// PhaseFaultyOnly emits only while the fault is active.
	PhaseFaultyOnly
)

// Family declares a group of related exported metrics derived from one
// driver: one metric per variant suffix, each with its own deterministic
// distortion, mirroring how real components export redundant views of the
// same signal ("cpu_usage", "cpu_usage_percentile", ...).
type Family struct {
	// Base is the metric name prefix.
	Base string
	// Driver selects the state signal.
	Driver Driver
	// Variants are name suffixes; an empty string uses Base alone.
	Variants []string
	// Scale multiplies the driver value.
	Scale float64
	// Noise is the relative noise standard deviation per sample.
	Noise float64
	// Counter accumulates value*dt into a monotone counter instead of
	// setting a gauge (produces the paper's non-stationary series).
	Counter bool
	// Phase gates emission on the fault state (default PhaseAlways).
	Phase Phase
}

// Call declares a downstream dependency: each request arriving at the
// owner triggers Prob calls to Target (may exceed 1 for fan-out).
type Call struct {
	// Target is the callee component name.
	Target string
	// Prob is the expected number of downstream calls per request.
	Prob float64
}

// FaultImpact describes how an active fault distorts one component.
type FaultImpact struct {
	// ErrorRate adds a fixed error rate (errors/second).
	ErrorRate float64
	// UtilFactor multiplies utilization (e.g. retry storms); 0 means 1.
	UtilFactor float64
	// LatencyFactor multiplies own latency; 0 means 1.
	LatencyFactor float64
	// DropRate multiplies the request flow forwarded downstream
	// (0 keeps all, 1 drops everything).
	DropRate float64
}

// ComponentSpec declares one microservice component.
type ComponentSpec struct {
	// Name is the component name (unique).
	Name string
	// Addr is the simulated listen address ("10.0.0.k:port").
	Addr string
	// ServiceMS is the base service time per request in milliseconds.
	ServiceMS float64
	// CapacityPerInstance is requests/second one instance sustains.
	CapacityPerInstance float64
	// Instances is the initial instance count (>= 1).
	Instances int
	// Entry marks a component receiving external load.
	Entry bool
	// Calls are downstream dependencies.
	Calls []Call
	// Families are the exported metric groups.
	Families []Family
	// Constants are metrics exported once with fixed values (version
	// numbers, limits) that the variance filter must remove.
	Constants map[string]float64
	// MemBaseMB is the idle memory footprint.
	MemBaseMB float64
	// Fault, when non-nil, is applied while the application fault is
	// active.
	Fault *FaultImpact
}

// Spec declares a full application.
type Spec struct {
	// Name labels the application.
	Name string
	// TickMS is the simulation step in milliseconds.
	TickMS int64
	// Components are the microservices.
	Components []ComponentSpec
}

// component is the runtime state of one microservice.
type component struct {
	spec      ComponentSpec
	reg       *metrics.Registry
	instances int
	rng       *rand.Rand

	// Current-tick signals.
	arrival    float64
	util       float64
	ownLatency float64
	latency    float64
	errRate    float64
	memMB      float64
	queue      float64

	// Previous-tick signals (the propagation lag Granger detects).
	prevArrival float64
	prevLatency float64

	memDrift float64
}

// App is a running application simulation.
type App struct {
	spec   Spec
	comps  map[string]*component
	order  []string
	nowMS  int64
	fault  bool
	tracer *trace.Tracer
	// nextEphemeral hands out client port numbers for trace events.
	nextEphemeral int
	rng           *rand.Rand
}

// New builds an application from its spec. Component names must be
// unique, calls must reference declared components, and every component
// needs positive capacity.
func New(spec Spec, seed int64) (*App, error) {
	if spec.TickMS <= 0 {
		return nil, fmt.Errorf("app: non-positive tick %d", spec.TickMS)
	}
	if len(spec.Components) == 0 {
		return nil, fmt.Errorf("app: %q has no components", spec.Name)
	}
	a := &App{
		spec:          spec,
		comps:         map[string]*component{},
		nextEphemeral: 40000,
		rng:           rand.New(rand.NewSource(seed)),
	}
	for _, cs := range spec.Components {
		if _, dup := a.comps[cs.Name]; dup {
			return nil, fmt.Errorf("app: duplicate component %q", cs.Name)
		}
		if cs.CapacityPerInstance <= 0 {
			return nil, fmt.Errorf("app: component %q has non-positive capacity", cs.Name)
		}
		inst := cs.Instances
		if inst < 1 {
			inst = 1
		}
		c := &component{
			spec:      cs,
			reg:       metrics.NewRegistry(cs.Name),
			instances: inst,
			rng:       rand.New(rand.NewSource(seed ^ int64(hashName(cs.Name)))),
			memMB:     cs.MemBaseMB,
		}
		a.comps[cs.Name] = c
		a.order = append(a.order, cs.Name)
	}
	sort.Strings(a.order)
	for _, cs := range spec.Components {
		for _, call := range cs.Calls {
			if _, ok := a.comps[call.Target]; !ok {
				return nil, fmt.Errorf("app: %q calls unknown component %q", cs.Name, call.Target)
			}
		}
	}
	// Export constants immediately; they exist from the first scrape.
	for _, c := range a.comps {
		for name, v := range c.spec.Constants {
			c.reg.Gauge(name).Set(v)
		}
	}
	return a, nil
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Name returns the application name.
func (a *App) Name() string { return a.spec.Name }

// Now returns the simulation clock in milliseconds.
func (a *App) Now() int64 { return a.nowMS }

// TickMS returns the simulation step.
func (a *App) TickMS() int64 { return a.spec.TickMS }

// Components returns the component names in sorted order.
func (a *App) Components() []string {
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// Registry returns the metric registry of a component, or nil when the
// component does not exist.
func (a *App) Registry(name string) *metrics.Registry {
	c := a.comps[name]
	if c == nil {
		return nil
	}
	return c.reg
}

// Registries returns all registries in component-name order.
func (a *App) Registries() []*metrics.Registry {
	out := make([]*metrics.Registry, 0, len(a.order))
	for _, n := range a.order {
		out = append(out, a.comps[n].reg)
	}
	return out
}

// AttachTracer installs a sysdig-like tracer receiving socket events.
func (a *App) AttachTracer(t *trace.Tracer) { a.tracer = t }

// SetFault toggles the application-wide fault (the RCA case study's
// faulty version).
func (a *App) SetFault(active bool) { a.fault = active }

// Scale sets a component's instance count (minimum 1).
func (a *App) Scale(name string, instances int) error {
	c := a.comps[name]
	if c == nil {
		return fmt.Errorf("app: unknown component %q", name)
	}
	if instances < 1 {
		instances = 1
	}
	c.instances = instances
	return nil
}

// Instances returns a component's instance count (0 for unknown names).
func (a *App) Instances(name string) int {
	c := a.comps[name]
	if c == nil {
		return 0
	}
	return c.instances
}

// Utilization returns a component's current utilization (0 for unknown).
func (a *App) Utilization(name string) float64 {
	c := a.comps[name]
	if c == nil {
		return 0
	}
	return c.util
}

// EntryLatencyMS returns the end-to-end latency currently observed at the
// first entry component, the quantity SLAs are written against.
func (a *App) EntryLatencyMS() float64 {
	for _, n := range a.order {
		if a.comps[n].spec.Entry {
			return a.comps[n].latency
		}
	}
	return 0
}

// Step advances the simulation one tick with the given external load
// (requests/second) applied to every entry component.
func (a *App) Step(externalRPS float64) {
	if externalRPS < 0 {
		externalRPS = 0
	}

	// Phase 1: compute this tick's arrivals from external load plus the
	// previous tick's upstream flows (one-tick propagation lag).
	arrivals := map[string]float64{}
	for _, n := range a.order {
		c := a.comps[n]
		if c.spec.Entry {
			arrivals[n] += externalRPS
		}
	}
	for _, n := range a.order {
		c := a.comps[n]
		flow := c.prevArrival
		if a.fault && c.spec.Fault != nil && c.spec.Fault.DropRate > 0 {
			flow *= 1 - math.Min(c.spec.Fault.DropRate, 1)
		}
		for _, call := range c.spec.Calls {
			arrivals[call.Target] += flow * call.Prob
		}
	}

	// Phase 2: update every component's state from its arrivals, then
	// fold in the callees' lagged latency (end-to-end latency responds to
	// downstream congestion one tick later — the structure Granger finds).
	for _, n := range a.order {
		a.comps[n].update(arrivals[n], a.fault)
	}
	for _, n := range a.order {
		a.comps[n].addDownstreamLatency(func(target string) float64 {
			return a.comps[target].prevLatency
		})
	}

	// Phase 3: export metrics and emit trace traffic.
	dt := float64(a.spec.TickMS) / 1000
	for _, n := range a.order {
		a.comps[n].export(dt, a.fault, a.comps[n].rng)
	}
	a.emitTraffic()

	// Phase 4: roll the lagged state and advance the clock.
	for _, n := range a.order {
		c := a.comps[n]
		c.prevArrival = c.arrival
		c.prevLatency = c.latency
	}
	a.nowMS += a.spec.TickMS
}

// update recomputes a component's signals for this tick.
func (c *component) update(arrival float64, fault bool) {
	c.arrival = arrival
	capacity := float64(c.instances) * c.spec.CapacityPerInstance
	util := arrival / capacity
	latFactor := 1.0
	errRate := 0.0

	if fault && c.spec.Fault != nil {
		f := c.spec.Fault
		if f.UtilFactor > 0 {
			util *= f.UtilFactor
		}
		if f.LatencyFactor > 0 {
			latFactor = f.LatencyFactor
		}
		errRate += f.ErrorRate
	}
	c.util = util

	// Queueing growth: service time stretched as utilization approaches
	// saturation (an M/M/1-flavoured fluid approximation, capped), plus
	// an unbounded backlog term past saturation — overload latency grows
	// with the excess arrival rate instead of plateauing, so saturating a
	// component visibly breaks latency SLAs.
	effUtil := math.Min(util, 0.95)
	c.ownLatency = c.spec.ServiceMS * latFactor * (1 + effUtil/(1-effUtil))
	if util > 1 {
		c.ownLatency += c.spec.ServiceMS * latFactor * (util - 1) * 25
	}

	// Overload sheds requests as errors.
	if util > 1 {
		errRate += (util - 1) * capacity
	}
	c.errRate = errRate

	// End-to-end latency: own latency plus the lagged latency of callees,
	// weighted by call probability (the previous tick's value — the
	// causality lag).
	c.latency = c.ownLatency
	c.queue = arrival * c.ownLatency / 1000

	// Memory: base + utilization coupling + slow random-walk drift.
	c.memDrift += c.rng.NormFloat64() * 0.1
	if c.memDrift < -c.spec.MemBaseMB/4 {
		c.memDrift = -c.spec.MemBaseMB / 4
	}
	c.memMB = c.spec.MemBaseMB*(1+0.5*math.Min(util, 2)) + c.memDrift
}

// addDownstreamLatency folds callee latency into the caller; called by
// App.Step via export after all updates so the lagged values are used.
func (c *component) addDownstreamLatency(getPrevLatency func(string) float64) {
	for _, call := range c.spec.Calls {
		frac := call.Prob
		if frac > 1 {
			frac = 1 // parallel fan-out: latency adds once
		}
		c.latency += frac * getPrevLatency(call.Target)
	}
}

// export writes every metric family for this tick.
func (c *component) export(dt float64, fault bool, rng *rand.Rand) {
	for _, fam := range c.spec.Families {
		switch fam.Phase {
		case PhaseHealthyOnly:
			if fault {
				continue
			}
		case PhaseFaultyOnly:
			if !fault {
				continue
			}
		}
		base := c.driverValue(fam.Driver) * scaleOr1(fam.Scale)
		variants := fam.Variants
		if len(variants) == 0 {
			variants = []string{""}
		}
		for vi, suffix := range variants {
			name := fam.Base
			if suffix != "" {
				name = fam.Base + "_" + suffix
			}
			// Each variant is a deterministic distortion of the driver:
			// same shape, different scale/offset, plus sampling noise —
			// what k-Shape must cluster back together.
			v := base * (1 + 0.15*float64(vi))
			if fam.Noise > 0 {
				v += rng.NormFloat64() * fam.Noise * (math.Abs(base) + 1e-9)
			}
			if fam.Counter {
				c.reg.Counter(name).Inc(math.Max(v, 0) * dt)
			} else {
				c.reg.Gauge(name).Set(v)
			}
		}
	}
}

func (c *component) driverValue(d Driver) float64 {
	switch d {
	case DriverUtil:
		// Reported CPU saturates below the true backlog: IO- and
		// event-loop-bound services (node.js, API servers) peg their
		// bottleneck resource while host CPU plateaus, which is why CPU
		// is a poor SLA proxy — the paper's core motivation. True
		// utilization remains visible via latency and queue drivers.
		return 1 - math.Exp(-0.9*c.util)
	case DriverRate:
		return c.arrival
	case DriverLatency:
		return c.latency
	case DriverOwnLatency:
		return c.ownLatency
	case DriverErrors:
		return c.errRate
	case DriverMemory:
		return c.memMB
	case DriverQueue:
		return c.queue
	case DriverConst:
		return 1
	default:
		return 0
	}
}

func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// emitTraffic generates syscall events for each active edge:
// one connection handshake plus a request/response byte exchange per tick
// per edge (bounded, so the tracer load stays realistic).
func (a *App) emitTraffic() {
	if a.tracer == nil {
		return
	}
	for _, n := range a.order {
		c := a.comps[n]
		if c.arrival <= 0 {
			continue
		}
		for _, call := range c.spec.Calls {
			target := a.comps[call.Target]
			flow := c.arrival * call.Prob
			if flow <= 0 {
				continue
			}
			clientAddr := fmt.Sprintf("%s:%d", hostOf(c.spec.Addr), a.nextEphemeral)
			a.nextEphemeral++
			if a.nextEphemeral > 60000 {
				a.nextEphemeral = 40000
			}
			reqBytes := 200 + int(flow)
			respBytes := 500 + int(flow*3)

			a.tracer.Emit(trace.Event{TimeMS: a.nowMS, Process: c.spec.Name, Type: trace.EventConnect, Local: clientAddr, Remote: target.spec.Addr})
			a.tracer.Emit(trace.Event{TimeMS: a.nowMS, Process: target.spec.Name, Type: trace.EventAccept, Local: target.spec.Addr, Remote: clientAddr})
			a.tracer.Emit(trace.Event{TimeMS: a.nowMS, Process: c.spec.Name, Type: trace.EventWrite, Local: clientAddr, Remote: target.spec.Addr, Bytes: reqBytes})
			a.tracer.Emit(trace.Event{TimeMS: a.nowMS, Process: target.spec.Name, Type: trace.EventRead, Local: target.spec.Addr, Remote: clientAddr, Bytes: reqBytes})
			a.tracer.Emit(trace.Event{TimeMS: a.nowMS, Process: target.spec.Name, Type: trace.EventWrite, Local: target.spec.Addr, Remote: clientAddr, Bytes: respBytes})
			a.tracer.Emit(trace.Event{TimeMS: a.nowMS, Process: c.spec.Name, Type: trace.EventClose, Local: clientAddr, Remote: target.spec.Addr})
		}
	}
}

func hostOf(addr string) string {
	for i := 0; i < len(addr); i++ {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}
