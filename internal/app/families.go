package app

import "fmt"

// SystemFamilies returns the standard per-component system metric set
// (CPU, memory, network, disk, load, runtime), 25 metrics in the shape a
// Telegraf host agent exports. The same signal appears in several
// correlated variants, which is exactly the redundancy k-Shape collapses.
func SystemFamilies() []Family {
	return []Family{
		// CPU sampling over sub-second windows is jittery in real hosts;
		// app-level latency aggregates are much smoother. The noise gap
		// is what makes latency metrics more Granger-predictive (and thus
		// the paper's preferred scaling signals).
		{Base: "cpu_usage", Driver: DriverUtil, Scale: 100, Noise: 0.25,
			Variants: []string{"", "user", "system", "iowait", "percentile_95"}}, // 5
		{Base: "cpu_seconds_total", Driver: DriverUtil, Scale: 4, Counter: true},                  // 1
		{Base: "load", Driver: DriverQueue, Scale: 1, Noise: 0.3, Variants: []string{"1m", "5m"}}, // 2
		{Base: "memory", Driver: DriverMemory, Scale: 1 << 20, Noise: 0.02,
			Variants: []string{"rss_bytes", "heap_bytes", "working_set_bytes", "cache_bytes"}}, // 4
		{Base: "net", Driver: DriverRate, Scale: 900, Noise: 0.12, Counter: true,
			Variants: []string{"in_bytes_total", "out_bytes_total", "in_packets_total", "out_packets_total"}}, // 4
		{Base: "net_rx_rate", Driver: DriverRate, Scale: 900, Noise: 0.15},  // 1
		{Base: "net_tx_rate", Driver: DriverRate, Scale: 2100, Noise: 0.15}, // 1
		{Base: "disk", Driver: DriverRate, Scale: 120, Noise: 0.15, Counter: true,
			Variants: []string{"read_bytes_total", "write_bytes_total", "io_time_seconds_total"}}, // 3
		{Base: "open_fds", Driver: DriverQueue, Scale: 6, Noise: 0.1},                              // 1
		{Base: "threads", Driver: DriverUtil, Scale: 30, Noise: 0.05},                              // 1
		{Base: "context_switches_total", Driver: DriverRate, Scale: 40, Noise: 0.2, Counter: true}, // 1
		{Base: "uptime_seconds_total", Driver: DriverConst, Counter: true},                         // 1
	}
}

// HTTPServiceFamilies returns the app-level metric set of an HTTP-serving
// component: request rates, latency percentiles, error tracking, queue
// depths. prefix names the request family; the paper's ShareLatex hub
// metric is web's "http-requests_Project_id_GET_mean".
func HTTPServiceFamilies(prefix string) []Family {
	return []Family{
		{Base: prefix, Driver: DriverLatency, Scale: 1, Noise: 0.04,
			Variants: []string{"mean", "p50", "p95", "p99", "max"}}, // 5
		{Base: prefix + "_count_total", Driver: DriverRate, Counter: true},     // 1
		{Base: "http_request_rate", Driver: DriverRate, Scale: 1, Noise: 0.12}, // 1
		{Base: "http_requests_total", Driver: DriverRate, Counter: true},       // 1
		{Base: "http_5xx_rate", Driver: DriverErrors, Scale: 1, Noise: 0.1},    // 1
		{Base: "http_5xx_total", Driver: DriverErrors, Counter: true},          // 1
		{Base: "http_queue", Driver: DriverQueue, Scale: 1, Noise: 0.08,
			Variants: []string{"depth", "backlog"}}, // 2
		{Base: "http_inflight_requests", Driver: DriverQueue, Scale: 0.8, Noise: 0.1},   // 1
		{Base: "response_time_own_ms", Driver: DriverOwnLatency, Scale: 1, Noise: 0.05}, // 1
		{Base: "event_loop_lag_ms", Driver: DriverOwnLatency, Scale: 0.08, Noise: 0.15}, // 1
		{Base: "gc_pause_ms", Driver: DriverMemory, Scale: 0.01, Noise: 0.25},           // 1
		{Base: "active_sessions", Driver: DriverRate, Scale: 2.5, Noise: 0.15},          // 1
	}
}

// DatastoreFamilies returns the metric set of a database-style component
// (query latencies, operation counters, connection pools, cache
// behaviour).
func DatastoreFamilies(kind string) []Family {
	return []Family{
		{Base: kind + "_query_time", Driver: DriverLatency, Scale: 0.7, Noise: 0.05,
			Variants: []string{"mean", "p95", "p99"}}, // 3
		{Base: kind + "_ops", Driver: DriverRate, Scale: 1, Noise: 0.12, Counter: true,
			Variants: []string{"insert_total", "query_total", "update_total", "delete_total"}}, // 4
		{Base: kind + "_ops_rate", Driver: DriverRate, Scale: 1, Noise: 0.12}, // 1
		{Base: kind + "_connections", Driver: DriverQueue, Scale: 3, Noise: 0.08,
			Variants: []string{"active", "idle", "waiting"}}, // 3
		{Base: kind + "_slow_queries_total", Driver: DriverErrors, Scale: 0.3, Counter: true},         // 1
		{Base: kind + "_lock_wait_ms", Driver: DriverOwnLatency, Scale: 0.3, Noise: 0.15},             // 1
		{Base: kind + "_cache_hit_ratio", Driver: DriverConst, Scale: 0.93, Noise: 0.01},              // 1
		{Base: kind + "_cache_used_bytes", Driver: DriverMemory, Scale: 1 << 19, Noise: 0.03},         // 1
		{Base: kind + "_wal_bytes_total", Driver: DriverRate, Scale: 300, Noise: 0.15, Counter: true}, // 1
	}
}

// QueueBrokerFamilies returns the metric set of a message broker
// (RabbitMQ-style): message counters, queue depths, consumer stats.
func QueueBrokerFamilies() []Family {
	return []Family{
		{Base: "messages", Driver: DriverQueue, Scale: 4, Noise: 0.1,
			Variants: []string{"", "ready", "unacknowledged"}}, // 3
		{Base: "messages_ack-diff", Driver: DriverRate, Scale: 0.9, Noise: 0.1},               // 1
		{Base: "messages_published_total", Driver: DriverRate, Counter: true},                 // 1
		{Base: "messages_delivered_total", Driver: DriverRate, Scale: 0.98, Counter: true},    // 1
		{Base: "messages_redelivered_total", Driver: DriverErrors, Scale: 0.5, Counter: true}, // 1
		{Base: "consumers", Driver: DriverConst, Scale: 12, Noise: 0.02},                      // 1
		{Base: "channel_count", Driver: DriverQueue, Scale: 1.5, Noise: 0.05},                 // 1
		{Base: "publish_rate", Driver: DriverRate, Scale: 1, Noise: 0.12},                     // 1
		{Base: "deliver_rate", Driver: DriverRate, Scale: 0.97, Noise: 0.12},                  // 1
	}
}

// GenFamilies generates n single-metric families named prefix_0..n-1 with
// drivers, scales and noise rotating deterministically — the long tail of
// component-specific metrics every real service exports. All families get
// the given phase; OpenStack's Table 5 metric populations are built from
// these.
func GenFamilies(prefix string, n int, phase Phase) []Family {
	drivers := []Driver{DriverUtil, DriverRate, DriverLatency, DriverQueue, DriverMemory, DriverOwnLatency}
	if phase != PhaseAlways {
		// Phase-gated metrics belong to one code path (a healthy-path
		// feature or an error path), so they co-move: error-path series
		// track the error rate and the request flow that triggers it.
		// Concentrating their drivers makes them cluster together, as the
		// paper observed for its novel metrics (§6.3 step 3).
		drivers = []Driver{DriverRate, DriverErrors}
	}
	out := make([]Family, 0, n)
	for i := 0; i < n; i++ {
		d := drivers[i%len(drivers)]
		noise := 0.04 + 0.02*float64(i%4)
		switch d {
		case DriverUtil:
			// Utilization-derived metrics carry the jitter of sub-second
			// CPU sampling (see SystemFamilies).
			noise += 0.2
		case DriverRate:
			// Rate metrics carry Poisson counting noise over the 500 ms
			// sampling buckets.
			noise += 0.08
		}
		out = append(out, Family{
			Base:    fmt.Sprintf("%s_%02d", prefix, i),
			Driver:  d,
			Scale:   1 + float64(i%9)*0.5,
			Noise:   noise,
			Counter: i%11 == 7,
			Phase:   phase,
		})
	}
	return out
}
