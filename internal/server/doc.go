// Package server turns the batch Sieve pipeline into a long-running
// service: sieved. It exposes the InfluxDB-style line protocol over
// HTTP (POST /write), backed by the hash-partitioned tsdb.Sharded store
// so concurrent writers scale with cores, and keeps the pipeline's
// Artifact fresh by re-running Reduce + Granger over a sliding time
// window of the ingested data (the online driver in online.go). Each
// cycle publishes its analysis — with the live autoscaling signal from
// MostFrequentMetric — as one immutable generation, which GET /artifact
// serializes when it is first read.
//
// Endpoints (Server.routes, pinned by testdata/routes.txt):
//
//	POST /write          line-protocol batch; 204 + X-Sieve-Samples on success
//	POST /api/v1/write   Prometheus remote write 1.0 (snappy protobuf); same ack
//	GET  /query_range    ?component=&metric=&from=&to=&agg=&step= -> JSON
//	                     results per matched series (globs; 200 with no
//	                     results when nothing matches)
//	GET  /stats          store + server counters
//	GET  /artifact       latest pipeline output (404 until the first run);
//	                     encoded once per generation, on its first read,
//	                     and written without holding any server lock
//	POST /callgraph      JSON [{"caller","callee","calls"}] topology upload
//	POST /run            force one synchronous pipeline run
//	GET  /metrics        Prometheus text exposition of every instrument
//	GET  /healthz        liveness: always 200, readiness detail in the body
//	GET  /readyz         readiness: 503 while any check fails
//	GET  /debug/traces   slow-op ring, slowest first (?n= bounds the count)
//
// # Durability
//
// With Options.DataDir set, the store is the durable engine of
// internal/tsdb: every acknowledged write is covered by a per-shard
// write-ahead log, a background flusher seals memory into immutable
// Gorilla-compressed blocks, and Options.Retention bounds disk use. New
// recovers the previous life's data — block files plus WAL replay —
// before the server takes traffic, so a restarted sieved anchors its
// sliding analysis window at the recovered application high-water mark
// (tsdb.Sharded.AppMaxTime), after a graceful stop or a crash, and answers
// /query_range byte-identically to the store that was killed. ListenAndServe
// checkpoints and closes the store on graceful shutdown; embedders
// using Handler call Server.Close themselves.
//
// # Window assembly
//
// Every cycle reads its whole window from the store: the online driver
// calls core.DatasetFromDB afresh, and no dataset state carries from one
// cycle to the next, so a late write, a restart or a failed cycle needs
// no special handling. Options.Incremental selects only the window's
// shape: ends align down to the sampling grid, so consecutive windows
// slide by whole steps. Reduce and Granger run the same exact
// computation every cycle. RunInfo and /stats break every cycle down
// per stage.
//
// # Observability
//
// The server keeps no metric registry of its own: New registers its
// instruments and the store-state gauges on the one the store was born
// with (tsdb.Sharded.Registry), so GET /metrics, the self-scrape loop
// and embedders (srv.Store().Registry()) read the same object.
package server
