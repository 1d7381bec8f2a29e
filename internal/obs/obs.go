// Package obs is the stdlib-only observability layer of the serving
// stack: atomic counters and gauges, fixed-bucket latency histograms, a
// labeled metric Registry that renders the Prometheus and OpenMetrics
// text exposition formats (the latter with trace exemplars) and
// publishes itself through expvar, a per-request span tree (SpanTrace /
// Span) that is the one record of where a request's time went — its
// stages (parse → target → extract → serialize) are read off it for
// Server-Timing headers, structured log fields and stage histograms
// (Stages) — with W3C traceparent propagation, a bounded TraceRegistry
// of sampled traces served as /debug/traces in OTLP-compatible JSON,
// and always-on runtime telemetry sampled from runtime/metrics.
//
// The package exists so that performance claims about fragment serving
// are measured by the server itself rather than by ad-hoc external
// benchmarks: internal/fragserver roots a SpanTrace for every request
// and carries the root in the request context, handlers open a child
// per stage, and internal/core opens sub-stage, per-shard and exec
// breakdown children under the span it is handed. Head sampling decides
// only which finished trees are kept; exemplar-aware histograms link
// each latency bucket to the trace ID of the last kept request that
// landed in it.
//
// # Concurrency
//
// Every metric type is safe for concurrent use without external locking:
// Counter, Gauge and Histogram update via sync/atomic, and the Registry
// guards its name table with a mutex while reads of registered metrics
// are lock-free. A Span publishes children by CAS and accumulates
// durations atomically, so one request's handler and the worker
// goroutines it fans out may grow the same tree concurrently. Rendering
// (WritePrometheus, Snapshot, Stages) takes point-in-time snapshots and
// may run while updates continue.
//
// # Costs
//
// A counter increment is one atomic add; a histogram observation is two
// atomic adds plus a branchless bucket search over a small fixed bound
// slice. Nothing allocates on the hot path, so instrumented serving code
// can leave metrics enabled unconditionally. A span costs one allocation
// and a CAS to open and an atomic add to end; spans are opened per stage
// and accumulated by name per work unit, so a request's tree has a
// constant number of them. Span methods are nil-safe no-ops: code that
// runs outside a request carries a nil span and pays one branch per call.
package obs
