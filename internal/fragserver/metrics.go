package fragserver

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"shaclfrag/internal/obs"
	"shaclfrag/internal/shapelint"
)

// Metric names exported on /metrics. docs/OPERATIONS.md carries the
// operator-facing catalog; keep the two in sync.
const (
	mRequestsTotal   = "fragserver_requests_total"
	mRequestDuration = "fragserver_request_duration_seconds"
	mStageDuration   = "fragserver_stage_duration_seconds"
	mResponseBytes   = "fragserver_response_bytes_total"
	mInflight        = "fragserver_inflight_requests"
	mShedTotal       = "fragserver_requests_shed_total"
	mPanicsTotal     = "fragserver_panics_total"
	mLintFindings    = "fragserver_schema_lint_findings"
	mExplainTriples  = "fragserver_explain_triples_total"
	mExplainJust     = "fragserver_explain_justifications_total"
	mEpoch           = "fragserver_epoch"
	mUpdateTotal     = "fragserver_update_total"
	mUpdateTriples   = "fragserver_update_triples_total"
	mPlanInstrs      = "fragserver_plan_instructions"
	mContainClasses  = "fragserver_containment_classes"
	mContainShared   = "fragserver_containment_shared_shapes"
	mSubsOpen        = "fragserver_subscribers"
	mSubsTotal       = "fragserver_subscriptions_total"
	mSubsEvicted     = "fragserver_subscribers_evicted_total"
	mSubsResumed     = "fragserver_subscriptions_resumed_total"
	mLiveEvents      = "fragserver_live_events_total"
	mLiveShapes      = "fragserver_live_shapes"
	mLiveReextract   = "fragserver_live_reextracted_total"
	mLiveDelta       = "fragserver_live_delta_triples_total"
	mTracesKept      = "fragserver_traces_kept"
	mTracesSampled   = "fragserver_traces_sampled_total"
	mTracesDropped   = "fragserver_traces_dropped_total"
	mTracesEvicted   = "fragserver_traces_evicted_total"
)

// routeNames are the label values for the route label; requests outside
// the mux's route set are folded into "other" so label cardinality stays
// bounded no matter what paths clients probe.
var routeNames = []string{
	"/validate", "/fragment", "/node", "/explain", "/tpf", "/update",
	"/subscribe", "/healthz", "/readyz", "/stats", "/metrics", "/debug/traces",
}

func normalizeRoute(path string) string {
	// Trace fetches carry the trace ID as a path segment; fold them into
	// the listing route so label cardinality stays bounded.
	if strings.HasPrefix(path, "/debug/traces") {
		return "/debug/traces"
	}
	for _, r := range routeNames {
		if path == r {
			return r
		}
	}
	return "other"
}

// stageNames is the closed set of per-request stages: the spans, one or
// two levels under a request's root, that obs.Stages reads as stages —
// opened by the handlers and, inside extract, by core. Pre-creating their
// histograms keeps the hot path free of registry lookups.
var stageNames = []string{
	"parse", "target", "extract", "serialize", "validate", "nnf", "merge",
	"apply", "invalidate", "notify",
}

// serverMetrics owns the server's registry plus the pre-created hot-path
// instruments, so request handling touches only atomics and, for the
// on-demand (route, status) counter, one short mutexed map probe; the
// registry itself is consulted the first time a pair is seen.
type serverMetrics struct {
	reg       *obs.Registry
	latency   map[string]*obs.Histogram // per route
	respBytes map[string]*obs.Counter   // per route
	stages    map[string]*obs.Histogram // per stage
	inflight  *obs.Gauge
	shed      *obs.Counter
	panics    *obs.Counter

	reqMu    sync.Mutex
	requests map[routeStatus]*obs.Counter // created on first use

	// /explain volume.
	explainTriples *obs.Counter
	explainJust    *obs.Counter

	// POST /update outcomes and effective delta volume.
	updApplied  *obs.Counter
	updNoop     *obs.Counter
	updRejected *obs.Counter
	updAdded    *obs.Counter
	updDeleted  *obs.Counter

	// GET /subscribe streams accepted since start; the rest of the
	// subscription series sample the live.Maintainer's own counters.
	subsOpened *obs.Counter
}

type routeStatus struct {
	route  string
	status int
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:       reg,
		latency:   make(map[string]*obs.Histogram),
		respBytes: make(map[string]*obs.Counter),
		stages:    make(map[string]*obs.Histogram),
		requests:  make(map[routeStatus]*obs.Counter),
	}
	for _, route := range append([]string{"other"}, routeNames...) {
		m.latency[route] = reg.Histogram(mRequestDuration,
			"End-to-end request latency in seconds, by route.", nil, obs.L("route", route))
		m.respBytes[route] = reg.Counter(mResponseBytes,
			"Response body bytes written, by route.", obs.L("route", route))
	}
	for _, stage := range stageNames {
		m.stages[stage] = reg.Histogram(mStageDuration,
			"Per-request stage latency in seconds (parse, target, extract, serialize, validate, nnf, merge).",
			nil, obs.L("stage", stage))
	}
	m.inflight = reg.Gauge(mInflight, "Requests currently being served.")
	m.shed = reg.Counter(mShedTotal, "Requests rejected with 503 by the in-flight limiter.")
	m.panics = reg.Counter(mPanicsTotal, "Panics recovered while serving a request (answered with 500), maintaining a live fragment (its subscribers evicted) or invalidating the cache (every entry closed).")
	m.updApplied = reg.Counter(mUpdateTotal,
		"POST /update requests, by result (applied, noop, rejected).", obs.L("result", "applied"))
	m.updNoop = reg.Counter(mUpdateTotal,
		"POST /update requests, by result (applied, noop, rejected).", obs.L("result", "noop"))
	m.updRejected = reg.Counter(mUpdateTotal,
		"POST /update requests, by result (applied, noop, rejected).", obs.L("result", "rejected"))
	m.updAdded = reg.Counter(mUpdateTriples,
		"Effective triple operations applied by updates, by op.", obs.L("op", "add"))
	m.updDeleted = reg.Counter(mUpdateTriples,
		"Effective triple operations applied by updates, by op.", obs.L("op", "delete"))
	// Subscription and incremental-maintenance series. subsOpened is the
	// only one the handler increments; everything else samples the
	// maintainer's counters at scrape time.
	m.subsOpened = reg.Counter(mSubsTotal, "GET /subscribe streams accepted.")
	reg.GaugeFunc(mSubsOpen, "Subscription streams currently open.",
		func() float64 { return float64(s.live.Stats().Subscribers) })
	reg.GaugeFunc(mLiveShapes, "Shapes with an incrementally maintained materialized fragment.",
		func() float64 { return float64(s.live.Stats().Shapes) })
	reg.CounterFunc(mSubsEvicted, "Subscribers evicted because their event queue was full when a delta fanned out.",
		func() float64 { return float64(s.live.Stats().Evicted) })
	reg.CounterFunc(mSubsResumed, "Subscriptions resumed from the replay ring via Last-Event-ID.",
		func() float64 { return float64(s.live.Stats().Resumed) })
	reg.CounterFunc(mLiveEvents, "Events enqueued to subscribers, by type (delta, snapshot).",
		func() float64 { return float64(s.live.Stats().EventsDelta) }, obs.L("type", "delta"))
	reg.CounterFunc(mLiveEvents, "Events enqueued to subscribers, by type (delta, snapshot).",
		func() float64 { return float64(s.live.Stats().EventsSnap) }, obs.L("type", "snapshot"))
	reg.CounterFunc(mLiveReextract, "Per-(shape, node) neighborhood re-extractions run by incremental maintenance.",
		func() float64 { return float64(s.live.Stats().Reextracted) })
	reg.CounterFunc(mLiveDelta, "Triples that entered or left a maintained fragment, by direction (added, removed).",
		func() float64 { return float64(s.live.Stats().DeltaAdded) }, obs.L("direction", "added"))
	reg.CounterFunc(mLiveDelta, "Triples that entered or left a maintained fragment, by direction (added, removed).",
		func() float64 { return float64(s.live.Stats().DeltaRemove) }, obs.L("direction", "removed"))

	m.explainTriples = reg.Counter(mExplainTriples,
		"Triples returned by /explain responses.")
	m.explainJust = reg.Counter(mExplainJust,
		"Justifications returned by /explain responses.")

	// Serving-state and workload gauges are sampled at scrape time from
	// the server's own structures — no double bookkeeping.
	reg.GaugeFunc("fragserver_uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("fragserver_ready", "1 while serving, 0 once draining has begun.",
		func() float64 {
			if s.draining.Load() {
				return 0
			}
			return 1
		})
	reg.GaugeFunc(mEpoch, "Epoch of the currently served snapshot; increments once per effective update.",
		func() float64 { return float64(s.store.Current().Epoch()) })
	reg.GaugeFunc("fragserver_graph_triples", "Triples in the currently served snapshot.",
		func() float64 { return float64(s.store.Current().Reader().Len()) })
	reg.GaugeFunc("fragserver_dict_terms", "Interned terms in the current snapshot's dictionary.",
		func() float64 { return float64(s.store.Current().Reader().Dict().Len()) })
	reg.GaugeFunc("fragserver_schema_shapes", "Shape definitions in the served schema.",
		func() float64 { return float64(s.h.Len()) })
	reg.GaugeFunc("fragserver_extraction_workers", "Parallel extraction worker count.",
		func() float64 { return float64(s.workers) })

	reg.GaugeFunc(mPlanInstrs,
		"Compiled plan instructions across the schema's programs.",
		func() float64 { return float64(s.programs.NumInstrs()) })

	// Lint findings are fixed at load time, so the per-severity gauges are
	// set once. All three severities are always exported: a zero is the
	// signal that the schema came up clean, not a missing series.
	for _, sev := range []shapelint.Severity{shapelint.Info, shapelint.Warning, shapelint.Error} {
		reg.Gauge(mLintFindings,
			"Schema lint findings reported by shapelint at load time, by severity.",
			obs.L("severity", sev.String())).Set(int64(shapelint.Count(s.lint, sev)))
	}

	// Neighborhood-cache series exist only when the cache is enabled;
	// absent series (rather than constant zeros) is how a scrape tells a
	// disabled cache from an idle one.
	if s.cache != nil {
		reg.CounterFunc("fragserver_cache_hits_total", "Neighborhood cache hits.",
			func() float64 { return float64(s.cache.Stats().Hits) })
		reg.CounterFunc("fragserver_cache_misses_total", "Neighborhood cache misses.",
			func() float64 { return float64(s.cache.Stats().Misses) })
		reg.CounterFunc("fragserver_cache_evictions_total", "Neighborhood cache entries evicted to make room.",
			func() float64 { return float64(s.cache.Stats().Evictions) })
		reg.CounterFunc("fragserver_cache_evicted_triples_total", "Triples held by evicted entries.",
			func() float64 { return float64(s.cache.Stats().EvictedTriples) })
		reg.GaugeFunc("fragserver_cache_entries", "Neighborhoods currently cached.",
			func() float64 { return float64(s.cache.Stats().Entries) })
		reg.GaugeFunc("fragserver_cache_triples", "Triples currently cached.",
			func() float64 { return float64(s.cache.Stats().Triples) })
		reg.GaugeFunc("fragserver_cache_bytes", "Approximate bytes of cached triple storage.",
			func() float64 { return float64(s.cache.Stats().Bytes) })
		reg.CounterFunc("fragserver_cache_kept_total",
			"Cache entries an update left valid at its new epoch, summed over updates.",
			func() float64 { return float64(s.cache.Stats().Kept) })
		reg.CounterFunc("fragserver_cache_invalidated_total",
			"Cache entries an update removed because its delta can reach them.",
			func() float64 { return float64(s.cache.Stats().Invalidated) })
	}

	// Containment equivalence-class series: the table is a function of the
	// schema, computed in New, so each is set once. Shared > 0 means the
	// schema has congruent definitions whose /node neighborhoods are cached
	// under their representative's key.
	reg.Gauge(mContainClasses,
		"Containment equivalence classes over the definition shapes.").
		Set(int64(s.classes.NumClasses))
	reg.Gauge(mContainShared,
		"Definition shapes that are not their class's representative (definitions minus classes): each is served from its representative's cache entries.").
		Set(int64(s.classes.Shared))

	// Trace-registry series, sampled from the ring's own counters. kept is
	// a gauge (the ring holds at most -trace-buffer traces); the rest are
	// monotone decisions made by the head sampler and the evictor.
	reg.GaugeFunc(mTracesKept, "Traces currently held in the /debug/traces ring.",
		func() float64 { return float64(s.traces.Stats().Kept) })
	reg.CounterFunc(mTracesSampled, "Requests whose trace was kept: elected by the head sampler or an upstream traceparent.",
		func() float64 { return float64(s.traces.Stats().Sampled) })
	reg.CounterFunc(mTracesDropped, "Requests whose trace was not kept.",
		func() float64 { return float64(s.traces.Stats().Dropped) })
	reg.CounterFunc(mTracesEvicted, "Traces evicted from the ring to make room for newer ones.",
		func() float64 { return float64(s.traces.Stats().Evicted) })

	// Go runtime telemetry (heap, GC, goroutines, scheduler latency) is
	// always on — it costs one runtime/metrics batch read per scrape.
	obs.RegisterRuntimeMetrics(reg)
	return m
}

// observe records the end-of-request rollup: the (route, status) counter,
// the route latency histogram and byte counter, and every stage read off
// the request's span tree. traceID is non-empty only for kept traces; the latency histogram stores it as the exemplar on the
// bucket the request landed in, linking /metrics back to /debug/traces.
func (m *serverMetrics) observe(route string, status int, bytes int64, dur time.Duration, stages []obs.Stage, traceID string) {
	key := routeStatus{route, status}
	m.reqMu.Lock()
	reqs, ok := m.requests[key]
	if !ok {
		reqs = m.reg.Counter(mRequestsTotal, "Requests served, by route and HTTP status.",
			obs.L("route", route), obs.L("status", strconv.Itoa(status)))
		m.requests[key] = reqs
	}
	m.reqMu.Unlock()
	reqs.Inc()
	m.latency[route].ObserveExemplar(dur.Seconds(), traceID)
	if bytes > 0 {
		m.respBytes[route].Add(uint64(bytes))
	}
	for _, st := range stages {
		if h, ok := m.stages[st.Name]; ok {
			h.ObserveDuration(st.Dur)
		}
	}
}
