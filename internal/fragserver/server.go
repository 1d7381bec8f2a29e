// Package fragserver is the shape-fragment serving subsystem: an HTTP
// service positioning shape fragments as a subgraph-retrieval interface
// between Triple Pattern Fragments and full SPARQL endpoints (Section 7,
// Figure 4 of the paper). A server loads one data graph and one schema at
// startup; the graph becomes epoch 1 of a store.Store of immutable
// snapshots, and the server serves:
//
//	GET /validate                — validation report (?full=1 for all results)
//	GET /fragment                — Frag(G, H), the whole schema fragment
//	GET /fragment?shape=<name>   — the fragment of one definition (φ ∧ τ)
//	GET /node?iri=<t>[&shape=]   — the neighborhood B(v, G, φ) of one node
//	GET /explain?iri=<t>[&shape=]— that neighborhood with per-triple
//	                               justifications (JSON; see handleExplain)
//	GET /tpf?s=&p=&o=            — a triple pattern fragment
//	POST /update[?op=delete]     — apply a Turtle/N-Triples delta, publishing
//	                               a new epoch (see handleUpdate)
//	GET /healthz, GET /readyz    — process liveness; readiness (503 on drain)
//	GET /stats, GET /metrics     — human-readable stats; Prometheus text
//
// # Epochs
//
// Every data route pins the current snapshot for its whole lifetime and
// reports its epoch in an X-Epoch response header: a request never observes
// a half-applied update, and concurrent updates never block readers.
// Neighborhood cache entries are keyed by epoch; after an update the
// entries of nodes provably untouched by the delta (their weakly-connected
// component contains no delta endpoint) are carried to the new epoch, and
// entries of epochs no in-flight request pins anymore are evicted.
//
// Production behaviors: per-request timeouts propagated through
// context.Context into extraction, bounded in-flight concurrency (503 when
// saturated), structured access logs, incremental N-Triples streaming, a
// shared bounded LRU of per-(node, shape) neighborhoods, and parallel
// fragment extraction via core.FragmentParallel.
//
// # Observability
//
// Every request records one thing: an obs.SpanTrace the middleware roots
// and carries in the request context. Handlers open a child span per
// stage (parse → target → extract → serialize; apply → replan → notify on
// the write path), and core.FragmentParallel grows the extract span —
// its nnf/merge (scatter/gather when sharded) sub-stages, per-shard
// accumulators and the plan-exec breakdown — through ParallelOptions.Span.
// A stage is a span named in stageNames, one or two levels under the
// root; the stages are read off the tree (obs.Stages) and surfaced three
// ways — as a Server-Timing response header (written when streaming
// begins, so the serialize stage itself appears only in logs and
// metrics), as *_ms fields on the structured access-log line, and as
// observations into the fragserver_stage_duration_seconds histogram — so
// a stage has the name of the span a trace shows for it. The full metric
// catalog (request counters and latency histograms by route, cache
// hits/misses/evictions/bytes, load-shedding, workload gauges) is served
// in Prometheus text format on /metrics and documented for operators in
// docs/OPERATIONS.md; Metrics exposes the underlying obs.Registry so
// cmd/fragserver can also publish it via expvar and mount it on an
// unthrottled debug listener.
//
// # Tracing
//
// The head sampler (Config.TraceSample) decides retention, not
// recording: an elected request's finished tree lands in a bounded
// in-memory ring served as OTLP-compatible JSON on /debug/traces (error
// and slow traces are evicted last), its root carries the http.*
// attributes, and the route latency histogram attaches its trace ID to
// the bucket as an OpenMetrics exemplar — so a scrape, a log line, and
// the trace ring all cross-reference the same ID. An upstream W3C
// traceparent request header with the sampled flag forces retention and
// parents the local root; the continuation traceparent goes out on the
// response. Requests slower than Config.SlowRequest emit a structured
// warning with their top spans, sampled or not. A handler panic ends in
// the same place as a return: a counted, logged 500 with its access-log
// line, metrics and (if elected) a notable trace.
//
// The per-server obs.Registry makes instrumentation test-friendly: two
// Servers in one process never share counters.
package fragserver

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/core"
	"shaclfrag/internal/live"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapelint"
	"shaclfrag/internal/store"
	"shaclfrag/internal/tpf"
	"shaclfrag/internal/turtle"
)

// Config configures a Server. Schema plus either Graph or Store is
// required; everything else has serving-grade defaults.
type Config struct {
	Graph  *rdfgraph.Graph
	Schema *schema.Schema

	// Shards is the shard count of the store Graph is wrapped in; 0 means
	// 1. Several shards partition the indexes by subject ID and extraction
	// switches to scatter-gather scheduling. Ignored when Store is set.
	Shards int

	// Store, when non-nil, serves this prebuilt store instead of wrapping
	// Graph — the path for streamed loads too large to materialize as one
	// Graph first (store.Loader). The store's dictionary must already hold
	// every schema constant (run store.WarmDictionary against the loader's
	// Reader before Finish); with Graph the server warms it itself.
	Store store.Store

	// Workers is the fan-out of parallel fragment extraction; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxInflight bounds concurrently served requests; excess requests get
	// 503 with Retry-After. <= 0 means 64.
	MaxInflight int
	// RequestTimeout is the per-request compute budget; <= 0 means 30s.
	RequestTimeout time.Duration
	// CacheTriples is the neighborhood LRU budget in triples; 0 means one
	// million, negative disables the cache.
	CacheTriples int
	// Logger receives structured access logs; nil means slog.Default().
	Logger *slog.Logger
	// AllowLintErrors lets New proceed even when shapelint finds
	// error-severity defects in the schema (unsatisfiable shapes, closed
	// shapes with required properties outside the allowed set, …). By
	// default such schemas are refused at load time: every fragment they
	// would serve is provably empty, so starting up would only hide the
	// bug behind per-request work. Warnings never block startup; they are
	// logged and exported on /metrics either way.
	AllowLintErrors bool
	// DisableExplain turns the /explain route off (it answers 404). The
	// unattributed routes are unaffected either way: with /explain enabled
	// but unused, extraction runs the exact unattributed hot path.
	DisableExplain bool
	// AttributionSample, when N > 0, runs every Nth /fragment and /node
	// extraction with a counting attribution recorder, populating the
	// fragserver_attribution_* series with which constraint kinds account
	// for served triples. Sampled extractions bypass the neighborhood
	// cache, so small N trades cache hit rate for telemetry; 0 disables
	// sampling entirely (the default — zero overhead).
	AttributionSample int
	// MaxUpdateBytes bounds the request body accepted by POST /update;
	// <= 0 means 8 MiB.
	MaxUpdateBytes int64

	// MaxSubscribers bounds concurrently open GET /subscribe streams
	// across all shapes; <= 0 means 4096. Subscriptions are long-lived and
	// exempt from MaxInflight, so they need their own bound.
	MaxSubscribers int
	// SubscribeQueue is the per-subscriber event buffer; <= 0 means 32. A
	// subscriber whose buffer is full when a fragment delta fans out is
	// evicted (stream closes with a bye event) instead of stalling the
	// update path.
	SubscribeQueue int
	// SubscribeReplay bounds the per-shape delta ring used to resume
	// subscribers from a Last-Event-ID epoch; <= 0 means 64. A resumer
	// further behind than the ring gets a full snapshot event instead.
	SubscribeReplay int
	// Heartbeat is the idle-stream comment interval on /subscribe keeping
	// intermediaries from timing the connection out; <= 0 means 15s.
	Heartbeat time.Duration

	// TraceSample is head-based trace retention: every request records
	// its span tree, and 1 in N keeps it, served on /debug/traces (1
	// keeps every request's, 0 disables head sampling). Independently of
	// N, a request arriving with a sampled W3C traceparent header is
	// always kept — an upstream that decided to trace keeps its trace
	// intact through this hop.
	TraceSample int
	// TraceBuffer is the trace ring capacity; <= 0 means 128. Error and
	// slow traces are evicted last (see obs.TraceRegistry).
	TraceBuffer int
	// SlowRequest, when > 0, is the latency threshold beyond which a
	// request gets a structured slow-request log line with its top spans
	// (and its trace ID when sampled), and its trace — if sampled — is
	// kept as notable in the ring.
	SlowRequest time.Duration
}

// Server serves shape fragments over HTTP. Create with New; the handler
// tree is available via Handler for mounting, or use Serve for a managed
// listener with graceful shutdown.
type Server struct {
	store   store.Store
	h       *schema.Schema
	lint    []shapelint.Diagnostic
	workers int
	timeout time.Duration
	log     *slog.Logger
	cache   *core.NeighborhoodCache
	sem     chan struct{}
	pool    chan *core.Extractor

	// pins refcounts the epochs in-flight requests are running against;
	// staleFloor is the highest epoch the cache has been swept below, so
	// releases only rescan the cache when the floor actually advanced.
	pins       epochPins
	staleFloor atomic.Uint64
	maxUpdate  int64

	// requests holds one pointer-stable request shape φ ∧ τ per definition
	// (in definition order): both the /fragment work list and the stable
	// cache keys.
	requests []shape.Shape

	// compiled holds the schema's programs and the rest of the planner's
	// graph-independent input, built once in New. splan is the cost-based
	// strategy plan over them, aligned with requests: it is re-decided
	// against fresh cardinality stats after every effective update (replan)
	// and swapped atomically; /fragment reads whichever plan is current.
	// SPARQL-routed definitions fall back to the AST walker here — the
	// server has no per-definition SPARQL execution path, and the estimate
	// only picks SPARQL when an external endpoint would run the query.
	compiled *plan.Compiled
	splan    atomic.Pointer[plan.SchemaPlan]
	// planSet caches splan's ProgramSet (nil entries for non-plan
	// strategies), swapped together with splan. planMu orders the swaps:
	// updates replan outside the store's writer lock, so of two racing
	// replans only the one for the newer epoch (splan's Stats.Epoch) stays.
	planSet atomic.Pointer[plan.Set]
	planMu  sync.Mutex

	// defShapes holds every definition's raw shape in definition order: the
	// keys /node caches neighborhoods under, and its work list when no
	// shape is named. classes is the containment equivalence-class table
	// over requests followed by defShapes. It is a function of the schema
	// alone, so New computes it and installs the cache's alias map once,
	// and no epoch touches either again.
	defShapes []shape.Shape
	classes   *contain.Classes

	// live maintains materialized fragments incrementally across epochs
	// and fans per-epoch deltas out to /subscribe streams (never nil after
	// New); hb is the stream heartbeat interval.
	live *live.Maintainer
	hb   time.Duration

	handler  http.Handler
	started  time.Time
	metrics  *serverMetrics
	draining atomic.Bool // set when graceful shutdown begins; read by /readyz

	explainOff  bool
	sampleN     int
	sampleCount atomic.Uint64 // requests seen by the attribution sampler

	// traces is the span-trace ring served on /debug/traces (never nil
	// after New — with sampling off it only counts drops); traceSample
	// and slowReq mirror Config.TraceSample / Config.SlowRequest, and
	// traceCount drives the 1-in-N head sampler.
	traces      *obs.TraceRegistry
	traceSample int
	slowReq     time.Duration
	traceCount  atomic.Uint64
}

// New builds a server over g and h. The graph's dictionary is warmed with
// every constant the schema can mention, then the graph becomes epoch 1 of
// a store.Store: each request pins one immutable snapshot for its whole
// lifetime and shares it lock-free with every other reader, while POST
// /update publishes new epochs without blocking anyone. Schema constants
// stay resolvable across epochs because snapshot dictionaries extend the
// warmed base dictionary.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil && cfg.Store == nil {
		return nil, errors.New("fragserver: Config.Graph or Config.Store is required")
	}
	if cfg.Schema == nil {
		return nil, errors.New("fragserver: Config.Schema is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 64
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	var cache *core.NeighborhoodCache
	if cfg.CacheTriples >= 0 {
		cache = core.NewNeighborhoodCache(cfg.CacheTriples)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}

	// The full diagnostic stream: shapelint's folding analyses merged with
	// contain's subsumption analyses (SL010/SL011) — redundant definitions
	// surface at load time, where removing one is still cheap.
	lint := contain.LintMerged(cfg.Schema)
	if errs := shapelint.Errors(lint); len(errs) > 0 && !cfg.AllowLintErrors {
		return nil, fmt.Errorf("fragserver: schema has %d lint error(s) (set Config.AllowLintErrors to serve it anyway); first: %s",
			len(errs), errs[0])
	}
	for _, d := range lint {
		lvl := slog.LevelWarn
		if d.Severity < shapelint.Warning {
			lvl = slog.LevelInfo
		}
		logger.Log(context.Background(), lvl, "schema lint finding",
			"code", d.Code, "severity", d.Severity.String(),
			"shape", d.Shape.String(), "msg", d.Message)
	}

	maxUpdate := cfg.MaxUpdateBytes
	if maxUpdate <= 0 {
		maxUpdate = 8 << 20
	}

	st := cfg.Store
	if st == nil {
		store.WarmDictionary(cfg.Graph, cfg.Schema)
		var err error
		st, err = store.New(cfg.Graph, store.Config{Shards: cfg.Shards})
		if err != nil {
			return nil, fmt.Errorf("fragserver: %w", err)
		}
	}

	s := &Server{
		store:     st,
		h:         cfg.Schema,
		lint:      lint,
		workers:   workers,
		timeout:   timeout,
		log:       logger,
		cache:     cache,
		sem:       make(chan struct{}, maxInflight),
		pool:      make(chan *core.Extractor, maxInflight),
		requests:  core.SchemaRequests(cfg.Schema),
		started:   time.Now(),
		maxUpdate: maxUpdate,

		explainOff: cfg.DisableExplain,
		sampleN:    cfg.AttributionSample,

		traces:      obs.NewTraceRegistry(cfg.TraceBuffer),
		traceSample: cfg.TraceSample,
		slowReq:     cfg.SlowRequest,
	}
	s.pins.refs = make(map[uint64]int)
	s.staleFloor.Store(s.store.Current().Epoch())
	s.compiled = plan.CompileSchema(cfg.Schema)
	for _, d := range cfg.Schema.Definitions() {
		s.defShapes = append(s.defShapes, d.Shape)
	}
	// Congruent definitions share cache entries from the first request on:
	// a /fragment or /node for one class member is served from the entries
	// its representative already put.
	classShapes := append(append([]shape.Shape{}, s.requests...), s.defShapes...)
	start := time.Now()
	cl := contain.ComputeClasses(cfg.Schema, classShapes)
	s.classes = &cl
	if s.cache != nil {
		s.cache.SetAliases(cl.Aliases(classShapes))
	}
	logger.Info("containment classes", "classes", cl.NumClasses, "shared", cl.Shared,
		"unknown_pairs", cl.UnknownPairs, "dur_ms", float64(time.Since(start).Microseconds())/1000)
	s.replan(s.store.Current(), nil)
	s.hb = cfg.Heartbeat
	if s.hb <= 0 {
		s.hb = 15 * time.Second
	}
	s.live = live.NewMaintainer(live.Config{
		Schema:   cfg.Schema,
		Requests: s.requests,
		Cache:    s.cache,
		Plans: func(def int) *plan.Program {
			if set := s.planSet.Load(); set != nil && def < len(set.Programs) {
				return set.Programs[def]
			}
			return nil
		},
		Replay:         cfg.SubscribeReplay,
		Queue:          cfg.SubscribeQueue,
		MaxSubscribers: cfg.MaxSubscribers,
	}, s.store.Current())
	s.metrics = newServerMetrics(s)
	// /subscribe streams are long-lived: they bypass the per-request
	// timeout and the in-flight limiter (the maintainer enforces its own
	// MaxSubscribers bound) but still run under withObs, so they are
	// logged, counted and traceable like every other route.
	inner := s.withLimit(s.withTimeout(s.routes()))
	outer := http.NewServeMux()
	outer.HandleFunc("GET /subscribe", s.handleSubscribe)
	outer.Handle("/", inner)
	s.handler = s.withObs(outer)
	return s, nil
}

// replan re-decides the strategy plan against cardinality stats sampled
// from snap and publishes it unless a newer epoch's plan already is.
// Called at load and after every effective update: stats shift with the
// data, and with them the per-definition plan-vs-direct choice and the
// memo-budget veto. Everything that depends on the schema alone — the
// programs (s.compiled; a program pointer identifies a definition across
// epochs), the containment classes, the cache's alias map — was built in
// New. parent (nil at load) receives the plan-size attributes.
func (s *Server) replan(snap store.Snapshot, parent *obs.Span) {
	sp := s.compiled.Decide(store.SampleStats(snap), plan.Config{})
	set := sp.ProgramSet()
	parent.SetAttrInt("instructions", int64(set.NumInstrs()))
	parent.SetAttrInt("shapes", int64(len(sp.Decisions)))
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if cur := s.splan.Load(); cur == nil || cur.Stats.Epoch < sp.Stats.Epoch {
		s.splan.Store(sp)
		s.planSet.Store(set)
	}
}

// SchemaPlan returns the current strategy plan (never nil after New).
func (s *Server) SchemaPlan() *plan.SchemaPlan { return s.splan.Load() }

// ContainmentClasses returns the cache-sharing equivalence-class table:
// one value for the server's lifetime (never nil after New).
func (s *Server) ContainmentClasses() *contain.Classes { return s.classes }

// plansFor slices the current program set to one request window of
// s.requests — the alignment core.ParallelOptions.Plans expects.
func (s *Server) plansFor(lo, hi int) *plan.Set {
	set := s.planSet.Load()
	if set == nil {
		return nil
	}
	return &plan.Set{Programs: set.Programs[lo:hi]}
}

// Handler returns the server's handler tree (routes plus timeout, limiter
// and observability middleware), for mounting under an http.Server or a
// test.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's metric registry — the same one /metrics
// renders. cmd/fragserver publishes it via expvar and mounts it on the
// debug listener so scrapes keep working while the main listener sheds
// load.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Traces returns the server's span-trace registry — the same ring
// /debug/traces serves (never nil after New).
func (s *Server) Traces() *obs.TraceRegistry { return s.traces }

// sampleTrace is the head sampler: true for the 1st, N+1th, 2N+1th, …
// request when TraceSample is N.
func (s *Server) sampleTrace() bool {
	if s.traceSample <= 0 {
		return false
	}
	return (s.traceCount.Add(1)-1)%uint64(s.traceSample) == 0
}

// Live returns the incremental fragment maintainer behind GET /subscribe
// (never nil after New). Callers embedding the server via Handler instead
// of Serve must call its Drain during shutdown to close subscription
// streams cleanly.
func (s *Server) Live() *live.Maintainer { return s.live }

// Store returns the server's snapshot store. Callers embedding the server
// can apply deltas directly through it, but going through POST /update is
// preferred: only the handler keeps the neighborhood cache warm (Carry)
// and the update metrics truthful.
func (s *Server) Store() store.Store { return s.store }

// Lint returns the schema lint findings computed at load time, in the
// linter's stable order. With Config.AllowLintErrors unset the slice can
// only hold warnings and infos — error findings make New refuse.
func (s *Server) Lint() []shapelint.Diagnostic { return s.lint }

// Draining reports whether graceful shutdown has begun; /readyz turns 503
// at that point so load balancers stop routing new work here.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve serves on ln until ctx is cancelled, then shuts down gracefully,
// draining in-flight requests for up to drain (0 means 10s). It returns nil
// after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	if drain <= 0 {
		drain = 10 * time.Second
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	// Close subscription streams first (each gets a terminal bye event and
	// its handler returns), so Shutdown is not held open for the full
	// drain budget by connections that would otherwise never finish.
	s.live.Drain()
	s.log.Info("shutting down", "drain", drain.String())
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("fragserver: shutdown: %w", err)
	}
	return nil
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /validate", s.handleValidate)
	mux.HandleFunc("GET /fragment", s.handleFragment)
	mux.HandleFunc("GET /node", s.handleNode)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /tpf", s.handleTPF)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.Handle("GET /debug/traces", s.traces.Handler("fragserver"))
	mux.Handle("GET /debug/traces/{id}", s.traces.Handler("fragserver"))
	return mux
}

// epochPins refcounts which epochs in-flight requests are pinned to, so
// the cache sweeper knows which stale epochs no reader can touch anymore.
type epochPins struct {
	mu   sync.Mutex
	refs map[uint64]int
}

func (p *epochPins) pin(e uint64) {
	p.mu.Lock()
	p.refs[e]++
	p.mu.Unlock()
}

func (p *epochPins) unpin(e uint64) {
	p.mu.Lock()
	if p.refs[e]--; p.refs[e] <= 0 {
		delete(p.refs, e)
	}
	p.mu.Unlock()
}

// min returns the lowest pinned epoch, if any request is in flight.
func (p *epochPins) min() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lo uint64
	ok := false
	for e := range p.refs {
		if !ok || e < lo {
			lo, ok = e, true
		}
	}
	return lo, ok
}

// snapshot pins the current store snapshot for one request and stamps its
// epoch on the response, so every read the handler performs — graph
// lookups, extraction, cache access — sees exactly one epoch no matter how
// many updates land mid-request. The returned release must be called when
// the handler is done; it unpins and sweeps cache entries of epochs no
// in-flight request can reach anymore.
func (s *Server) snapshot(w http.ResponseWriter) (store.Snapshot, func()) {
	snap := s.store.Current()
	s.pins.pin(snap.Epoch())
	w.Header().Set("X-Epoch", strconv.FormatUint(snap.Epoch(), 10))
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.pins.unpin(snap.Epoch())
			s.evictStale()
		})
	}
	return snap, release
}

// evictStale drops cache entries of epochs below the eviction floor — the
// older of the current epoch and the oldest pinned one. The floor is
// tracked in staleFloor so the cache is only scanned when an update
// actually advanced it, not on every request.
func (s *Server) evictStale() {
	if s.cache == nil {
		return
	}
	floor := s.store.Current().Epoch()
	if lo, ok := s.pins.min(); ok && lo < floor {
		floor = lo
	}
	for {
		last := s.staleFloor.Load()
		if floor <= last {
			return
		}
		if s.staleFloor.CompareAndSwap(last, floor) {
			break
		}
	}
	s.cache.EvictBelow(floor)
}

// acquire hands out a pooled extractor for the given snapshot graph,
// creating one when the pool is dry (the in-flight limiter bounds how many
// can exist at once). Pooled extractors keep their evaluator memoization
// across requests, so repeated validation and extraction against one epoch
// get cheaper over time; an extractor built for an older epoch is simply
// dropped — its memoization is unsound against the new graph.
func (s *Server) acquire(g rdfgraph.Reader) *core.Extractor {
	for {
		select {
		case x := <-s.pool:
			if x.Graph() == g {
				return x
			}
			// Stale epoch: discard and keep draining the pool.
		default:
			return core.NewExtractor(g, s.h)
		}
	}
}

func (s *Server) release(x *core.Extractor) {
	// A search's scratch only grows: pooled with x it would pin the largest
	// search x ever ran. Past the pool's ceiling it goes; the rest stays warm.
	x.Evaluator().TrimScratch()
	// Don't pool extractors for superseded epochs; letting them die keeps
	// the pool converging onto the current graph after an update.
	if x.Graph() != s.store.Current().Reader() {
		return
	}
	select {
	case s.pool <- x:
	default:
	}
}

// defIndex resolves a shape name parameter: exact IRI match first, then
// unique suffix match (so S01 finds http://…/shapes#S01).
func (s *Server) defIndex(name string) (int, bool) {
	defs := s.h.Definitions()
	for i, d := range defs {
		if d.Name.Value == name {
			return i, true
		}
	}
	found, hit := -1, false
	for i, d := range defs {
		if strings.HasSuffix(d.Name.Value, name) {
			if hit {
				return -1, false // ambiguous suffix
			}
			found, hit = i, true
		}
	}
	return found, hit
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	snap, done := s.snapshot(w)
	defer done()
	x := s.acquire(snap.Reader())
	defer s.release(x)
	validate := obs.FromContext(r.Context()).StartChild("validate")
	report := s.h.ValidateWith(x.Evaluator())
	validate.End()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "conforms: %v\nfocus nodes: %d\nviolations: %d\n",
		report.Conforms, report.TargetedNodes, len(report.Violations()))
	if r.URL.Query().Get("full") != "" {
		for _, res := range report.Results {
			status := "ok"
			if !res.Conforms {
				status = "VIOLATION"
			}
			fmt.Fprintf(w, "%s %s focus %s\n", status, res.ShapeName, res.Focus)
		}
	}
}

func (s *Server) handleFragment(w http.ResponseWriter, r *http.Request) {
	root := obs.FromContext(r.Context())
	target := root.StartChild("target")
	requests := s.requests
	lo, hi := 0, len(s.requests)
	if name := r.URL.Query().Get("shape"); name != "" {
		i, ok := s.defIndex(name)
		if !ok {
			target.End()
			http.Error(w, "unknown or ambiguous shape "+name, http.StatusNotFound)
			return
		}
		requests = s.requests[i : i+1]
		lo, hi = i, i+1
	}
	target.End()
	snap, done := s.snapshot(w)
	defer done()
	x := s.acquire(snap.Reader())
	defer s.release(x)
	extract := root.StartChild("extract")
	ids, err := x.FragmentParallelIDs(requests, core.ParallelOptions{
		Workers:  s.workers,
		Cache:    s.cache,
		Epoch:    snap.Epoch(),
		Ctx:      r.Context(),
		Recorder: s.sampleAttribution(),
		Plans:    s.plansFor(lo, hi),
		Span:     extract,
	})
	extract.End()
	var pe *core.PanicError
	if errors.As(err, &pe) {
		panic(pe) // a worker's panic, raised again where withObs answers every panic
	}
	if err != nil {
		httpTimeoutError(w, r, err)
		return
	}
	s.streamNTriples(w, r, snap.Reader().Dict(), ids)
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	root := obs.FromContext(r.Context())
	q := r.URL.Query()
	rawIRI := q.Get("iri")
	if rawIRI == "" {
		http.Error(w, "missing iri parameter", http.StatusBadRequest)
		return
	}
	parse := root.StartChild("parse")
	focus, err := parseTermParam(rawIRI)
	parse.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// B(v, G, φ) for the named definition's shape, or for every definition
	// when no shape is given. Definition shapes are pointer-stable, so they
	// double as neighborhood cache keys.
	target := root.StartChild("target")
	shapes := s.defShapes
	if name := q.Get("shape"); name != "" {
		i, ok := s.defIndex(name)
		if !ok {
			target.End()
			http.Error(w, "unknown or ambiguous shape "+name, http.StatusNotFound)
			return
		}
		shapes = s.defShapes[i : i+1]
	}
	snap, done := s.snapshot(w)
	defer done()
	// LookupTerm never interns, so an unknown focus cannot mutate the
	// frozen snapshot dictionary no matter how many goroutines probe it.
	id := snap.Reader().LookupTerm(focus)
	target.End()
	if id == rdfgraph.NoID {
		// A term no triple mentions has empty neighborhoods for every
		// shape; serve the empty fragment rather than 404 so clients can
		// treat /node uniformly.
		s.streamNTriples(w, r, nil, nil)
		return
	}
	x := s.acquire(snap.Reader())
	defer s.release(x)
	if rec := s.sampleAttribution(); rec != nil {
		// Sampled requests re-derive with attribution; the recorder makes
		// NeighborhoodIDsCached bypass the cache. Reset before pooling.
		x.SetRecorder(rec)
		defer x.SetRecorder(nil)
	}
	extract := root.StartChild("extract")
	extract.SetAttrInt("shapes", int64(len(shapes)))
	// Before duplicates go, nine nodes in ten of the benchmark graph stay
	// under a hundred triples: those never leave the stack.
	var small [128]rdfgraph.IDTriple
	ids, err := x.NeighborhoodsCached(r.Context(), s.cache, snap.Epoch(), id, shapes, small[:0])
	if err != nil {
		extract.End()
		httpTimeoutError(w, r, err)
		return
	}
	// The union over the shapes: sort, then drop the repeats.
	dict := snap.Reader().Dict()
	rdfgraph.SortIDTriples(dict, ids)
	ids = slices.Compact(ids)
	extract.SetAttrInt("triples", int64(len(ids)))
	extract.End()
	s.streamNTriples(w, r, dict, ids)
}

func (s *Server) handleTPF(w http.ResponseWriter, r *http.Request) {
	root := obs.FromContext(r.Context())
	parse := root.StartChild("parse")
	pattern, err := parseTPFPattern(r.URL.Query())
	parse.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if phi, ok := pattern.RequestShape(); ok {
		w.Header().Set("X-Request-Shape", phi.String())
	}
	snap, done := s.snapshot(w)
	defer done()
	extract := root.StartChild("extract")
	ids := pattern.EvalIDs(snap.Reader())
	extract.End()
	s.streamNTriples(w, r, snap.Reader().Dict(), ids)
}

// handleHealth is process liveness: it answers ok for as long as the
// process can serve HTTP at all, including while draining.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is readiness: 200 while accepting new work, 503 once
// graceful shutdown has begun so load balancers drain this instance.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.store.Current()
	g := snap.Reader()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "uptime: %s\nepoch: %d\ntriples: %d\nterms: %d\nshapes: %d\nworkers: %d\n",
		time.Since(s.started).Round(time.Second), snap.Epoch(), g.Len(), g.Dict().Len(), s.h.Len(), s.workers)
	fmt.Fprintf(w, "shards: %d\nshard triples: %v\ncross-shard resolutions: %d\n",
		s.store.NumShards(), s.store.ShardTriples(), s.store.CrossShardResolutions())
	if s.cache != nil {
		st := s.cache.Stats()
		fmt.Fprintf(w, "cache: %d entries, %d triples (~%d bytes), %d hits (%d via containment aliases), %d misses, %d evictions (%d triples)\n",
			st.Entries, st.Triples, st.Bytes, st.Hits, st.AliasHits, st.Misses, st.Evictions, st.EvictedTriples)
	} else {
		fmt.Fprintln(w, "cache: disabled")
	}
	cl := s.classes
	fmt.Fprintf(w, "containment: %d classes over %d shapes, %d shared, %d unknown pairs\n",
		cl.NumClasses, len(cl.Rep), cl.Shared, cl.UnknownPairs)
	ts := s.traces.Stats()
	pct := 0.0
	if total := ts.Sampled + ts.Dropped; total > 0 {
		pct = 100 * float64(ts.Sampled) / float64(total)
	}
	fmt.Fprintf(w, "traces: %d kept (cap %d), %d sampled (%.1f%%), %d dropped, %d evicted\n",
		ts.Kept, ts.Cap, ts.Sampled, pct, ts.Dropped, ts.Evicted)
}

// streamNTriples writes triples (encoded against d, already in canonical
// order) incrementally as application/n-triples, each term appended from
// the dictionary straight into the writer's pooled buffer, aborting
// quietly if the request context ends mid-stream (client gone or budget
// exceeded — headers are already out by then). The stages ended so far
// (parse, target, extract, …) go out as a Server-Timing header; the
// serialize stage itself necessarily post-dates the headers, so it
// shows up only in the access log and the stage histogram.
func (s *Server) streamNTriples(w http.ResponseWriter, r *http.Request, d *rdfgraph.Dict, triples []rdfgraph.IDTriple) {
	root := obs.FromContext(r.Context())
	setServerTiming(w, root)
	defer root.StartChild("serialize").End()
	w.Header().Set("Content-Type", "application/n-triples")
	w.Header().Set("X-Triple-Count", strconv.Itoa(len(triples)))
	nw := turtle.NewNTriplesWriter(w)
	defer nw.Close()
	ctx := r.Context()
	for _, t := range triples {
		if ctx.Err() != nil {
			return
		}
		if nw.WriteTriple(d.Triple(t)) != nil {
			return
		}
	}
	nw.Flush() //nolint:errcheck — nothing to do about a failed final write
}

// setServerTiming sends the stages of root's request that have ended so far
// as a Server-Timing header.
func setServerTiming(w http.ResponseWriter, root *obs.Span) {
	var buf [8]obs.Stage
	if st := obs.ServerTiming(obs.Stages(buf[:0], root, stageNames)); st != "" {
		w.Header().Set("Server-Timing", st)
	}
}

// httpTimeoutError maps a context error to 503 (with Retry-After) when no
// bytes have been written yet.
func httpTimeoutError(w http.ResponseWriter, _ *http.Request, err error) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "request cancelled or timed out: "+err.Error(), http.StatusServiceUnavailable)
}

// parseTPFPattern builds a triple pattern from s=/p=/o= query parameters.
// Empty positions and ?name positions are variables (repeating a name
// imposes equality); everything else must parse as a term, and predicate
// constants must be IRIs. Malformed input yields an error, never a panic.
func parseTPFPattern(q map[string][]string) (tpf.Pattern, error) {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	pos := func(key string) (tpf.Pos, error) {
		raw := get(key)
		if raw == "" {
			return tpf.V(key), nil // fresh variable named after the position
		}
		if strings.HasPrefix(raw, "?") {
			name := raw[1:]
			if name == "" {
				return tpf.Pos{}, fmt.Errorf("%s=: variable needs a name after '?'", key)
			}
			return tpf.V(name), nil
		}
		t, err := parseTermParam(raw)
		if err != nil {
			return tpf.Pos{}, fmt.Errorf("%s=: %w", key, err)
		}
		return tpf.C(t), nil
	}
	var pattern tpf.Pattern
	var err error
	if pattern.S, err = pos("s"); err != nil {
		return tpf.Pattern{}, err
	}
	if pattern.P, err = pos("p"); err != nil {
		return tpf.Pattern{}, err
	}
	if pattern.O, err = pos("o"); err != nil {
		return tpf.Pattern{}, err
	}
	if !pattern.P.IsVar() && !pattern.P.Term.IsIRI() {
		return tpf.Pattern{}, errors.New("p=: predicate must be an IRI")
	}
	return pattern, nil
}

// graphNow returns the graph of the current snapshot — a convenience for
// code that needs "the graph as of now" without pinning (stats, tests).
// Request handlers must use snapshot instead so all their reads agree.
func (s *Server) graphNow() rdfgraph.Reader { return s.store.Current().Reader() }
