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
// Every data route reads the snapshot current when it starts for its whole
// lifetime and reports its epoch in an X-Epoch response header: a request
// never observes a half-applied update, and updates never block readers.
// Updates themselves run one at a time (see handleUpdate). A neighborhood
// cache entry is valid from the epoch it was computed at up to the newest
// one: an update removes only the entries its delta can reach, and every
// other entry is served at the new epoch as it is.
//
// Production behaviors: per-request timeouts propagated through
// context.Context into extraction, bounded in-flight concurrency (503 when
// saturated), structured access logs, incremental N-Triples streaming, a
// shared bounded cache of the per-(node, shape) neighborhoods /node serves,
// and parallel fragment extraction via core.FragmentParallelIDs.
//
// # Engines
//
// The schema is compiled once, in New: one program per definition's request
// φ ∧ τ (/fragment, live) and one per containment-class representative
// (/node misses, core.NeighborhoodsCached). Each request binds the programs
// it runs to its snapshot and releases them when it is done; a program
// keeps its operand resolution, its released Bounds' state and its focus
// nodes per snapshot (plan.Program.FocusNodes) for the next. /validate and
// /explain run the AST walker, one core.Extractor per request: no walker
// state outlives a request.
//
// # Observability
//
// Every request records one thing: an obs.SpanTrace the middleware roots
// and carries in the request context. Handlers open a child span per
// stage (parse → target → extract → serialize; parse → apply →
// invalidate → notify on the write path), and core.FragmentParallelIDs grows
// the extract span — its nnf/merge sub-stages and the plan-exec breakdown
// — through ParallelOptions.Span.
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

	// Store, when non-nil, serves this store instead of wrapping Graph: it
	// is how tests substitute a store whose reader or Apply misbehaves.
	// Its dictionary must already hold every schema constant (run
	// store.WarmDictionary before store.New); with Graph the server warms
	// it itself.
	Store store.Store

	// Workers is the fan-out of parallel fragment extraction; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxInflight bounds concurrently served requests; excess requests get
	// 503 with Retry-After. <= 0 means 64.
	MaxInflight int
	// RequestTimeout is the per-request compute budget; <= 0 means 30s.
	RequestTimeout time.Duration
	// CacheTriples is the budget, in triples, of the neighborhood cache
	// /node serves from (second-chance eviction, see
	// core.NeighborhoodCache); 0 means one million, negative disables it.
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

	// writeMu serializes POST /update from the store's Apply through the
	// cache's Invalidate and live's Notify, so both step one epoch at a
	// time, in order.
	writeMu   sync.Mutex
	maxUpdate int64

	// requests holds one pointer-stable request shape φ ∧ τ per definition
	// (in definition order): the /fragment work list and the shapes live
	// maintains.
	requests []shape.Shape

	// programs holds one compiled program per request, aligned with
	// requests. It depends on the schema alone, so New compiles it once,
	// and each extraction binds it to the snapshot the request pinned.
	programs *plan.Set

	// classes is the containment equivalence-class table over the
	// definitions' raw shapes. It is a function of the schema alone, so New
	// computes it and applies it once: nodeKeys[i] is the program compiled
	// from the raw shape of definition i's class representative, whose
	// source is the key /node caches i's neighborhoods under and which
	// extracts them on a miss, and nodeAll lists the distinct
	// representatives' programs in definition order, the work list when no
	// shape is named. No epoch touches any of the three again. keyCols and
	// allCols are their sources' cache columns, which lookups match entries
	// by.
	classes  *contain.Classes
	nodeKeys []*plan.Program
	nodeAll  []*plan.Program
	keyCols  []int32
	allCols  []int32

	// live maintains materialized fragments incrementally across epochs
	// and fans per-epoch deltas out to /subscribe streams (never nil after
	// New); hb is the stream heartbeat interval.
	live *live.Maintainer
	hb   time.Duration

	handler  http.Handler
	started  time.Time
	metrics  *serverMetrics
	draining atomic.Bool // set when graceful shutdown begins; read by /readyz

	explainOff bool

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
		st, _ = store.New(cfg.Graph, store.Config{}) // its error result is always nil
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
		requests:  core.SchemaRequests(cfg.Schema),
		started:   time.Now(),
		maxUpdate: maxUpdate,

		explainOff: cfg.DisableExplain,

		traces:      obs.NewTraceRegistry(cfg.TraceBuffer),
		traceSample: cfg.TraceSample,
		slowReq:     cfg.SlowRequest,
	}
	s.programs = plan.CompileAll(s.requests, cfg.Schema)
	var defShapes []shape.Shape
	for _, d := range cfg.Schema.Definitions() {
		defShapes = append(defShapes, d.Shape)
	}
	// Congruent definitions have byte-identical neighborhoods on every
	// graph, so /node looks each class up once, under its representative,
	// and compiles it once.
	start := time.Now()
	cl := contain.ComputeClasses(cfg.Schema, defShapes)
	s.classes = &cl
	logger.Info("containment classes", "classes", cl.NumClasses, "shared", cl.Shared,
		"dur_ms", float64(time.Since(start).Microseconds())/1000)
	var keys, all []shape.Shape
	s.nodeKeys = make([]*plan.Program, len(defShapes))
	for i, r := range cl.Rep {
		keys = append(keys, defShapes[r])
		if r == i {
			all = append(all, defShapes[i])
			s.nodeKeys[i] = plan.Compile(defShapes[i], cfg.Schema)
			s.nodeAll = append(s.nodeAll, s.nodeKeys[i])
		} else {
			s.nodeKeys[i] = s.nodeKeys[r] // a class's representative is its first member
		}
	}
	if s.cache != nil {
		// Updates keep every entry of these shapes valid that they cannot
		// reach (POST /update's invalidate stage).
		s.cache.SetFootprints(all, cfg.Schema)
		s.cache.SetEpoch(st.Current().Epoch())
		s.keyCols, s.allCols = s.cache.Columns(keys), s.cache.Columns(all)
	}
	s.hb = cfg.Heartbeat
	if s.hb <= 0 {
		s.hb = 15 * time.Second
	}
	s.live = live.NewMaintainer(live.Config{
		Schema:         cfg.Schema,
		Requests:       s.requests,
		Plans:          func(def int) *plan.Program { return s.programs.Programs[def] },
		Replay:         cfg.SubscribeReplay,
		Queue:          cfg.SubscribeQueue,
		MaxSubscribers: cfg.MaxSubscribers,
	}, s.store.Current())
	s.metrics = newServerMetrics(s)
	s.handler = s.withObs(s.withLimit(s.routes()))
	return s, nil
}

// ContainmentClasses returns the cache-sharing equivalence-class table:
// one value for the server's lifetime (never nil after New).
func (s *Server) ContainmentClasses() *contain.Classes { return s.classes }

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

// Store returns the server's snapshot store, for reading. Write through
// POST /update: only the handler takes the server's write lock, steps the
// neighborhood cache and live maintenance (GET /subscribe) across the new
// epoch and counts it. An epoch published through the store directly
// reaches neither: the next /update then drops every cached neighborhood
// and rebuilds every maintained fragment instead of patching them.
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
	mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.Handle("GET /debug/traces", s.traces.Handler("fragserver"))
	mux.Handle("GET /debug/traces/{id}", s.traces.Handler("fragserver"))
	return mux
}

// snapshot returns the current store snapshot for one request and stamps
// its epoch on the response, so every read the handler performs — graph
// lookups, extraction, cache access — sees exactly one epoch no matter how
// many updates land mid-request.
func (s *Server) snapshot(w http.ResponseWriter) store.Snapshot {
	snap := s.store.Current()
	w.Header().Set("X-Epoch", strconv.FormatUint(snap.Epoch(), 10))
	return snap
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
	snap := s.snapshot(w)
	x := core.NewExtractor(snap.Reader(), s.h)
	validate := obs.FromContext(r.Context()).StartChild("validate")
	var report *schema.Report
	err := x.WithStop(r.Context(), func() error { // a star path on a hub runs long
		report = s.h.ValidateWith(x.Evaluator())
		return nil
	})
	validate.End()
	if err != nil {
		httpTimeoutError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "conforms: %v\nfocus nodes: %d\nviolations: %d\n",
		report.Conforms, report.TargetedNodes, len(report.Violations()))
	if queryValue(r.URL.RawQuery, "full") != "" {
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
	lo, hi := 0, len(s.requests)
	if name := queryValue(r.URL.RawQuery, "shape"); name != "" {
		i, ok := s.defIndex(name)
		if !ok {
			target.End()
			http.Error(w, "unknown or ambiguous shape "+name, http.StatusNotFound)
			return
		}
		lo, hi = i, i+1
	}
	target.End()
	snap := s.snapshot(w)
	extract := root.StartChild("extract")
	ids, _, err := core.FragmentParallelIDs(snap.Reader(), s.h, s.requests[lo:hi], core.ParallelOptions{
		Workers: s.workers,
		Ctx:     r.Context(),
		Plans:   &plan.Set{Programs: s.programs.Programs[lo:hi]}, // aligned with the requests
		Span:    extract,
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
	rawIRI := queryValue(r.URL.RawQuery, "iri")
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
	// when no shape is given, each looked up under its class
	// representative's pointer-stable shape and extracted on its program on
	// a miss (nodeKeys).
	target := root.StartChild("target")
	progs, cols := s.nodeAll, s.allCols
	if name := queryValue(r.URL.RawQuery, "shape"); name != "" {
		i, ok := s.defIndex(name)
		if !ok {
			target.End()
			http.Error(w, "unknown or ambiguous shape "+name, http.StatusNotFound)
			return
		}
		progs = s.nodeKeys[i : i+1]
		if s.cache != nil {
			cols = s.keyCols[i : i+1]
		}
	}
	snap := s.snapshot(w)
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
	extract := root.StartChild("extract")
	extract.SetAttrInt("shapes", int64(len(progs)))
	// Before duplicates go, nine nodes in ten of the benchmark graph stay
	// under a hundred triples: those never leave the stack.
	var small [128]rdfgraph.IDTriple
	ids, err := core.NeighborhoodsCached(r.Context(), s.cache, snap.Reader(), snap.Epoch(), id, progs, cols, small[:0])
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
	snap := s.snapshot(w)
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
	if s.cache != nil {
		st := s.cache.Stats()
		fmt.Fprintf(w, "cache: %d entries, %d triples (~%d bytes), %d hits, %d misses, %d evictions (%d triples)\n",
			st.Entries, st.Triples, st.Bytes, st.Hits, st.Misses, st.Evictions, st.EvictedTriples)
	} else {
		fmt.Fprintln(w, "cache: disabled")
	}
	cl := s.classes
	fmt.Fprintf(w, "containment: %d classes over %d shapes, %d shared\n",
		cl.NumClasses, len(cl.Rep), cl.Shared)
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
	// Err takes the context's mutex, and Done would allocate the request
	// context's channel: poll Err once every 256 triples.
	ctx := r.Context()
	for i, t := range triples {
		if i%256 == 0 && ctx.Err() != nil {
			return
		}
		if nw.WriteIDTriple(d, t) != nil {
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
