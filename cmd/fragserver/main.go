// Command fragserver serves shape fragments over HTTP: /validate,
// /fragment (whole schema, per-shape), /node (per-node neighborhoods
// B(v, G, φ)), /explain (per-triple provenance justifications, JSON),
// and /tpf triple pattern fragments, streaming N-Triples. POST /update
// applies live Turtle/N-Triples deltas: each effective update publishes a
// new immutable snapshot epoch while in-flight requests keep reading the
// one they pinned (see the X-Epoch response header). GET /subscribe streams
// live per-epoch fragment deltas (Server-Sent Events, resumable via
// Last-Event-ID) maintained incrementally: each update re-extracts the
// subscribed shapes' focus candidates and streams only what changed.
//
// Serve your own data:
//
//	fragserver -addr :8077 -data data.ttl -shapes shapes.ttl
//
// or, with no files, a synthetic tourism graph plus benchmark shapes:
//
//	fragserver -addr :8077 -individuals 2000
//
// The server installs a per-request timeout, bounds in-flight requests,
// caches /node neighborhoods in a bounded second-chance cache, extracts
// fragments in parallel, logs structured access lines, and drains
// in-flight requests on SIGINT or SIGTERM before exiting.
//
// Observability: /metrics (Prometheus text), /healthz, /readyz and /stats
// are served on the main address; -debug-addr starts a second, unthrottled
// listener with /debug/pprof/*, /debug/vars (expvar, including the metric
// registry) and /metrics and /debug/traces mirrors, so profiling, scraping
// and trace retrieval keep working while the main listener sheds load.
// -trace-sample 1-in-N head sampling keeps requests' span traces on
// /debug/traces (OTLP-shaped JSON), links them to the latency histograms
// via OpenMetrics exemplars, and -slow-request flags outliers in the log.
// docs/OPERATIONS.md is the operator guide: every flag, endpoint and
// metric.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/fragserver"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/turtle"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof/expvar/metrics (empty disables)")
	dataPath := flag.String("data", "", "data graph (Turtle); empty serves a synthetic graph")
	shapesPath := flag.String("shapes", "", "SHACL shapes graph (Turtle); empty uses the benchmark shapes")
	individuals := flag.Int("individuals", 2000, "size of the synthetic graph when -data is empty")
	scale := flag.Int("scale", 0, "approximate synthetic graph size in triples (overrides -individuals; streams into the graph, so 10M+ loads within bounded memory)")
	nshapes := flag.Int("shapes-count", 8, "number of benchmark shape definitions when -shapes is empty")
	workers := flag.Int("workers", 0, "parallel extraction workers (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 64, "maximum concurrently served requests")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request compute budget")
	cacheTriples := flag.Int("cache", 1<<20, "neighborhood cache budget in triples, second-chance eviction (negative disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	logFormat := flag.String("log-format", "text", "log encoding: text or json (applies to access and lifecycle logs alike)")
	allowLintErrors := flag.Bool("allow-lint-errors", false, "serve schemas that shapelint flags with error-severity findings")
	noExplain := flag.Bool("no-explain", false, "disable the /explain route")
	maxUpdateBytes := flag.Int64("max-update-bytes", 8<<20, "largest delta body POST /update accepts")
	maxSubscribers := flag.Int("max-subscribers", 4096, "maximum concurrently open /subscribe streams")
	subQueue := flag.Int("subscribe-queue", 32, "per-subscriber event buffer; a subscriber whose buffer overflows is evicted")
	subReplay := flag.Int("subscribe-replay", 64, "per-shape delta ring for Last-Event-ID resume; older resumers get a full snapshot")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "idle /subscribe stream heartbeat interval")
	traceSample := flag.Int("trace-sample", 0, "keep the span trace of 1 in N requests, served on /debug/traces (0 disables; requests with a sampled traceparent header are always kept)")
	traceBuffer := flag.Int("trace-buffer", 0, "trace ring capacity for /debug/traces (0 = default 128)")
	slowRequest := flag.Duration("slow-request", 0, "latency threshold for the structured slow-request warning; sampled slow traces are kept as notable (0 disables)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		// The one message that cannot go through the structured logger is
		// the one saying we could not build it.
		fmt.Fprintln(os.Stderr, "fragserver:", err)
		os.Exit(2)
	}

	g, h, err := load(*dataPath, *shapesPath, *individuals, *scale, *nshapes)
	if err != nil {
		fatal(logger, "loading graph and schema failed", err)
	}

	srv, err := fragserver.New(fragserver.Config{
		Graph:           g,
		Schema:          h,
		Workers:         *workers,
		MaxInflight:     *maxInflight,
		RequestTimeout:  *timeout,
		CacheTriples:    *cacheTriples,
		Logger:          logger,
		AllowLintErrors: *allowLintErrors,
		DisableExplain:  *noExplain,
		MaxUpdateBytes:  *maxUpdateBytes,
		MaxSubscribers:  *maxSubscribers,
		SubscribeQueue:  *subQueue,
		SubscribeReplay: *subReplay,
		Heartbeat:       *heartbeat,
		TraceSample:     *traceSample,
		TraceBuffer:     *traceBuffer,
		SlowRequest:     *slowRequest,
	})
	if err != nil {
		fatal(logger, "building server failed", err)
	}
	srv.Metrics().PublishExpvar("fragserver")

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listening failed", err)
	}
	logger.Info("serving shape fragments",
		"addr", ln.Addr().String(), "triples", g.Len(), "shapes", h.Len())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		shutdownDebug, err := serveDebug(*debugAddr, srv, logger)
		if err != nil {
			fatal(logger, "debug listener failed", err)
		}
		defer shutdownDebug()
	}

	if err := srv.Serve(ctx, ln, *drain); err != nil {
		fatal(logger, "serving failed", err)
	}
	logger.Info("shutdown complete")
}

// fatal routes a startup/shutdown failure through the same structured
// logger as everything else, then exits nonzero.
func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err.Error())
	os.Exit(1)
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// serveDebug starts the debug listener: pprof, expvar and a /metrics
// mirror, deliberately outside the main listener's in-flight limiter and
// request timeout so a saturated or wedged server can still be profiled
// and scraped. Bind it to localhost or an operations network only — pprof
// exposes heap contents. The returned function shuts the listener down.
func serveDebug(addr string, srv *fragserver.Server, logger *slog.Logger) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	// The mirrors serve the same registry and trace ring as the main
	// listener — exemplars, runtime telemetry and span trees included —
	// so scraping and trace retrieval survive a saturated server.
	mux.Handle("/metrics", srv.Metrics().Handler())
	mux.Handle("/debug/traces", srv.Traces().Handler("fragserver"))
	mux.Handle("/debug/traces/", srv.Traces().Handler("fragserver"))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug listener stopped", "err", err.Error())
		}
	}()
	logger.Info("debug listener up", "addr", ln.Addr().String())
	return func() { hs.Close() }, nil //nolint:errcheck — best-effort teardown
}

// load builds the schema and the graph. Synthetic graphs stream into
// rdfgraph.New — triples go straight into the indexes, never through an
// intermediate slice — so -scale 10000000 loads within bounded memory;
// Turtle files parse into the graph directly.
func load(dataPath, shapesPath string, individuals, scale, nshapes int) (*rdfgraph.Graph, *schema.Schema, error) {
	var h *schema.Schema
	if shapesPath != "" {
		src, err := os.ReadFile(shapesPath)
		if err != nil {
			return nil, nil, err
		}
		h, err = shaclsyn.ParseSchema(string(src))
		if err != nil {
			return nil, nil, err
		}
	} else {
		defs := datagen.BenchmarkShapes()
		if nshapes > 0 && nshapes < len(defs) {
			defs = defs[:nshapes]
		}
		var err error
		h, err = schema.New(defs...)
		if err != nil {
			return nil, nil, err
		}
	}

	if dataPath != "" {
		src, err := os.ReadFile(dataPath)
		if err != nil {
			return nil, nil, err
		}
		g, err := turtle.Parse(string(src))
		if err != nil {
			return nil, nil, err
		}
		return g, h, nil
	}

	if scale > 0 {
		individuals = datagen.IndividualsForTriples(scale)
	}
	g := rdfgraph.New()
	datagen.TyrolStream(datagen.TyrolConfig{Individuals: individuals, Seed: 1},
		func(t rdf.Triple) { g.Add(t) })
	return g, h, nil
}
