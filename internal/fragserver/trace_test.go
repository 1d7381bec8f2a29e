package fragserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
)

// tracedConfig is newTestServer's graph and schema with tracing knobs and
// four workers.
func tracedConfig(sample int) Config {
	return Config{
		Graph:       datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9}),
		Schema:      schema.MustNew(datagen.BenchmarkShapes()[:8]...),
		Workers:     4,
		Logger:      quietLogger(),
		TraceSample: sample,
	}
}

func spanByName(sp *obs.Span, name string) *obs.Span {
	for _, c := range sp.Children() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// TestTraceHeadSampling pins the 1-in-N head sampler: with N=2, requests
// alternate between traced (traceparent response header, trace kept) and
// untraced (no header, drop counted).
func TestTraceHeadSampling(t *testing.T) {
	srv, ts := newUpdateTestServer(t, tracedConfig(2))
	var traced, untraced int
	for i := 0; i < 4; i++ {
		resp, _ := get(t, ts, "/fragment")
		if resp.Header.Get("traceparent") != "" {
			traced++
		} else {
			untraced++
		}
	}
	if traced != 2 || untraced != 2 {
		t.Errorf("1-in-2 sampling over 4 requests: %d traced / %d untraced, want 2/2", traced, untraced)
	}
	st := srv.Traces().Stats()
	if st.Sampled != 2 || st.Dropped != 2 || st.Kept != 2 {
		t.Errorf("registry stats after 4 requests: %+v", st)
	}
}

// TestTraceparentIngestion checks the W3C propagation contract with head
// sampling off: a sampled upstream traceparent forces a trace that keeps
// the upstream trace ID, an unsampled one leaves the request untraced.
func TestTraceparentIngestion(t *testing.T) {
	srv, ts := newUpdateTestServer(t, tracedConfig(0))
	const upstream = "4bf92f3577b34da6a3ce929d0e0e4736"

	req, _ := http.NewRequest("GET", ts.URL+"/fragment", nil)
	req.Header.Set("traceparent", "00-"+upstream+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read to EOF: the terminating chunk goes out after the outermost
	// handler returns, i.e. after the middleware has kept the trace.
	readAll(t, resp)
	resp.Body.Close()
	cont := resp.Header.Get("traceparent")
	if !strings.Contains(cont, upstream) {
		t.Errorf("continuation traceparent %q lost the upstream trace ID", cont)
	}
	if _, ok := srv.Traces().Get(upstream); !ok {
		t.Error("sampled upstream traceparent did not force a kept trace")
	}

	req, _ = http.NewRequest("GET", ts.URL+"/fragment", nil)
	req.Header.Set("traceparent", "00-"+upstream+"-00f067aa0ba902b7-00")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()
	if h := resp.Header.Get("traceparent"); h != "" {
		t.Errorf("unsampled upstream flag still produced traceparent %q", h)
	}
	if st := srv.Traces().Stats(); st.Sampled != 1 {
		t.Errorf("unsampled upstream request was traced: %+v", st)
	}
}

// TestDebugTracesEndToEnd is the tracing acceptance path: a sampled
// /fragment must surface on /debug/traces with its extraction stages, the
// exec breakdown, and timings coherent with the route latency histogram.
func TestDebugTracesEndToEnd(t *testing.T) {
	srv, ts := newUpdateTestServer(t, tracedConfig(1))
	resp, _ := get(t, ts, "/fragment")
	traceID := strings.Split(resp.Header.Get("traceparent"), "-")[1]

	// The listing shows the trace, newest first, with its span count.
	_, listing := get(t, ts, "/debug/traces")
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
		Stats  obs.TraceStats     `json:"stats"`
	}
	if err := json.Unmarshal([]byte(listing), &list); err != nil {
		t.Fatalf("/debug/traces listing: %v\n%s", err, listing)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != traceID || list.Traces[0].Name != "GET /fragment" {
		t.Fatalf("listing = %+v, want one GET /fragment trace %s", list.Traces, traceID)
	}
	if list.Traces[0].Spans < 5 {
		t.Errorf("sampled extraction grew only %d spans", list.Traces[0].Spans)
	}

	// Fetching by ID returns OTLP-shaped JSON naming the extraction spans.
	fresp, otlp := get(t, ts, "/debug/traces/"+traceID)
	if fresp.StatusCode != 200 {
		t.Fatalf("GET /debug/traces/%s: %d", traceID, fresp.StatusCode)
	}
	for _, want := range []string{
		`"resourceSpans"`, `"service.name"`, `"GET /fragment"`, `"extract"`,
		`"nnf"`, `"merge"`, `"plan-exec"`,
		`"http.route"`,
	} {
		if !strings.Contains(otlp, want) {
			t.Errorf("OTLP trace missing %s", want)
		}
	}

	// The span tree and the route histogram time the same request: the
	// root span nests inside the middleware's histogram observation, and
	// the extract span (with its exec breakdown) nests inside the root.
	st, ok := srv.Traces().Get(traceID)
	if !ok {
		t.Fatal("trace vanished from the registry")
	}
	root := st.Root()
	extract := spanByName(root, "extract")
	if extract == nil {
		t.Fatalf("no extract span under root")
	}
	exec := spanByName(extract, "plan-exec")
	if exec == nil {
		t.Fatal("no plan-exec span under extract")
	}
	if exec.Duration() <= 0 {
		t.Error("plan-exec accumulated no time")
	}
	// Accumulated unit work is bounded by extract wall time × workers.
	if max := extract.Duration() * 4; exec.Duration() > max {
		t.Errorf("plan-exec sums to %v > extract %v × 4 workers", exec.Duration(), extract.Duration())
	}
	if extract.Duration() > root.Duration() {
		t.Errorf("extract %v exceeds root %v", extract.Duration(), root.Duration())
	}
	_, metrics := get(t, ts, "/metrics")
	histSum := metricValue(t, metrics, `fragserver_request_duration_seconds_sum{route="/fragment"}`)
	rootSec := root.Duration().Seconds()
	// 1ms epsilon: the exposition rounds the rendered sum.
	if histSum < rootSec-0.001 {
		t.Errorf("histogram sum %.6fs < root span %.6fs: the histogram observation wraps the span", histSum, rootSec)
	}
	if histSum-rootSec > 0.1 {
		t.Errorf("histogram sum %.6fs and root span %.6fs diverge beyond middleware overhead", histSum, rootSec)
	}
}

// TestExemplarLinksMetricsToTrace checks the cross-reference: the trace ID
// a sampled request returns in its traceparent header must appear as the
// OpenMetrics exemplar on the route latency histogram.
func TestExemplarLinksMetricsToTrace(t *testing.T) {
	_, ts := newUpdateTestServer(t, tracedConfig(1))
	resp, _ := get(t, ts, "/fragment")
	traceID := strings.Split(resp.Header.Get("traceparent"), "-")[1]

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.HasSuffix(strings.TrimRight(body, "\n"), "# EOF") {
		t.Error("OpenMetrics exposition does not end with # EOF")
	}
	want := `# {trace_id="` + traceID + `"}`
	if !strings.Contains(body, want) {
		t.Errorf("no exemplar %s on the OpenMetrics exposition", want)
	}
	// The plain Prometheus rendering stays exemplar-free for scrapers that
	// do not negotiate OpenMetrics.
	if _, plain := get(t, ts, "/metrics"); strings.Contains(plain, "trace_id=") {
		t.Error("exemplar leaked into the text/plain rendering")
	}
}

// TestSlowRequestLog drives a request past a 1ns threshold and expects the
// structured warning with the top spans whatever the sampler said — the
// tree is there for every request — and the trace ID exactly when the
// trace was kept, and so can be looked up.
func TestSlowRequestLog(t *testing.T) {
	for _, sample := range []int{1, 0} {
		var buf bytes.Buffer
		cfg := tracedConfig(sample)
		cfg.Logger = slog.New(slog.NewTextHandler(&buf, nil))
		cfg.SlowRequest = time.Nanosecond
		srv, ts := newUpdateTestServer(t, cfg)
		resp, _ := get(t, ts, "/fragment")

		logs := buf.String()
		if !strings.Contains(logs, "slow request") {
			t.Fatalf("TraceSample %d: no slow-request warning in logs:\n%s", sample, logs)
		}
		if !strings.Contains(logs, "top_spans=") || strings.Contains(logs, "top_spans=[]") {
			t.Errorf("TraceSample %d: slow-request log names no top spans:\n%s", sample, logs)
		}
		if sample == 0 {
			if strings.Contains(logs, "trace_id=") || resp.Header.Get("traceparent") != "" {
				t.Errorf("unkept trace advertised: traceparent %q, logs:\n%s", resp.Header.Get("traceparent"), logs)
			}
			if st := srv.Traces().Stats(); st.Kept != 0 || st.Dropped != 1 {
				t.Errorf("slowness changed retention: %+v", st)
			}
			continue
		}
		traceID := strings.Split(resp.Header.Get("traceparent"), "-")[1]
		if !strings.Contains(logs, "trace_id="+traceID) {
			t.Errorf("slow-request log does not carry trace_id=%s:\n%s", traceID, logs)
		}
		// A slow trace is notable: it survives eviction ahead of routine ones.
		if st := srv.Traces().Stats(); st.Kept != 1 {
			t.Errorf("slow trace not kept: %+v", st)
		}
	}
}

// TestKeptTraceOutlivesRecycling: only a trace the ring does not keep is
// released for reuse, so a kept tree reads the same after hundreds of later
// requests whose trees are recycled. Under -race, a kept span handed to a
// later request would be written while this test reads it.
func TestKeptTraceOutlivesRecycling(t *testing.T) {
	srv, ts := newUpdateTestServer(t, tracedConfig(50))
	get(t, ts, "/fragment") // the first request is kept
	sums := srv.Traces().Summaries()
	if len(sums) != 1 {
		t.Fatalf("%d traces kept, want 1", len(sums))
	}
	kept, _ := srv.Traces().Get(sums[0].TraceID)
	render := func() string {
		var b strings.Builder
		kept.WriteTree(&b)
		return b.String()
	}
	want := render()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				get(t, ts, "/fragment?shape=S01")
				get(t, ts, "/node?"+accessLogQuery)
			}
		}()
	}
	for range 20 {
		if got := render(); got != want {
			t.Fatalf("kept trace changed after its request:\n%s\nwas\n%s", got, want)
		}
	}
	wg.Wait()
	if got := render(); got != want {
		t.Fatalf("kept trace changed after its request:\n%s\nwas\n%s", got, want)
	}
}

// TestStatsTracesLine checks the human-readable /stats rollup reports the
// trace ring.
func TestStatsTracesLine(t *testing.T) {
	_, ts := newUpdateTestServer(t, tracedConfig(1))
	get(t, ts, "/fragment")
	_, body := get(t, ts, "/stats")
	if !strings.Contains(body, "traces:") {
		t.Errorf("/stats has no traces line:\n%s", body)
	}
	if !strings.Contains(body, "sampled") {
		t.Errorf("/stats traces line lacks sampling stats:\n%s", body)
	}
}

// TestUpdateTraceSpans checks the write path's span tree: a sampled
// POST /update shows parse, apply (with effective-delta attributes),
// invalidate (with the cache's kept and invalidated counts) and notify,
// and nothing else.
func TestUpdateTraceSpans(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{TraceSample: 1, Logger: quietLogger()})
	resp, body := post(t, ts, "/update", lineAE)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /update: %d\n%s", resp.StatusCode, body)
	}
	traceID := strings.Split(resp.Header.Get("traceparent"), "-")[1]
	st, ok := srv.Traces().Get(traceID)
	if !ok {
		t.Fatal("update trace not kept")
	}
	root := st.Root()
	if root.Name() != "POST /update" {
		t.Fatalf("root span %q", root.Name())
	}
	apply := spanByName(root, "apply")
	if spanByName(root, "parse") == nil || apply == nil {
		t.Fatalf("update trace lacks parse/apply spans; have %v", names(root))
	}
	var added int64
	for _, a := range apply.Attrs() {
		if a.Key == "added" {
			added = a.Int
		}
	}
	if added != 1 {
		t.Errorf("apply span added attr = %d, want 1", added)
	}
	// Nothing is planned per epoch: programs are compiled once, in New.
	if got, want := names(root), []string{"parse", "apply", "invalidate", "notify"}; !slices.Equal(got, want) {
		t.Errorf("update trace children %v, want %v", got, want)
	}
	// Nothing was cached: nothing to keep or to invalidate.
	inv := spanByName(root, "invalidate")
	if kept, invalidated := intAttr(inv, "kept"), intAttr(inv, "invalidated"); kept != 0 || invalidated != 0 {
		t.Errorf("invalidate span kept %d, invalidated %d, want 0 and 0", kept, invalidated)
	}
}

func names(sp *obs.Span) []string {
	var out []string
	for _, c := range sp.Children() {
		out = append(out, c.Name())
	}
	return out
}

// TestTraceRingOnDebugEndpointEviction checks the /debug/traces ring is
// bounded by TraceBuffer and reports evictions on /stats and /metrics.
func TestTraceRingBounded(t *testing.T) {
	cfg := tracedConfig(1)
	cfg.TraceBuffer = 2
	srv, ts := newUpdateTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		get(t, ts, "/fragment")
	}
	st := srv.Traces().Stats()
	if st.Kept != 2 || st.Cap != 2 {
		t.Errorf("ring holds %d/%d, want 2/2", st.Kept, st.Cap)
	}
	if st.Evicted != 3 || st.Sampled != 5 {
		t.Errorf("evicted %d sampled %d, want 3/5", st.Evicted, st.Sampled)
	}
	_, body := get(t, ts, "/metrics")
	if v := metricValue(t, body, "fragserver_traces_evicted_total"); v != 3 {
		t.Errorf("fragserver_traces_evicted_total = %v, want 3", v)
	}
}

// TestAccessLogFollowsLevel: at Info the access line carries the request
// fields and the stage timings; a handler that starts at Warn gets no
// access line, and the slow-request warning still arrives with the request
// fields on it.
func TestAccessLogFollowsLevel(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelInfo, slog.LevelWarn} {
		var buf bytes.Buffer
		cfg := tracedConfig(0)
		cfg.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: level}))
		cfg.SlowRequest = time.Nanosecond
		_, ts := newUpdateTestServer(t, cfg)
		get(t, ts, "/fragment?shape=S01")
		logs := buf.String()
		access := strings.Contains(logs, "msg=request ")
		if access != (level == slog.LevelInfo) {
			t.Errorf("level %v: access line present = %v:\n%s", level, access, logs)
		}
		if access {
			for _, field := range []string{"method=GET", "path=/fragment", `query="shape=S01"`, "status=200", "bytes=", "dur_ms=", "remote=", "extract_ms=", "serialize_ms="} {
				if !strings.Contains(logs, field) {
					t.Errorf("access line lacks %s:\n%s", field, logs)
				}
			}
		}
		if !strings.Contains(logs, `msg="slow request" method=GET path=/fragment`) {
			t.Errorf("level %v: slow-request warning missing or without request fields:\n%s", level, logs)
		}
	}
}

// keptTrace returns the newest kept trace whose root has the given name,
// waiting for it: a stream's trace is kept when its handler returns, which
// is after the client has gone.
func keptTrace(t *testing.T, srv *Server, name string) *obs.SpanTrace {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, sum := range srv.Traces().Summaries() {
			if st, ok := srv.Traces().Get(sum.TraceID); ok && sum.Name == name {
				return st
			}
		}
	}
	t.Fatalf("no kept trace named %q", name)
	return nil
}

func intAttr(sp *obs.Span, key string) int64 {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Int
		}
	}
	return 0
}

// TestSpanCountIndependentOfSize: every request records a tree, so the tree
// must not grow with the request. Work done in many pieces — extraction
// units, a stream's events, the shapes an update notifies — is timed through
// by-name accumulators (Span.AccumChild), never one span per piece: a large
// request of each kind ends with exactly the spans of a small one.
func TestSpanCountIndependentOfSize(t *testing.T) {
	t.Run("fragment units", func(t *testing.T) {
		var spans [2]int
		for i, individuals := range []int{120, 1500} {
			srv, err := New(Config{
				Graph:   datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 9}),
				Schema:  schema.MustNew(datagen.BenchmarkShapes()...),
				Workers: 8, Logger: quietLogger(), TraceSample: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/fragment", nil))
			st := keptTrace(t, srv, "GET /fragment")
			nodes := intAttr(spanByName(st.Root(), "extract"), "nodes")
			if i == 1 && nodes < 10000 {
				t.Fatalf("large /fragment visited %d focus nodes, want >= 10000", nodes)
			}
			spans[i] = st.NumSpans()
		}
		if spans[0] != spans[1] {
			t.Errorf("/fragment: %d spans at 120 individuals, %d at 1500", spans[0], spans[1])
		}
	})

	t.Run("subscribe events", func(t *testing.T) {
		var spans [2]int
		for i, events := range []int{1, 50} {
			srv, ts := newUpdateTestServer(t, Config{TraceSample: 1})
			stream := openStream(t, ts, "/subscribe?shape=S", "")
			for n := 0; n <= events; n++ { // the snapshot, then one delta per update
				if n > 0 {
					post(t, ts, "/update", fmt.Sprintf("<http://ex/a> <http://ex/p> <http://ex/n%d> .", n))
				}
				if _, ok := stream.next(t); !ok {
					t.Fatalf("stream ended after %d events", n)
				}
			}
			stream.cancel()
			spans[i] = keptTrace(t, srv, "GET /subscribe").NumSpans()
		}
		if spans[0] != spans[1] {
			t.Errorf("/subscribe: %d spans after 1 event, %d after 50", spans[0], spans[1])
		}
	})

	t.Run("update notifies", func(t *testing.T) {
		review := "<" + datagen.NS + "review/sized>"
		body := review + " <" + rdf.RDFType + "> " + datagen.ClassReview.String() + " .\n" +
			"<" + datagen.NS + "lodging/0> <" + datagen.PropReview + "> " + review + " .\n"
		var spans [2]int
		for i, defs := range [][]int{{50}, nil} { // S51 alone (every review is referenced), then all
			srv, err := New(Config{
				Graph:  datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9}),
				Schema: schema.MustNew(datagen.BenchmarkShapes()...),
				Logger: quietLogger(), TraceSample: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if defs == nil {
				for def := range srv.requests {
					defs = append(defs, def)
				}
			}
			for _, def := range defs {
				sub, _, err := srv.Live().Subscribe(def, 0)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					for range sub.Events() {
					}
				}()
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/update", strings.NewReader(body)))
			srv.Live().Drain()
			if rec.Code != 200 {
				t.Fatalf("POST /update: %d %s", rec.Code, rec.Body)
			}
			st := keptTrace(t, srv, "POST /update")
			if shapes := intAttr(spanByName(st.Root(), "notify"), "shapes"); i == 1 && shapes < 50 {
				t.Fatalf("update notified %d shapes, want >= 50", shapes)
			}
			spans[i] = st.NumSpans()
		}
		if spans[0] != spans[1] {
			t.Errorf("/update: %d spans notifying 1 shape, %d notifying all", spans[0], spans[1])
		}
	})
}
