package fragserver

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/schema"
)

// TestMetricsEndpoint drives real traffic and then checks that /metrics
// renders Prometheus text covering requests, latency histograms, stage
// timings and the cache — the acceptance shape of the observability
// layer.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts, "/fragment")
	get(t, ts, "/fragment") // repeat: the second run hits the cache
	get(t, ts, "/node?iri="+url.QueryEscape("<http://example.org/ghost>"))
	get(t, ts, "/nosuchroute")

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE fragserver_requests_total counter",
		`fragserver_requests_total{route="/fragment",status="200"} 2`,
		`fragserver_requests_total{route="other",status="404"} 1`,
		"# TYPE fragserver_request_duration_seconds histogram",
		`fragserver_request_duration_seconds_bucket{route="/fragment",le="+Inf"}`,
		`fragserver_request_duration_seconds_count{route="/fragment"} 2`,
		"# TYPE fragserver_stage_duration_seconds histogram",
		`fragserver_stage_duration_seconds_count{stage="extract"}`,
		`fragserver_stage_duration_seconds_count{stage="serialize"}`,
		`fragserver_stage_duration_seconds_count{stage="nnf"}`,
		"fragserver_cache_hits_total",
		"fragserver_cache_misses_total",
		"fragserver_cache_evictions_total",
		"fragserver_cache_bytes",
		// The /metrics scrape itself is the one request in flight.
		"fragserver_inflight_requests 1",
		"fragserver_graph_triples",
		"fragserver_ready 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsCacheParity checks that the cache series on /metrics agree
// exactly with NeighborhoodCache.Stats — the metrics layer must report
// the cache's own accounting, not a parallel count that can drift.
func TestMetricsCacheParity(t *testing.T) {
	srv, ts := newTestServer(t)
	get(t, ts, "/fragment")
	get(t, ts, "/fragment")
	st := srv.cache.Stats()
	if st.Hits == 0 {
		t.Fatal("second /fragment should have produced cache hits")
	}
	_, body := get(t, ts, "/metrics")
	for metric, want := range map[string]uint64{
		"fragserver_cache_hits_total":   st.Hits,
		"fragserver_cache_misses_total": st.Misses,
		"fragserver_cache_entries":      uint64(st.Entries),
		"fragserver_cache_triples":      uint64(st.Triples),
	} {
		if !strings.Contains(body, fmt.Sprintf("%s %d\n", metric, want)) {
			t.Errorf("/metrics %s does not match cache.Stats() value %d", metric, want)
		}
	}
}

// TestCacheHitMissAccounting pins the accounting against actual cache
// behavior end to end: a repeated /node request must convert its misses
// into hits, one per requested shape.
func TestCacheHitMissAccounting(t *testing.T) {
	srv, ts := newTestServer(t)
	frag := core.NewExtractor(srv.graphNow(), srv.h).Fragment(srv.requests[:1])
	if len(frag) == 0 {
		t.Fatal("test fragment empty")
	}
	focus := url.QueryEscape(frag[0].S.String())

	get(t, ts, "/node?iri="+focus+"&shape=S01")
	first := srv.cache.Stats()
	if first.Misses == 0 {
		t.Fatal("first /node lookup must miss")
	}
	get(t, ts, "/node?iri="+focus+"&shape=S01")
	second := srv.cache.Stats()
	if second.Hits != first.Hits+1 {
		t.Errorf("repeat /node: hits %d → %d, want +1", first.Hits, second.Hits)
	}
	if second.Misses != first.Misses {
		t.Errorf("repeat /node: misses %d → %d, want unchanged", first.Misses, second.Misses)
	}
}

// TestServerTimingHeader checks stage attribution reaches the client on
// every streaming route.
func TestServerTimingHeader(t *testing.T) {
	srv, ts := newTestServer(t)
	frag := core.NewExtractor(srv.graphNow(), srv.h).Fragment(srv.requests[:1])
	focus := url.QueryEscape(frag[0].S.String())

	for _, tc := range []struct {
		path   string
		stages []string
	}{
		{"/fragment", []string{"target;dur=", "extract;dur="}},
		{"/fragment?shape=S01", []string{"target;dur=", "extract;dur="}},
		{"/node?iri=" + focus + "&shape=S01", []string{"parse;dur=", "target;dur=", "extract;dur="}},
		{"/tpf?p=" + url.QueryEscape(`?q`), []string{"parse;dur=", "extract;dur="}},
	} {
		resp, _ := get(t, ts, tc.path)
		header := resp.Header.Get("Server-Timing")
		if header == "" {
			t.Errorf("GET %s: no Server-Timing header", tc.path)
			continue
		}
		for _, stage := range tc.stages {
			if !strings.Contains(header, stage) {
				t.Errorf("GET %s: Server-Timing %q missing %q", tc.path, header, stage)
			}
		}
		// serialize post-dates the headers by construction; it must not
		// appear, it is reported via logs and metrics instead.
		if strings.Contains(header, "serialize") {
			t.Errorf("GET %s: serialize leaked into Server-Timing %q", tc.path, header)
		}
	}
}

// TestReadyzDrain flips the drain flag and expects readiness (and the
// ready gauge) to follow while liveness stays green.
func TestReadyzDrain(t *testing.T) {
	srv, ts := newTestServer(t)
	if resp, body := get(t, ts, "/readyz"); resp.StatusCode != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("fresh server /readyz: %d %q", resp.StatusCode, body)
	}
	srv.draining.Store(true)
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != 503 {
		t.Errorf("draining server /readyz: got %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Errorf("draining server /healthz: got %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
	if !srv.Draining() {
		t.Error("Draining() accessor disagrees with drain state")
	}
	if _, body := get(t, ts, "/metrics"); !strings.Contains(body, "fragserver_ready 0") {
		t.Error("fragserver_ready gauge did not drop to 0 while draining")
	}
}

// TestShedMetric saturates the limiter and expects the shed counter to
// record the rejected request.
func TestShedMetric(t *testing.T) {
	srv, ts := newTestServer(t)
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	resp, _ := get(t, ts, "/fragment")
	for i := 0; i < cap(srv.sem); i++ {
		<-srv.sem
	}
	if resp.StatusCode != 503 {
		t.Fatalf("saturated server: %d", resp.StatusCode)
	}
	if _, body := get(t, ts, "/metrics"); !strings.Contains(body, "fragserver_requests_shed_total 1") {
		t.Error("shed request not counted in fragserver_requests_shed_total")
	}
}

// TestMetricCatalogMatchesRegistry machine-checks docs/OPERATIONS.md's
// metric catalog against what servers actually register: a default-config
// server plus one with several shards and the attribution sampler on,
// which between them register every family. A registered family missing
// from the catalog tables fails, and so does a documented family that
// neither server registers.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, found := strings.Cut(string(doc), "\n## Metric catalog\n")
	if !found {
		t.Fatal("docs/OPERATIONS.md has no \"## Metric catalog\" section")
	}
	catalog, _, _ = strings.Cut(catalog, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(catalog, "\n") {
		if row, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(row, "`")
			documented[name] = true
		}
	}

	registered := map[string]bool{}
	for _, cfg := range []Config{{}, {Shards: 4, AttributionSample: 1}} {
		cfg.Graph = datagen.Tyrol(datagen.TyrolConfig{Individuals: 30, Seed: 9})
		cfg.Schema = schema.MustNew(datagen.BenchmarkShapes()[:2]...)
		cfg.Logger = quietLogger()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// fragserver_requests_total registers its (route, status) series
		// as requests finish, so one has to finish before the scrape.
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				registered[f[2]] = true
			}
		}
	}

	for name := range registered {
		if !strings.HasPrefix(name, "fragserver_") && !strings.HasPrefix(name, "runtime_") {
			t.Errorf("registered family %s is outside the fragserver_/runtime_ namespaces", name)
		} else if !documented[name] {
			t.Errorf("registered family %s is missing from the catalog in docs/OPERATIONS.md", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OPERATIONS.md documents %s, which no server registers", name)
		}
	}
	if len(registered) == 0 {
		t.Fatal("no metric families parsed from /metrics")
	}
}
