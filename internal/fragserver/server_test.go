package fragserver

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/turtle"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer builds a server over a small synthetic graph plus its own
// serial ground truth for parity checks.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9})
	h := schema.MustNew(datagen.BenchmarkShapes()[:8]...)
	srv, err := New(Config{Graph: g, Schema: h, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// graphNow returns the graph of srv's current snapshot, unpinned: what a
// test reads "the graph as of now" through. Handlers pin a snapshot instead.
func (s *Server) graphNow() rdfgraph.Reader { return s.store.Current().Reader() }

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHandleValidate(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts, "/validate")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /validate: %d", resp.StatusCode)
	}
	for _, want := range []string{"conforms:", "focus nodes:", "violations:"} {
		if !strings.Contains(body, want) {
			t.Errorf("validate output missing %q:\n%s", want, body)
		}
	}
	_, full := get(t, ts, "/validate?full=1")
	if len(full) <= len(body) {
		t.Error("?full=1 should append per-result lines")
	}
}

// TestHandleFragmentParity checks the HTTP fragment byte-for-byte against
// serial in-process extraction — the subsystem must not change Frag(G, H).
func TestHandleFragmentParity(t *testing.T) {
	srv, ts := newTestServer(t)
	want := turtle.FormatNTriples(core.NewExtractor(srv.graphNow(), srv.h).FragmentSchema(srv.h))

	resp, body := get(t, ts, "/fragment")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fragment: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Errorf("Content-Type = %q", ct)
	}
	if body != want {
		t.Errorf("served fragment differs from serial extraction (%d vs %d bytes)", len(body), len(want))
	}
	if resp.Header.Get("X-Triple-Count") == "" {
		t.Error("missing X-Triple-Count header")
	}

	// Per-shape fragment: suffix resolution plus parity against one request.
	wantOne := turtle.FormatNTriples(core.NewExtractor(srv.graphNow(), srv.h).Fragment(srv.requests[:1]))
	resp, body = get(t, ts, "/fragment?shape=S01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fragment?shape=S01: %d", resp.StatusCode)
	}
	if body != wantOne {
		t.Error("per-shape fragment differs from serial extraction of that request")
	}

	if resp, _ := get(t, ts, "/fragment?shape=NoSuchShape"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown shape: got %d, want 404", resp.StatusCode)
	}
}

// cancelingWriter records a reply and ends its request's context at the
// first body write.
type cancelingWriter struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (w cancelingWriter) Write(p []byte) (int, error) {
	w.cancel()
	return w.ResponseRecorder.Write(p)
}

// TestStreamStopsWhenContextEnds: a request whose context ends while its
// body streams stops short of X-Triple-Count lines — the writer flushes
// every 32 KiB, so the first flush ends the context, and the stream's next
// poll sees it.
func TestStreamStopsWhenContextEnds(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 600, Seed: 9})
	srv, err := New(Config{Graph: g, Schema: datagen.BenchmarkSchema(), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(cancelingWriter{rec, cancel}, httptest.NewRequest(http.MethodGet, "/fragment", nil).WithContext(ctx))
	total, err := strconv.Atoi(rec.Header().Get("X-Triple-Count"))
	if err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status %d, X-Triple-Count %q", rec.Code, rec.Header().Get("X-Triple-Count"))
	}
	if lines := strings.Count(rec.Body.String(), "\n"); lines == 0 || lines >= total {
		t.Fatalf("streamed %d of %d lines; want the stream to stop after its first flush", lines, total)
	}
}

// TestDefIndexAmbiguity uses a schema whose definition names share a suffix:
// the short form must be rejected as ambiguous while exact names still work.
func TestDefIndexAmbiguity(t *testing.T) {
	defs := datagen.BenchmarkShapes()[:2]
	defs[0].Name = rdf.NewIRI("http://example.org/a/EventShape")
	defs[1].Name = rdf.NewIRI("http://example.org/b/EventShape")
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 20, Seed: 1})
	srv, err := New(Config{Graph: g, Schema: schema.MustNew(defs...), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.defIndex("EventShape"); ok {
		t.Error("ambiguous suffix must not resolve")
	}
	if i, ok := srv.defIndex("http://example.org/b/EventShape"); !ok || i != 1 {
		t.Errorf("exact name resolution: got (%d, %v)", i, ok)
	}
	if i, ok := srv.defIndex("b/EventShape"); !ok || i != 1 {
		t.Errorf("unique suffix resolution: got (%d, %v)", i, ok)
	}
}

func TestHandleNode(t *testing.T) {
	srv, ts := newTestServer(t)

	// Pick a focus node the fragment actually contains.
	frag := core.NewExtractor(srv.graphNow(), srv.h).Fragment(srv.requests[:1])
	if len(frag) == 0 {
		t.Fatal("test fragment is empty; pick a bigger graph")
	}
	focus := frag[0].S.String() // e.g. <http://…>

	resp, body := get(t, ts, "/node?iri="+url.QueryEscape(focus)+"&shape=S01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /node: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Errorf("Content-Type = %q", ct)
	}

	// A well-formed IRI no triple mentions: empty fragment, not an error.
	resp, body = get(t, ts, "/node?iri="+url.QueryEscape("<http://example.org/ghost>"))
	if resp.StatusCode != http.StatusOK || body != "" {
		t.Errorf("absent node: got %d with %d bytes, want empty 200", resp.StatusCode, len(body))
	}
	if c := resp.Header.Get("X-Triple-Count"); c != "0" {
		t.Errorf("absent node X-Triple-Count = %q, want 0", c)
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/node", http.StatusBadRequest},                                                // missing iri
		{"/node?iri=" + url.QueryEscape("<http://unterminated"), http.StatusBadRequest}, // malformed
		{"/node?iri=" + url.QueryEscape("no-scheme-here"), http.StatusBadRequest},       // not an IRI
		{"/node?iri=" + url.QueryEscape(focus) + "&shape=Nope", http.StatusNotFound},
	} {
		if resp, _ := get(t, ts, tc.path); resp.StatusCode != tc.want {
			t.Errorf("GET %s: got %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestHandleTPFBadInput is the table-driven malformed-parameter sweep: every
// row must yield HTTP 400 with a diagnostic body — never a panic, never 500.
func TestHandleTPFBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name  string
		query string
	}{
		{"unterminated IRI", "p=" + url.QueryEscape("<http://example.org/open")},
		{"unterminated literal", "o=" + url.QueryEscape(`"no closing quote`)},
		{"literal predicate", "p=" + url.QueryEscape(`"not an IRI"`)},
		{"bare IRI with space", "s=" + url.QueryEscape("http://example.org/a b")},
		{"bare word without scheme", "o=chamois"},
		{"empty language tag", "o=" + url.QueryEscape(`"x"@`)},
		{"bad datatype", "o=" + url.QueryEscape(`"x"^^notaniri`)},
		{"nameless variable", "s=" + url.QueryEscape("?")},
		{"triple injection", "o=" + url.QueryEscape(`<http://a#x> . <http://a#s> <http://a#p> <http://a#o>`)},
		{"object list smuggling", "o=" + url.QueryEscape(`<http://a#x>, <http://a#y>`)},
		{"angle brackets in bare IRI", "s=" + url.QueryEscape("http://exa<mple.org/x")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts, "/tpf?"+tc.query)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("got %d (%q), want 400", resp.StatusCode, strings.TrimSpace(body))
			}
			if body == "" {
				t.Error("400 response should carry a diagnostic message")
			}
		})
	}
}

func TestHandleTPF(t *testing.T) {
	srv, ts := newTestServer(t)

	// Unconstrained pattern: every triple of the graph.
	resp, body := get(t, ts, "/tpf")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tpf: %d", resp.StatusCode)
	}
	if n := strings.Count(body, "\n"); n != srv.graphNow().Len() {
		t.Errorf("unconstrained /tpf returned %d triples, graph has %d", n, srv.graphNow().Len())
	}
	if resp.Header.Get("X-Request-Shape") == "" {
		t.Error("missing X-Request-Shape header (Section 7: TPF requests are shapes)")
	}

	// Predicate-constrained, accepting both bracketed and bare IRI spellings.
	for _, spelling := range []string{"<" + datagen.PropName + ">", datagen.PropName} {
		resp, body := get(t, ts, "/tpf?p="+url.QueryEscape(spelling))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /tpf?p=%s: %d", spelling, resp.StatusCode)
		}
		if !strings.Contains(body, datagen.PropName) {
			t.Errorf("p=%s: no matching triples served", spelling)
		}
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if !strings.Contains(line, "<"+datagen.PropName+">") {
				t.Errorf("p=%s: leaked non-matching triple %s", spelling, line)
				break
			}
		}
	}

	// Repeated variable name imposes equality: s and o must coincide, and the
	// tourism graph has no such triples — a valid, empty fragment.
	resp, body = get(t, ts, "/tpf?s="+url.QueryEscape("?x")+"&o="+url.QueryEscape("?x"))
	if resp.StatusCode != http.StatusOK || body != "" {
		t.Errorf("self-loop pattern: got %d with %d bytes, want empty 200", resp.StatusCode, len(body))
	}
}

func TestLoadShedding(t *testing.T) {
	srv, ts := newTestServer(t)
	// Saturate the in-flight limiter, then observe immediate shedding.
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(srv.sem); i++ {
			<-srv.sem
		}
	}()
	resp, _ := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
}

func TestRequestTimeout(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 9})
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	srv, err := New(Config{
		Graph: g, Schema: h, Logger: quietLogger(),
		RequestTimeout: time.Nanosecond, // every budget is already spent
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := get(t, ts, "/fragment")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired budget: got %d, want 503", resp.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 10, Seed: 1})
	h := schema.MustNew(datagen.BenchmarkShapes()[:2]...)
	if _, err := New(Config{Schema: h}); err == nil {
		t.Error("New without a graph must fail")
	}
	if _, err := New(Config{Graph: g}); err == nil {
		t.Error("New without a schema must fail")
	}
	srv, err := New(Config{Graph: g, Schema: h, Logger: quietLogger(), CacheTriples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cache != nil {
		t.Error("negative CacheTriples must disable the cache")
	}
	if !g.Frozen() {
		t.Error("New must freeze the graph")
	}
}

// TestServeGracefulShutdown drives the managed listener end to end: serve,
// answer one request, cancel the context, and expect a clean drain.
func TestServeGracefulShutdown(t *testing.T) {
	srv, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 2*time.Second) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over managed listener: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts, "/fragment") // populate the cache first
	resp, body := get(t, ts, "/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %d", resp.StatusCode)
	}
	for _, want := range []string{"triples:", "shapes:", "cache:"} {
		if !strings.Contains(body, want) {
			t.Errorf("stats output missing %q:\n%s", want, body)
		}
	}
}
