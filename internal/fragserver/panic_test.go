package fragserver

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

// faultyStore serves a real store's snapshots through a reader whose
// forward index panics while armed — a stand-in for a bug in an extraction
// rule or a corrupt index, reached only once extraction walks edges (focus
// candidates come from the posting lists, through Endpoints, which stays
// intact).
type faultyStore struct {
	store.Store
	armed atomic.Bool
	// faultAfterApply lets Apply succeed while armed: the fault hits
	// whoever reads the new epoch, live maintenance first.
	faultAfterApply bool
	// faultBaseOnly lets Apply succeed too, and only the base snapshot it
	// returns reads through the faulty reader: footprint walks fault,
	// extraction on the new epoch does not.
	faultBaseOnly bool
}

func (st *faultyStore) Current() store.Snapshot {
	snap := st.Store.Current()
	return faultySnap{snap, faultyReader{snap.Reader(), &st.armed}}
}

// Apply panics while armed, the write path's stand-in for the same fault,
// unless faultAfterApply or faultBaseOnly; the snapshots it returns, new
// (unless faultBaseOnly) and base, read through the faulty reader.
func (st *faultyStore) Apply(d rdfgraph.Delta) store.ApplyResult {
	if !st.faultAfterApply && !st.faultBaseOnly {
		faultyReader{armed: &st.armed}.trip()
	}
	res := st.Store.Apply(d)
	if !st.faultBaseOnly {
		res.Snapshot = faultySnap{res.Snapshot, faultyReader{res.Snapshot.Reader(), &st.armed}}
	}
	res.Base = faultySnap{res.Base, faultyReader{res.Base.Reader(), &st.armed}}
	return res
}

type faultySnap struct {
	store.Snapshot
	r rdfgraph.Reader
}

func (s faultySnap) Reader() rdfgraph.Reader { return s.r }

type faultyReader struct {
	rdfgraph.Reader
	armed *atomic.Bool
}

func (r faultyReader) trip() {
	if r.armed.Load() {
		panic("index corrupted")
	}
}

func (r faultyReader) Objects(s, p rdfgraph.ID, fn func(rdfgraph.ID)) {
	r.trip()
	r.Reader.Objects(s, p, fn)
}

func (r faultyReader) HasIDs(s, p, o rdfgraph.ID) bool {
	r.trip()
	return r.Reader.HasIDs(s, p, o)
}

func (r faultyReader) PredicatesFrom(s rdfgraph.ID, fn func(p, o rdfgraph.ID)) {
	r.trip()
	r.Reader.PredicatesFrom(s, fn)
}

// TestExtractionPanicIs500 checks a panic during /fragment extraction costs
// that request a counted, logged 500 — without the Retry-After of the
// timeout path — and nothing else: on the one-worker path it happens on the
// handler's goroutine, on the multi-worker path on a goroutine net/http
// never sees, where unrecovered it would end the process. The server keeps
// serving either way.
func TestExtractionPanicIs500(t *testing.T) {
	const spawnedBy = "created by shaclfrag/internal/core.FragmentParallelIDs"
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9})
			h := schema.MustNew(datagen.BenchmarkShapes()[:8]...)
			store.WarmDictionary(g, h)
			real, err := store.New(g, store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			st := &faultyStore{Store: real}
			var logs bytes.Buffer
			srv, err := New(Config{
				Store: st, Schema: h, Workers: workers, CacheTriples: -1,
				Logger: slog.New(slog.NewTextHandler(&logs, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			fetch := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fragment", nil))
				return rec
			}

			st.armed.Store(true)
			rec := fetch()
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("armed /fragment: status %d, want 500", rec.Code)
			}
			if rec.Header().Get("Retry-After") != "" {
				t.Error("a panic is not load: the 500 must not carry Retry-After")
			}
			if got := srv.metrics.panics.Value(); got != 1 {
				t.Errorf("fragserver_panics_total = %v, want 1", got)
			}
			if !strings.Contains(logs.String(), "index corrupted") {
				t.Errorf("log does not carry the panic value:\n%s", logs.String())
			}
			if onWorker := strings.Contains(logs.String(), spawnedBy); onWorker != (workers > 1) {
				t.Errorf("panic recovered on a worker goroutine = %v with %d workers:\n%s", onWorker, workers, logs.String())
			}

			st.armed.Store(false)
			if rec := fetch(); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("disarmed /fragment: status %d, %d bytes", rec.Code, rec.Body.Len())
			}
		})
	}
}

// TestHandlerPanicIs500 checks a panic on the handler's own goroutine — a
// /node miss walking a corrupt index, an /update whose apply faults — is
// the same bounded outcome as one inside FragmentParallel: one counted,
// logged 500 that went through the access log, requests_total and the
// trace ring like any other request, the limiter slot and the epoch pin
// given back, and the next request served.
func TestHandlerPanicIs500(t *testing.T) {
	focus := "/node?iri=" + url.QueryEscape("<"+datagen.NS+"lodging/0>")
	for _, tc := range []struct {
		name, method, target, body, route string
		stage                             string // open when the fault hits: never ended, so not observed
	}{
		{"node miss", "GET", focus, "", "/node", "extract"},
		{"update", "POST", "/update", "<http://ex/a> <http://ex/p> <http://ex/b> .\n", "/update", "apply"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9})
			h := schema.MustNew(datagen.BenchmarkShapes()[:8]...)
			store.WarmDictionary(g, h)
			real, err := store.New(g, store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			st := &faultyStore{Store: real}
			var logs bytes.Buffer
			srv, err := New(Config{
				Store: st, Schema: h, CacheTriples: -1, TraceSample: 1,
				Logger: slog.New(slog.NewTextHandler(&logs, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			fetch := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
				return rec
			}

			st.armed.Store(true)
			rec := fetch()
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("armed %s: status %d, want 500", tc.target, rec.Code)
			}
			if rec.Header().Get("Retry-After") != "" {
				t.Error("a panic is not load: the 500 must not carry Retry-After")
			}
			if got := srv.metrics.panics.Value(); got != 1 {
				t.Errorf("fragserver_panics_total = %v, want 1", got)
			}
			if got := srv.metrics.requests[routeStatus{tc.route, 500}]; got == nil || got.Value() != 1 {
				t.Errorf("requests_total{route=%q,status=\"500\"} = %v, want 1", tc.route, got)
			}
			if got := srv.metrics.stages[tc.stage].Count(); got != 0 {
				t.Errorf("stage %s, cut short by the panic, observed %d times", tc.stage, got)
			}
			if n := strings.Count(logs.String(), "index corrupted"); n != 1 {
				t.Errorf("panic value logged %d times, want once:\n%s", n, logs.String())
			}
			for _, want := range []string{`msg="panic serving request"`, "faultyReader.trip", "msg=request ", "status=500"} {
				if !strings.Contains(logs.String(), want) {
					t.Errorf("log lacks %s:\n%s", want, logs.String())
				}
			}
			if ts := srv.Traces().Summaries(); len(ts) != 1 || !ts[0].Notable {
				t.Errorf("panicked request's trace not kept as notable: %+v", ts)
			}
			if len(srv.sem) != 0 || srv.metrics.inflight.Value() != 0 {
				t.Errorf("limiter slot not given back: %d held, inflight %v", len(srv.sem), srv.metrics.inflight.Value())
			}

			st.armed.Store(false)
			if rec := fetch(); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("disarmed %s: status %d, %d bytes", tc.target, rec.Code, rec.Body.Len())
			}
		})
	}
}

// TestPanicMidResponseAborts: once bytes are out a 500 can no longer be
// written, so the panic is counted and recorded as one and then handed to
// net/http as ErrAbortHandler, which cuts the connection instead of
// ending the body as if it were whole.
func TestPanicMidResponseAborts(t *testing.T) {
	srv, _ := newUpdateTestServer(t, Config{})
	h := srv.withObs(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("partial")) //nolint:errcheck — a recorder
		panic("mid-stream")
	}))
	rec := httptest.NewRecorder()
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler", r)
			}
		}()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/fragment", nil))
	}()
	if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Errorf("response rewritten after it began: %d %q", rec.Code, rec.Body)
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("fragserver_panics_total = %v, want 1", got)
	}
	if got := srv.metrics.requests[routeStatus{"/fragment", 500}]; got == nil || got.Value() != 1 {
		t.Errorf("aborted response not recorded as a 500: %v", got)
	}
}

// lockedBuffer collects log output that handler goroutines write while the
// test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestLiveMaintenancePanicEvicts: a panic while live maintenance extracts a
// subscribed shape at a new epoch is counted and logged like a request's,
// closes the shape's streams as evicted, and leaves the update applied —
// /update answers 200 with the new epoch. Once the fault is gone a fresh
// subscriber gets a snapshot of the current epoch, then a delta.
func TestLiveMaintenancePanicEvicts(t *testing.T) {
	g := rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "b"), exTriple("c", "d")})
	hasP := shape.Min(1, paths.P("http://ex/p"), shape.TrueShape())
	h := schema.MustNew(schema.Definition{Name: ex("S"), Shape: hasP, Target: hasP})
	store.WarmDictionary(g, h)
	real, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := &faultyStore{Store: real, faultAfterApply: true}
	var logs lockedBuffer
	srv, err := New(Config{Store: st, Schema: h, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close) // after the streams' cleanups cancel them

	stream := openStream(t, ts, "/subscribe?shape=S", "")
	if ev, _ := stream.next(t); ev.event != "snapshot" || ev.id != "1" {
		t.Fatalf("first event: %+v", ev)
	}
	st.armed.Store(true)
	resp, body := post(t, ts, "/update", lineAE)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"epoch":2`) {
		t.Fatalf("armed /update: %d %s, want 200 at epoch 2", resp.StatusCode, body)
	}
	if ev, ok := stream.next(t); !ok || ev.event != "bye" || !strings.Contains(ev.data, `"evicted"`) {
		t.Fatalf("after the maintenance panic: %+v (open %v), want the evicted bye", ev, ok)
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("fragserver_panics_total = %v, want 1", got)
	}
	for _, want := range []string{`msg="panic maintaining live fragments"`, "index corrupted", "faultyReader.trip"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %s:\n%s", want, logs.String())
		}
	}

	st.armed.Store(false)
	stream = openStream(t, ts, "/subscribe?shape=S", "")
	ev, _ := stream.next(t)
	if ev.event != "snapshot" || ev.id != "2" {
		t.Fatalf("resubscribed: %+v, want the epoch-2 snapshot", ev)
	}
	if p := ssePayloadOf(t, ev); len(p.Added) != 3 {
		t.Fatalf("epoch-2 snapshot has %d lines, want 3: %+v", len(p.Added), p)
	}
	post(t, ts, "/update", lineCF)
	ev, _ = stream.next(t)
	if p := ssePayloadOf(t, ev); ev.event != "delta" || ev.id != "3" || len(p.Added) != 1 || p.Added[0] != lineCF {
		t.Fatalf("after resubscribing: %+v, want the epoch-3 delta adding %s", ev, lineCF)
	}
}

// TestLiveWalkPanicRebuilds: a panic while live walks a maintained shape's
// footprint is counted and logged, and the shape stays maintained: it is
// rebuilt from the new epoch, so its subscriber gets the exact delta and
// is not evicted.
func TestLiveWalkPanicRebuilds(t *testing.T) {
	g := rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "b"), exTriple("c", "d")})
	// A walk back from a q-triple of a goes over Objects(a, p).
	viaP := shape.Min(1, paths.Inv(paths.P("http://ex/p")), shape.Min(1, paths.P("http://ex/q"), shape.TrueShape()))
	h := schema.MustNew(schema.Definition{Name: ex("S"), Shape: viaP, Target: shape.TrueShape()})
	store.WarmDictionary(g, h)
	real, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := &faultyStore{Store: real, faultBaseOnly: true}
	var logs lockedBuffer
	srv, err := New(Config{Store: st, Schema: h, CacheTriples: -1, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	stream := openStream(t, ts, "/subscribe?shape=S", "")
	if ev, _ := stream.next(t); ev.event != "snapshot" || ev.id != "1" {
		t.Fatalf("first event: %+v", ev)
	}
	// Served in process, so the request's log line is written before the
	// log is read.
	st.armed.Store(true)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/update",
		strings.NewReader("<http://ex/a> <http://ex/q> <http://ex/e> .")))
	st.armed.Store(false)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"epoch":2`) {
		t.Fatalf("armed /update: %d %s, want 200 at epoch 2", rec.Code, rec.Body)
	}
	ev, _ := stream.next(t)
	want := []string{"<http://ex/a> <http://ex/p> <http://ex/b> .", "<http://ex/a> <http://ex/q> <http://ex/e> ."}
	if p := ssePayloadOf(t, ev); ev.event != "delta" || ev.id != "2" || !slices.Equal(p.Added, want) || len(p.Removed) != 0 {
		t.Fatalf("after the walk panic: %+v, want the epoch-2 delta adding %q", ev, want)
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("fragserver_panics_total = %v, want 1", got)
	}
	for _, want := range []string{`msg="panic walking a live footprint"`, "index corrupted", "faultyReader.trip"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %s:\n%s", want, logs.String())
		}
	}
}

// TestPanickedNodeMissServesColdNext: a /node miss that panicked
// mid-extraction leaves nothing a later request reads — its program's
// Bound is released with the panic, memo rows and all, and no extraction
// state outlives a request. The next /node on the same epoch serves the
// bytes of cold extraction.
func TestPanickedNodeMissServesColdNext(t *testing.T) {
	focus := "/node?iri=" + url.QueryEscape("<"+datagen.NS+"lodging/0>")
	build := func() (*Server, *faultyStore) {
		g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9})
		h := schema.MustNew(datagen.BenchmarkShapes()[:8]...)
		store.WarmDictionary(g, h)
		real, err := store.New(g, store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		st := &faultyStore{Store: real}
		srv, err := New(Config{Store: st, Schema: h, CacheTriples: -1, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		return srv, st
	}
	fetch := func(srv *Server) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", focus, nil))
		return rec
	}
	cold, _ := build()
	want := fetch(cold)
	if want.Code != http.StatusOK || want.Body.Len() == 0 {
		t.Fatalf("cold /node: %d, %d bytes", want.Code, want.Body.Len())
	}

	srv, st := build()
	st.armed.Store(true)
	if rec := fetch(srv); rec.Code != http.StatusInternalServerError {
		t.Fatalf("armed /node: %d, want 500", rec.Code)
	}
	st.armed.Store(false)
	if rec := fetch(srv); rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
		t.Fatalf("/node after the panic: %d\n%s\nwant the cold bytes:\n%s", rec.Code, rec.Body, want.Body)
	}
}

// TestInvalidationPanicClosesEverything: a panic while an update walks the
// cache's footprints is counted and logged, removes every cache entry, and
// leaves the update applied — /update answers 200 — and the cache serving:
// the next read misses, recomputes, and serves the new epoch's bytes.
func TestInvalidationPanicClosesEverything(t *testing.T) {
	g := rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "b"), exTriple("c", "d")})
	// b reads q where p⁻ leads, at a: a walk back from a q-triple of a
	// goes over Objects(a, p), which the armed reader faults.
	viaP := shape.Min(1, paths.Inv(paths.P("http://ex/p")), shape.Min(1, paths.P("http://ex/q"), shape.TrueShape()))
	h := schema.MustNew(schema.Definition{Name: ex("S"), Shape: viaP, Target: shape.TrueShape()})
	store.WarmDictionary(g, h)
	real, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := &faultyStore{Store: real, faultAfterApply: true}
	var logs bytes.Buffer
	srv, err := New(Config{Store: st, Schema: h, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	read := func() string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", nodeURL("b"), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/node?iri=b: %d", rec.Code)
		}
		return rec.Body.String()
	}
	if body := read(); body != "" {
		t.Fatalf("a has no q-edge yet, but b's neighborhood is\n%s", body)
	}
	st.armed.Store(true)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/update",
		strings.NewReader("<http://ex/a> <http://ex/q> <http://ex/e> .")))
	st.armed.Store(false)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"epoch":2`) {
		t.Fatalf("armed /update: %d %s, want 200 at epoch 2", rec.Code, rec.Body)
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("fragserver_panics_total = %v, want 1", got)
	}
	for _, want := range []string{`msg="panic invalidating the neighborhood cache"`, "index corrupted", "faultyReader.trip"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %s:\n%s", want, logs.String())
		}
	}
	if s := srv.cache.Stats(); s.Invalidated != 1 || s.Kept != 0 {
		t.Errorf("the panicked transition kept %d and invalidated %d entries, want 0 and 1", s.Kept, s.Invalidated)
	}
	before := srv.cache.Stats().Misses
	if body, want := read(), "<http://ex/a> <http://ex/p> <http://ex/b> .\n<http://ex/a> <http://ex/q> <http://ex/e> .\n"; body != want {
		t.Fatalf("/node?iri=b after the update:\n%s\nwant:\n%s", body, want)
	}
	if srv.cache.Stats().Misses == before {
		t.Error("the read after the panicked transition was served from the cache")
	}
}
