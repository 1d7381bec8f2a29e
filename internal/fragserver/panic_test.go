package fragserver

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/store"
)

// faultyStore serves a real store's snapshots through a reader whose
// forward index panics while armed — a stand-in for a bug in an extraction
// rule or a corrupt index, reached only once extraction walks edges (focus
// candidates come from EdgesByPredicate, which stays intact).
type faultyStore struct {
	store.Store
	armed atomic.Bool
}

func (st *faultyStore) Current() store.Snapshot {
	snap := st.Store.Current()
	return faultySnap{snap, faultyReader{snap.Reader(), &st.armed}}
}

// Apply panics while armed: the write path's stand-in for the same fault.
func (st *faultyStore) Apply(d rdfgraph.Delta) store.ApplyResult {
	faultyReader{armed: &st.armed}.trip()
	return st.Store.Apply(d)
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
	const spawnedBy = "created by shaclfrag/internal/core.(*Extractor).FragmentParallel"
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
			if _, pinned := srv.pins.min(); pinned {
				t.Error("epoch still pinned after the panic")
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
