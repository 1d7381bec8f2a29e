package fragserver

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
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
