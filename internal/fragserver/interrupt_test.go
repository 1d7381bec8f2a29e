package fragserver

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// hookedStore serves a real store's snapshots through a reader that runs
// hook, once, from inside the next forward-index callback after arm.
type hookedStore struct {
	store.Store
	hook atomic.Pointer[func()]
}

func (st *hookedStore) arm(hook func()) { st.hook.Store(&hook) }

func (st *hookedStore) Current() store.Snapshot {
	snap := st.Store.Current()
	return faultySnap{snap, hookedReader{snap.Reader(), &st.hook}}
}

type hookedReader struct {
	rdfgraph.Reader
	hook *atomic.Pointer[func()]
}

func (r hookedReader) Objects(s, p rdfgraph.ID, fn func(rdfgraph.ID)) {
	r.Reader.Objects(s, p, func(o rdfgraph.ID) {
		if hook := r.hook.Swap(nil); hook != nil {
			(*hook)()
		}
		fn(o)
	})
}

// cliqueStar is the graph and schema of the interruption tests: an n-node
// clique over p with a p-chain of tail further nodes hanging off it —
// product states at one triple each, where a clique's come at n — two nodes
// of which are targets of a shape asking for a p*/p* path, and the first of
// those.
func cliqueStar(n, tail int) (*rdfgraph.Graph, *schema.Schema, rdf.Term) {
	const ns = "http://clique.example/"
	g := rdfgraph.New()
	p, focus := rdf.NewIRI(ns+"p"), rdf.NewIRI(ns+"focus")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%sn%03d", ns, i)) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Add(rdf.T(node(i), p, node(j)))
			}
		}
	}
	for i := 0; i < tail; i++ {
		g.Add(rdf.T(node(max(n+i-1, 0)), p, node(n+i)))
	}
	g.Add(rdf.T(node(0), focus, node(1)))
	g.Add(rdf.T(node(7), focus, node(1)))
	star := paths.Star{X: paths.P(p.Value)}
	h := schema.MustNew(schema.Definition{
		Name:   rdf.NewIRI(ns + "Star"),
		Shape:  shape.Min(1, paths.Seq{Left: star, Right: star}, &shape.True{}),
		Target: schema.TargetSubjectsOf(focus.Value),
	})
	store.WarmDictionary(g, h)
	return g, h, node(0)
}

// TestSearchInterruptedMidSource cancels a /fragment request from inside a
// graph callback of its first path search: a star path over a 300-node
// clique, where one source alone is some ten thousand product states over
// 90 000 edges, and a work unit (cancellation's old granularity) is every
// focus node there is. The search must stop on its own poll: the request
// gets the 503 of a timeout — not a 500, no panic counted — nothing of the
// interrupted unit reaches the cache, and the server, pooled extractor and
// all, answers the next request byte-identically to cold AST extraction.
func TestSearchInterruptedMidSource(t *testing.T) {
	g, h, _ := cliqueStar(300, 0)
	want := turtle.FormatNTriples(core.NewExtractor(g, h).Fragment(core.SchemaRequests(h)))

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			real, err := store.New(g, store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			st := &hookedStore{Store: real}
			srv, err := New(Config{Store: st, Schema: h, Workers: workers, CacheTriples: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			fetch := func(ctx context.Context) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fragment", nil).WithContext(ctx))
				return rec
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st.arm(cancel)
			rec := fetch(ctx)
			if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
				t.Fatalf("cancelled /fragment: status %d %q, want 503 naming %v", rec.Code, rec.Body.String(), context.Canceled)
			}
			if got := srv.metrics.panics.Value(); got != 0 {
				t.Errorf("fragserver_panics_total = %v: a stopped search is not a panic", got)
			}
			if n := srv.cache.Len(); n != 0 {
				t.Errorf("%d neighborhoods cached by the interrupted request, want none", n)
			}

			rec = fetch(context.Background())
			if rec.Code != http.StatusOK {
				t.Fatalf("next /fragment: status %d: %s", rec.Code, rec.Body.String())
			}
			if rec.Body.String() != want {
				t.Errorf("next /fragment differs from cold AST extraction (%d vs %d bytes)", rec.Body.Len(), len(want))
			}
		})
	}
}

// TestNodeMissInterruptedMidSearch is TestSearchInterruptedMidSource through
// GET /node: the miss path polls the request's context from inside the
// search too, so a client that has gone, or the timeout, ends a hub's search
// with the same 503 — and a warm hit, which runs no search, installs nothing.
func TestNodeMissInterruptedMidSearch(t *testing.T) {
	g, h, focus := cliqueStar(300, 0)
	want := turtle.FormatNTriples(core.NewExtractor(g, h).Neighborhood(focus, h.Definitions()[0].Shape))

	real, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := &hookedStore{Store: real}
	srv, err := New(Config{Store: st, Schema: h, CacheTriples: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		target := "/node?iri=" + url.QueryEscape(focus.String())
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil).WithContext(ctx))
		return rec
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.arm(cancel)
	rec := fetch(ctx)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Fatalf("cancelled /node: status %d %q, want 503 naming %v", rec.Code, rec.Body.String(), context.Canceled)
	}
	if got := srv.metrics.panics.Value(); got != 0 {
		t.Errorf("fragserver_panics_total = %v: a stopped search is not a panic", got)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Errorf("%d neighborhoods cached by the interrupted request, want none", n)
	}

	// The same pooled extractor serves the next request, cold and then warm.
	for _, state := range []string{"cold", "warm"} {
		rec = fetch(context.Background())
		if rec.Code != http.StatusOK {
			t.Fatalf("next /node (%s): status %d: %s", state, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != want {
			t.Errorf("next /node (%s) differs from cold AST extraction (%d vs %d bytes)", state, rec.Body.Len(), len(want))
		}
	}
}

// TestExplainInterruptedMidSearch is the same through GET /explain, the last
// route to poll. The pooled extractor has answered once and then validated,
// which leaves conformance memoized and the other target's search as the one
// kept, so the interrupted request stops inside its attributed trace: it gets
// the 503 of a timeout, and the extractor it unwound through is whole again —
// the next /explain is byte-identical to the first, and the recorder is gone,
// so a /node through that extractor fills the cache.
func TestExplainInterruptedMidSearch(t *testing.T) {
	g, h, focus := cliqueStar(20, 3000) // /explain writes some 900 bytes a triple
	real, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := &hookedStore{Store: real}
	srv, err := New(Config{Store: st, Schema: h, CacheTriples: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(ctx context.Context, route string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		target := route + "?iri=" + url.QueryEscape(focus.String())
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil).WithContext(ctx))
		return rec
	}
	want := fetch(context.Background(), "/explain")
	if want.Code != http.StatusOK || !strings.Contains(want.Body.String(), `"step"`) {
		t.Fatalf("first /explain: status %d, body without a traced step: %.200s", want.Code, want.Body.String())
	}
	if rec := fetch(context.Background(), "/validate"); rec.Code != http.StatusOK {
		t.Fatalf("/validate: status %d", rec.Code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.arm(cancel)
	rec := fetch(ctx, "/explain")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Fatalf("cancelled /explain: status %d %.200q, want 503 naming %v", rec.Code, rec.Body.String(), context.Canceled)
	}
	if got := srv.metrics.panics.Value(); got != 0 {
		t.Errorf("fragserver_panics_total = %v: a stopped search is not a panic", got)
	}

	if rec = fetch(context.Background(), "/explain"); rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
		t.Errorf("next /explain: status %d, differs from the first (%d vs %d bytes)", rec.Code, rec.Body.Len(), want.Body.Len())
	}
	if rec = fetch(context.Background(), "/node"); rec.Code != http.StatusOK || srv.cache.Len() == 0 {
		t.Errorf("next /node: status %d, %d neighborhoods cached: the interrupted explanation's recorder is still attached", rec.Code, srv.cache.Len())
	}
}
