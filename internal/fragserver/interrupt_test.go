package fragserver

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
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
// hook, once, from inside the next forward-index callback after arm, and
// counts in after every callback it serves while no hook is armed.
type hookedStore struct {
	store.Store
	hook  atomic.Pointer[func()]
	after atomic.Int64
}

func (st *hookedStore) arm(hook func()) { st.hook.Store(&hook) }

// armInside arms hook to run from inside the first forward-index callback
// after arm whose goroutine has a frame of the function named frame on its
// stack (a suffix of its full name); callbacks outside one pass through.
func (st *hookedStore) armInside(frame string, hook func()) {
	var wait func()
	wait = func() {
		if onStack(frame) {
			hook()
		} else {
			st.arm(wait)
		}
	}
	st.arm(wait)
}

// onStack reports whether the caller's stack has a frame of the function
// named frame (a suffix of its full name).
func onStack(frame string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, frame) {
			return true
		}
		if !more {
			return false
		}
	}
}

func (st *hookedStore) Current() store.Snapshot {
	snap := st.Store.Current()
	return faultySnap{snap, hookedReader{snap.Reader(), &st.hook, &st.after}}
}

type hookedReader struct {
	rdfgraph.Reader
	hook  *atomic.Pointer[func()]
	after *atomic.Int64
}

func (r hookedReader) Objects(s, p rdfgraph.ID, fn func(rdfgraph.ID)) {
	r.Reader.Objects(s, p, func(o rdfgraph.ID) {
		if hook := r.hook.Swap(nil); hook != nil {
			(*hook)()
		} else {
			r.after.Add(1)
		}
		fn(o)
	})
}

// cliqueStar is the graph and schema of the interruption tests: an n-node
// clique over p with tail further nodes hanging off its last one as chains
// parallel p-chains — product states at one triple each, where a clique's
// come at n — two nodes of which are targets of a shape asking for a p*/p*
// path, and the first of those.
func cliqueStar(n, tail, chains int) (*rdfgraph.Graph, *schema.Schema, rdf.Term) {
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
		parent := n - 1
		if i >= chains {
			parent = n + i - chains
		}
		g.Add(rdf.T(node(max(parent, 0)), p, node(n+i)))
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
// graph callback of its first path search: a star path over a 20-node
// clique with a 20 000-node tail in 100 chains, so the one source-set
// search a work unit runs is tens of thousands of product states, and a work unit
// (cancellation's old granularity) is a worker's share of the focus nodes.
// The search must stop on its own poll: the request gets the 503 of a
// timeout — not a 500, no panic counted — the graph callbacks served after
// the cancel stay under a quarter of what the whole request serves, and the
// server, its programs' released Bounds and kept focus lists included,
// answers the next request byte-identically to cold AST extraction.
func TestSearchInterruptedMidSource(t *testing.T) {
	g, h, _ := cliqueStar(20, 20000, 100)
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
			stopped := st.after.Swap(0)

			rec = fetch(context.Background())
			if rec.Code != http.StatusOK {
				t.Fatalf("next /fragment: status %d: %s", rec.Code, rec.Body.String())
			}
			if rec.Body.String() != want {
				t.Errorf("next /fragment differs from cold AST extraction (%d vs %d bytes)", rec.Body.Len(), len(want))
			}
			if full := st.after.Load(); stopped >= full/4 {
				t.Errorf("%d callbacks served after the cancel, the whole request serves %d: a worker ran its unit to the end", stopped, full)
			}
		})
	}
}

// TestNodeMissInterruptedMidSearch is TestSearchInterruptedMidSource through
// GET /node: the miss path polls the request's context from inside the
// search too, so a client that has gone, or the timeout, ends a hub's search
// with the same 503 — and a warm hit, which runs no search, installs nothing.
func TestNodeMissInterruptedMidSearch(t *testing.T) {
	g, h, focus := cliqueStar(300, 0, 1)
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

	// The next request misses, extracts on the program the interrupted one
	// released, and then hits.
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

// TestExplainInterruptedMidSearch is the same through GET /explain, with
// the cancel landing inside the attributed trace (paths.Evaluator.TraceEdges,
// which only a recording extractor calls): the focus heads a 100-node p-chain
// and its shape is ≥1 p⁺.(≥1 p⁺.⊤), so deciding the witnesses leaves the
// path's kept search at the chain's end, and tracing the focus's paths
// searches again. The request gets the 503 of a timeout, nothing of the
// interrupted request reaches another — the next /explain is byte-identical
// to the first — and a /node then serves and fills the cache.
func TestExplainInterruptedMidSearch(t *testing.T) {
	const ns = "http://chain.example/"
	g := rdfgraph.New()
	p, focus := rdf.NewIRI(ns+"p"), rdf.NewIRI(ns+"focus")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%sn%03d", ns, i)) }
	for i := 0; i < 100; i++ {
		g.Add(rdf.T(node(i), p, node(i+1)))
	}
	g.Add(rdf.T(node(0), focus, node(1)))
	plus := paths.Seq{Left: paths.P(p.Value), Right: paths.Star{X: paths.P(p.Value)}}
	h := schema.MustNew(schema.Definition{
		Name:   rdf.NewIRI(ns + "Chain"),
		Shape:  shape.Min(1, plus, shape.Min(1, plus, &shape.True{})),
		Target: schema.TargetSubjectsOf(focus.Value),
	})
	store.WarmDictionary(g, h)
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
		target := route + "?iri=" + url.QueryEscape(node(0).String())
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil).WithContext(ctx))
		return rec
	}
	want := fetch(context.Background(), "/explain")
	if want.Code != http.StatusOK || !strings.Contains(want.Body.String(), `"step"`) {
		t.Fatalf("first /explain: status %d, body without a traced step: %.200s", want.Code, want.Body.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var traced atomic.Bool
	st.armInside("paths.(*Evaluator).TraceEdges", func() { traced.Store(true); cancel() })
	rec := fetch(ctx, "/explain")
	if !traced.Load() {
		t.Fatal("no graph callback of the request ran inside an attributed trace")
	}
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
		t.Errorf("next /node: status %d, %d neighborhoods cached", rec.Code, srv.cache.Len())
	}
}

// TestValidateInterruptedMidSearch is the same through GET /validate, whose
// conformance checks run the same star search over the clique: the request
// ends with the 503 of a timeout instead of running past its budget, no
// panic is counted, and the next /validate answers as a fresh server does.
func TestValidateInterruptedMidSearch(t *testing.T) {
	g, h, _ := cliqueStar(300, 0, 1)
	serve := func(st store.Store) *Server {
		srv, err := New(Config{Store: st, Schema: h, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	fetch := func(srv *Server, ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/validate?full=1", nil).WithContext(ctx))
		return rec
	}
	real, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := fetch(serve(real), context.Background())
	if want.Code != http.StatusOK {
		t.Fatalf("cold /validate: status %d: %s", want.Code, want.Body.String())
	}

	st := &hookedStore{Store: real}
	srv := serve(st)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.arm(cancel)
	rec := fetch(srv, ctx)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Fatalf("cancelled /validate: status %d %.200q, want 503 naming %v", rec.Code, rec.Body.String(), context.Canceled)
	}
	if got := srv.metrics.panics.Value(); got != 0 {
		t.Errorf("fragserver_panics_total = %v: a stopped search is not a panic", got)
	}
	if rec = fetch(srv, context.Background()); rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
		t.Errorf("next /validate: status %d, differs from a fresh server's (%q vs %q)", rec.Code, rec.Body.String(), want.Body.String())
	}
}
