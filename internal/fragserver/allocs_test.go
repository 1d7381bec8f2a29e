package fragserver

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/turtle"
)

// discardResponse is a ResponseWriter that keeps nothing, so the counts
// below are the handler's own.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestWarmNodeAllocs is the allocation gate of the read tail: with the
// neighborhood cache warm, a GET through Server.Handler() — middleware,
// span tree, access log, cache lookups, canonical sort, N-Triples encoding
// — must stay under a committed number of allocations. Every request
// records its span tree, so the counts include it: 61 for /node over all
// 183 definitions (bound: that plus a quarter) and 234 for a one-shape
// /fragment at two workers (bound kept at the 260 it had while only a
// flat stage list was recorded, at 240); the commit before the read tail
// moved onto IDs needed 278 and 2 796. A per-shape or per-triple
// allocation creeping back in overshoots at once: the /node reply comes
// out of 183 lookups, the fragment has several hundred triples. With
// TraceSample 1 the same requests also pay for being kept — traceparent
// header, root attributes, ring insert, exemplar: 71 and 244, bounded at
// a quarter more.
func TestWarmNodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	h := servedBenchmarkSchema(t)
	node := "/node?iri=" + url.QueryEscape("<"+datagen.NS+"lodging/0>")
	for _, tc := range []struct {
		sample int
		target string
		bound  float64
	}{
		{0, node, 77},
		{0, "/fragment?shape=S01", 260},
		{1, node, 89},
		{1, "/fragment?shape=S01", 305},
	} {
		srv, err := New(Config{
			Graph:  datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 9}),
			Schema: h, Workers: 2, Logger: quietLogger(), TraceSample: tc.sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("GET", tc.target, nil)
		w := &discardResponse{h: http.Header{}}
		srv.Handler().ServeHTTP(w, req) // warms the cache
		if w.h.Get("X-Triple-Count") == "0" {
			t.Fatalf("GET %s returned no triples: nothing to measure", tc.target)
		}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			srv.Handler().ServeHTTP(w, req)
		})
		t.Logf("GET %s, TraceSample %d: %.0f allocs/op (bound %.0f)", tc.target, tc.sample, allocs, tc.bound)
		if allocs > tc.bound {
			t.Errorf("GET %s, TraceSample %d: %.0f allocs/op, bound %.0f", tc.target, tc.sample, allocs, tc.bound)
		}
	}
}

// servedBenchmarkSchema is the 57-shape benchmark schema as cmd/fragserver
// reads it: written out as SHACL and parsed back, which names the nested
// shapes (183 definitions).
func servedBenchmarkSchema(t *testing.T) *schema.Schema {
	t.Helper()
	shapes, err := shaclsyn.Format(datagen.BenchmarkSchema())
	if err != nil {
		t.Fatal(err)
	}
	h, err := shaclsyn.ParseSchema(shapes)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestUpdateAllocs is the allocation gate of the write path: one effective
// add and one effective delete of a five-triple review on the giant
// component, POSTed through Server.Handler() with a subscriber listening —
// parse, Store.Apply, live notify. The pair costs about 1 240
// allocations and 395 kB. The kB bound, 440, is one the write path fails
// while live re-extraction keeps its bound programs instead of releasing
// them: their dictionary-sized memo rows and path scratch then come fresh
// every update, 463 kB a pair. The allocation bound, 1 680, is the cost
// when every update also re-planned, plus a quarter. Both guard the absence
// of schema-only work: while every update recomputed the containment
// classes the same pair cost 6.5M allocations and 362 MB, so any per-update
// pass over the schema's shapes overshoots at once. (Apply makes no pass
// over the old graph, but live re-extracts every focus candidate of the
// subscribed shape, so the bounds are for this graph.)
func TestUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srv, err := New(Config{
		Graph:  datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 9}),
		Schema: servedBenchmarkSchema(t), Workers: 2, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := srv.Live().Subscribe(50, 0) // S51: every review is referenced
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sub.Events() {
		}
	}()
	defer srv.Live().Drain()
	review := rdf.NewIRI(datagen.NS + "review/gate")
	body := turtle.FormatNTriples([]rdf.Triple{
		rdf.T(review, rdf.NewIRI(rdf.RDFType), datagen.ClassReview),
		rdf.T(review, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(4)),
		rdf.T(review, rdf.NewIRI(datagen.PropAuthor), rdf.NewIRI(datagen.NS+"person/0")),
		rdf.T(review, rdf.NewIRI(datagen.PropText), rdf.NewLangString("gate review", "en")),
		rdf.T(rdf.NewIRI(datagen.NS+"lodging/0"), rdf.NewIRI(datagen.PropReview), review),
	})
	pair := func() {
		for _, target := range []string{"/update", "/update?op=delete"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"changed":true`) {
				t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body)
			}
		}
	}
	pair() // interns the review's terms, sizes the pooled buffers
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	const boundAllocs, boundKB = 1680, 440
	t.Logf("add+delete: %.0f allocs, %.0f kB (bounds %d, %d)", allocs, kb, boundAllocs, boundKB)
	if allocs > boundAllocs || kb > boundKB {
		t.Errorf("add+delete: %.0f allocs and %.0f kB, bounds %d and %d", allocs, kb, boundAllocs, boundKB)
	}
}
