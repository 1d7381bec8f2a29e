package fragserver

import (
	"math"
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
// — must stay under a committed number of allocations and kB. Every
// request records its span tree, so the counts include it: 16 allocations
// and 1.1–1.4 kB for /node over all 183 definitions, 41 and 7.7–8.2 kB for
// a one-shape /fragment at two workers; every bound is the most measured
// plus a tenth. /node took 59 (3.9 kB) and /fragment 90 while the request
// envelope allocated: the access log's fields boxed twice, a second derived
// request for the timeout, a second mux to route /subscribe past the
// limiter, a query map, a Turtle parse of the <iri> and a span tree
// allocated span by span, not recycled. The /fragment count was
// 232 while every worker's Bind looked the program's operands up and
// compiled its automata again, built fresh evaluators and boxed its rows
// back into a pool, and built an AST extractor it never ran; 259 before its
// per-worker sets and merge scratch were pooled; the commit before the read
// tail moved onto IDs needed 278 and 2 796. A per-shape or per-triple
// allocation creeping back in overshoots at once: the /node reply comes out
// of 183 lookups, the fragment has several hundred triples. Its kB were
// 20.7 more while every bind built its own state, and 47 more with
// per-request triple sets and an unpooled merge slice. With TraceSample 1
// the same requests also pay for being kept — traceparent header, root
// attributes, ring insert, exemplar, and a trace that is never recycled:
// 28 (3.5–3.8 kB) and 55 (10.6–11.1 kB), bounded the same way, where they
// took 69 and 100 before.
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
		kb     float64
	}{
		{0, node, 18, 1.6},
		{0, "/fragment?shape=S01", 45, 9.0},
		{1, node, 31, 4.2},
		{1, "/fragment?shape=S01", 61, 12.2},
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			srv.Handler().ServeHTTP(w, req)
		})
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / 201 / 1024 // AllocsPerRun adds a warm-up run
		t.Logf("GET %s, TraceSample %d: %.0f allocs/op, %.1f kB/op (bounds %.0f, %.1f)", tc.target, tc.sample, allocs, kb, tc.bound, tc.kb)
		if allocs > tc.bound {
			t.Errorf("GET %s, TraceSample %d: %.0f allocs/op, bound %.0f", tc.target, tc.sample, allocs, tc.bound)
		}
		if kb > tc.kb {
			t.Errorf("GET %s, TraceSample %d: %.1f kB/op, bound %.1f", tc.target, tc.sample, kb, tc.kb)
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
// parse, Store.Apply, invalidate, live notify. The pair costs about 410
// allocations and 71–72 kB, and the kB bound, 79, is that plus a tenth.
// The pair cost 77 kB while the first write to a node's row in an epoch
// copied the whole row, a hub's included, 92 kB while every update copied
// the edge list of each predicate it touches, 159 kB while live
// re-extracted every focus candidate of the subscribed shape rather than
// the foci the delta reaches, and 392 kB while publishing an epoch copied
// the graph rather than its delta. The allocation bound, 1 680, is the
// cost when every update also re-planned, plus a quarter. Both guard the
// absence of schema-only work: while every update recomputed the
// containment classes the same pair cost 6.5M allocations and 362 MB, so
// any per-update pass over the schema's shapes overshoots at once.
func TestUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs, kb := updatePairCost(t, 400)
	const boundAllocs, boundKB = 1680, 79
	t.Logf("add+delete: %.0f allocs, %.0f kB (bounds %d, %d)", allocs, kb, boundAllocs, boundKB)
	if allocs > boundAllocs || kb > boundKB {
		t.Errorf("add+delete: %.0f allocs and %.0f kB, bounds %d and %d", allocs, kb, boundAllocs, boundKB)
	}
}

// TestUpdateCostFlatInGraphSize: an update costs its delta, not the
// graph. The same add+delete pair may cost at most 1.15 times as much on
// Tyrol(4 000) as on Tyrol(400). It cost 2.5 times as much (92 → 230 kB)
// while every update copied the edge list of each predicate it touched,
// and 1.3 times (77 → 100 kB) while the first write to a row in an epoch
// copied it whole, so typing one review copied the Review class's incoming
// rdf:type set. A row is now chunks shared copy-on-write, and a write to
// a hub copies one: 71 → 76 kB, 1.06–1.07 times.
func TestUpdateCostFlatInGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	if testing.Short() {
		t.Skip("generates Tyrol(4 000)")
	}
	_, small := updatePairCost(t, 400)
	_, large := updatePairCost(t, 4000)
	t.Logf("add+delete: %.0f kB on Tyrol(400), %.0f kB on Tyrol(4 000): %.2f×", small, large, large/small)
	if large > 1.15*small {
		t.Errorf("add+delete costs %.0f kB on Tyrol(4 000), %.2f× its %.0f kB on Tyrol(400), bound 1.15×", large, large/small, small)
	}
}

// updatePairCost serves Tyrol(individuals) with an S51 subscriber and
// returns the mean allocations and kB of one effective add and one
// effective delete of a five-triple review.
func updatePairCost(t *testing.T, individuals int) (allocs, kb float64) {
	t.Helper()
	srv, err := New(Config{
		Graph:  datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 9}),
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
	body := gateReview()
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
	// The counters are the process's: goroutines other tests left behind
	// can only add to a round, so the cheapest of three rounds is kept.
	const rounds, runs = 3, 5
	allocs, kb = math.Inf(1), math.Inf(1)
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			pair()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/runs)
		kb = min(kb, float64(after.TotalAlloc-before.TotalAlloc)/runs/1024)
	}
	return allocs, kb
}

// gateReview is a five-triple review of lodging/0 on a Tyrol graph, as an
// N-Triples update body: S51, which references every review, changes when
// it is added or deleted.
func gateReview() string {
	review := rdf.NewIRI(datagen.NS + "review/gate")
	return turtle.FormatNTriples([]rdf.Triple{
		rdf.T(review, rdf.NewIRI(rdf.RDFType), datagen.ClassReview),
		rdf.T(review, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(4)),
		rdf.T(review, rdf.NewIRI(datagen.PropAuthor), rdf.NewIRI(datagen.NS+"person/0")),
		rdf.T(review, rdf.NewIRI(datagen.PropText), rdf.NewLangString("gate review", "en")),
		rdf.T(rdf.NewIRI(datagen.NS+"lodging/0"), rdf.NewIRI(datagen.PropReview), review),
	})
}
