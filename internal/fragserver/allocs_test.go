package fragserver

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/shaclsyn"
)

// discardResponse is a ResponseWriter that keeps nothing, so the counts
// below are the handler's own.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestWarmNodeAllocs is the allocation gate of the read tail: with the
// neighborhood cache warm, a GET through Server.Handler() — middleware,
// access log, cache lookups, canonical sort, N-Triples encoding — must stay
// under a committed number of allocations. The bounds are the measured
// counts plus a quarter: 71 for /node over all 183 definitions and 206 for
// a one-shape /fragment at two workers, where the commit before the read
// tail moved onto IDs needed 278 and 2 796. A per-shape or per-triple
// allocation creeping back in overshoots at once: the /node reply comes
// out of 183 lookups, the fragment has several hundred triples.
func TestWarmNodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	shapes, err := shaclsyn.Format(datagen.BenchmarkSchema())
	if err != nil {
		t.Fatal(err)
	}
	h, err := shaclsyn.ParseSchema(shapes) // the schema as cmd/fragserver reads it
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Graph:  datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 9}),
		Schema: h, Workers: 2, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		target string
		bound  float64
	}{
		{"/node?iri=" + url.QueryEscape("<"+datagen.NS+"lodging/0>"), 90},
		{"/fragment?shape=S01", 260},
	} {
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
		t.Logf("GET %s: %.0f allocs/op (bound %.0f)", tc.target, allocs, tc.bound)
		if allocs > tc.bound {
			t.Errorf("GET %s: %.0f allocs/op, bound %.0f", tc.target, allocs, tc.bound)
		}
	}
}
