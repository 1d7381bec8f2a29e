package fragserver

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/turtle"
)

// FuzzUpdateBody posts fuzzed bodies to /update, as an add or a delete, on
// a server whose cache is warm for a few fixed foci. The reply must be 200,
// 400 or 413, never a 500, and nothing may panic. After a 200, every
// focus's /node body must be cold AST extraction's on the new snapshot: the
// footprint walk that decides which cache entries the delta closes meets
// terms the graph never held, literals and blank nodes here.
func FuzzUpdateBody(f *testing.F) {
	for _, seed := range []string{
		// The bodies of update_test.go.
		lineAB, lineAE, lineCD,
		"<http://ex/a> <http://ex/p> <http://ex/z> .",
		"<http://ex/s0> <http://ex/p> <http://ex/o0> .",
		"this is not turtle",
		"# only a comment\n",
		// Empty, malformed, and deltas over literals and blank nodes.
		"",
		"<http://ex/a> <http://ex/p>",
		`<http://ex/b> <http://ex/q> "2"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`_:x <http://ex/p> <http://ex/a> . _:x <http://ex/q> "new"@en .`,
		`<http://ex/d> <http://ex/q> _:n .`,
		"<http://ex/e> <http://ex/p> <http://ex/c> .\n<http://ex/c> <http://ex/q> <http://ex/e> .",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	g, err := turtle.Parse(`
@prefix ex: <http://ex/> .
ex:a ex:p ex:b .
ex:b ex:q "1" .
ex:c ex:p ex:d .
ex:d ex:q _:n .
`)
	if err != nil {
		f.Fatal(err)
	}
	p, q := paths.P("http://ex/p"), paths.P("http://ex/q")
	hasP := shape.Min(1, p, shape.TrueShape())
	h := schema.MustNew(
		schema.Definition{Name: ex("S"), Shape: hasP, Target: hasP},
		schema.Definition{ // two hops: a change at b reaches a
			Name:   ex("T"),
			Shape:  shape.Min(1, p, shape.Min(1, q, shape.NodeTestShape(shape.IsLiteral{}))),
			Target: schema.TargetSubjectsOf("http://ex/p"),
		},
		schema.Definition{
			Name:   ex("U"),
			Shape:  shape.Min(1, paths.Inverse{X: q}, shape.TrueShape()),
			Target: schema.TargetObjectsOf("http://ex/q"),
		},
	)
	foci := []rdf.Term{ex("a"), ex("b"), ex("c"), ex("d"), ex("e")}

	f.Fuzz(func(t *testing.T, body string, del bool) {
		srv, err := New(Config{Graph: g.Clone(), Schema: h, Logger: quietLogger(), MaxUpdateBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		node := func(v rdf.Term) string {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/node?iri="+url.QueryEscape(v.String()), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("/node?iri=%s: %d %s", v, rec.Code, rec.Body)
			}
			return rec.Body.String()
		}
		for _, v := range foci {
			node(v)
		}

		target := "/update"
		if del {
			target += "?op=delete"
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST %s %q: %d %s", target, body, rec.Code, rec.Body)
		}
		if n := srv.metrics.panics.Value(); n != 0 {
			t.Fatalf("POST %s %q: fragserver_panics_total = %v", target, body, n)
		}
		if rec.Code != http.StatusOK {
			return
		}
		for _, v := range foci {
			if got, want := node(v), coldNodeBody(t, srv, v); got != want {
				t.Fatalf("after POST %s %q: /node?iri=%s serves\n%s\nwant cold extraction's\n%s", target, body, v, got, want)
			}
		}
	})
}
