package fragserver

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/turtle"
)

// newExplainServer builds a server over a tiny hand-written graph whose
// explanations are fully predictable: p1 conforms to WorkshopShape (author
// bob, a student), p2 does not (author anne, a professor).
func newExplainServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, err := turtle.Parse(`
@prefix ex: <http://x/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:p1 rdf:type ex:Paper ; ex:author ex:bob .
ex:p2 rdf:type ex:Paper ; ex:author ex:anne .
ex:bob rdf:type ex:Student .
ex:anne rdf:type ex:Professor .
`)
	if err != nil {
		t.Fatal(err)
	}
	h := schema.MustNew(schema.Definition{
		Name: rdf.NewIRI("http://x/WorkshopShape"),
		Shape: shape.Min(1, paths.P("http://x/author"),
			shape.Min(1, paths.P(rdf.RDFType), shape.Value(rdf.NewIRI("http://x/Student")))),
		Target: schema.TargetClass(rdf.NewIRI("http://x/Paper")),
	})
	cfg.Graph, cfg.Schema, cfg.Logger = g, h, quietLogger()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getExplain(t *testing.T, ts *httptest.Server, query string) (*http.Response, explainResponse) {
	t.Helper()
	resp, body := get(t, ts, "/explain?"+query)
	var er explainResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatalf("bad /explain JSON: %v\n%s", err, body)
		}
	}
	return resp, er
}

func TestHandleExplain(t *testing.T) {
	_, ts := newExplainServer(t, Config{})
	resp, er := getExplain(t, ts, "iri="+url.QueryEscape("http://x/p1")+"&shape=WorkshopShape")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	if len(er.Shapes) != 1 || er.Shapes[0].Conforms == nil || !*er.Shapes[0].Conforms {
		t.Fatalf("shape status = %+v, want conforming WorkshopShape", er.Shapes)
	}
	// B(p1, WorkshopShape) = {(p1 author bob), (bob type Student)}, each
	// justified by a minCount rule firing with a path step.
	if len(er.Triples) != 2 {
		t.Fatalf("explained %d triples, want 2: %+v", len(er.Triples), er.Triples)
	}
	for _, et := range er.Triples {
		if len(et.Justifications) == 0 {
			t.Fatalf("triple %s %s %s has no justifications", et.S, et.P, et.O)
		}
		j := et.Justifications[0]
		if j.Kind != "minCount" || j.Shape != "<http://x/WorkshopShape>" {
			t.Errorf("justification = %+v, want minCount under WorkshopShape", j)
		}
		if j.Step == nil || j.Step.Pred == "" {
			t.Errorf("path-traced justification missing its step: %+v", j)
		}
	}
	// The author triple's justification fires at p1.
	var authorJust *explainJustification
	for i := range er.Triples {
		if er.Triples[i].P == "<http://x/author>" {
			authorJust = &er.Triples[i].Justifications[0]
		}
	}
	if authorJust == nil || authorJust.Focus != "<http://x/p1>" {
		t.Errorf("author triple justification = %+v, want focus p1", authorJust)
	}

	// Non-conforming node: conforms=false and an empty neighborhood.
	_, er = getExplain(t, ts, "iri="+url.QueryEscape("http://x/p2"))
	if len(er.Shapes) != 1 || er.Shapes[0].Conforms == nil || *er.Shapes[0].Conforms {
		t.Fatalf("p2 should not conform: %+v", er.Shapes)
	}
	if len(er.Triples) != 0 {
		t.Errorf("non-conforming node explained %d triples, want 0", len(er.Triples))
	}

	// A term the graph has never seen: 200, no conforms claim, no triples.
	resp, er = getExplain(t, ts, "iri="+url.QueryEscape("<http://x/ghost>"))
	if resp.StatusCode != http.StatusOK || len(er.Triples) != 0 {
		t.Fatalf("ghost node: status %d, %d triples", resp.StatusCode, len(er.Triples))
	}
	if len(er.Shapes) != 1 || er.Shapes[0].Conforms != nil {
		t.Errorf("ghost node must omit conforms: %+v", er.Shapes)
	}

	// Error paths: missing iri, malformed iri, unknown shape.
	if resp, _ := get(t, ts, "/explain"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing iri: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/explain?iri="+url.QueryEscape("<oops")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed iri: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/explain?iri="+url.QueryEscape("http://x/p1")+"&shape=Nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown shape: %d, want 404", resp.StatusCode)
	}

	// The /explain volume counters moved.
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(metrics, "fragserver_explain_triples_total 2") {
		t.Error("/metrics missing the explain triple counter")
	}
	if !strings.Contains(metrics, "fragserver_explain_justifications_total") {
		t.Error("/metrics missing the explain justification counter")
	}
	// /explain is a first-class route label.
	if !strings.Contains(metrics, `fragserver_requests_total{route="/explain"`) {
		t.Error("/metrics missing the /explain route series")
	}
}

func TestExplainDisabled(t *testing.T) {
	_, ts := newExplainServer(t, Config{DisableExplain: true})
	resp, body := get(t, ts, "/explain?iri="+url.QueryEscape("http://x/p1"))
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "disabled") {
		t.Errorf("disabled /explain: status %d body %q", resp.StatusCode, body)
	}
	// The rest of the server is unaffected.
	if resp, _ := get(t, ts, "/fragment"); resp.StatusCode != http.StatusOK {
		t.Errorf("/fragment while explain disabled: %d", resp.StatusCode)
	}
}

// TestExplainAgreesWithNode pins /explain, the one attributed route, to the
// bytes the serving engines and the neighborhood cache return: for a seeded
// sample of nodes and every IRI-named definition of the served benchmark
// schema, the triples /explain?iri=&shape= annotates, written as
// N-Triples, are the body of /node?iri=&shape= — cold, and again warm.
func TestExplainAgreesWithNode(t *testing.T) {
	h := servedBenchmarkSchema(t)
	var named []string
	for _, d := range h.Definitions() {
		if d.Name.IsIRI() {
			named = append(named, d.Name.Value)
		}
	}
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 250, Seed: 11})
	var iris []string
	for _, id := range g.NodeIDs() {
		if term := g.Term(id); term.IsIRI() {
			iris = append(iris, term.String())
		}
	}
	rng := rand.New(rand.NewSource(27))
	rng.Shuffle(len(iris), func(i, j int) { iris[i], iris[j] = iris[j], iris[i] })
	srv, err := New(Config{Graph: g, Schema: h, Workers: 2, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(target string) string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	nonEmpty := 0
	for _, focus := range iris[:16] {
		for _, name := range named {
			query := "?iri=" + url.QueryEscape(focus) + "&shape=" + url.QueryEscape(name)
			var er explainResponse
			if err := json.Unmarshal([]byte(serve("/explain"+query)), &er); err != nil {
				t.Fatal(err)
			}
			var explained strings.Builder
			for _, et := range er.Triples {
				explained.WriteString(et.S + " " + et.P + " " + et.O + " .\n")
			}
			for _, state := range []string{"cold", "warm"} {
				if node := serve("/node" + query); node != explained.String() {
					t.Fatalf("%s %s (%s): /explain annotates\n%s/node serves\n%s",
						focus, name, state, explained.String(), node)
				}
			}
			if len(er.Triples) > 0 {
				nonEmpty++
			}
		}
	}
	t.Logf("%d of %d neighborhoods non-empty", nonEmpty, 16*len(named))
	if nonEmpty < 16 {
		t.Fatalf("only %d non-empty neighborhoods compared", nonEmpty)
	}
	if st := srv.cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("/node took %d hits and %d misses, want both cold and warm reads", st.Hits, st.Misses)
	}
}
