package fragserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/turtle"
)

// coldNodeBody is /node?iri=v's body on srv's current snapshot computed
// without the cache: the AST walker over every definition of the schema,
// not only the class representatives the handler looks up.
func coldNodeBody(t testing.TB, srv *Server, v rdf.Term) string {
	t.Helper()
	snap := srv.Store().Current()
	r := snap.Reader()
	id := r.LookupTerm(v)
	if id == rdfgraph.NoID {
		return ""
	}
	var defs []shape.Shape
	for _, d := range srv.h.Definitions() {
		defs = append(defs, d.Shape)
	}
	ids, err := core.NewExtractor(r, srv.h).NeighborhoodsCached(context.Background(), nil, snap.Epoch(), id, defs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rdfgraph.SortIDTriples(r.Dict(), ids)
	var buf bytes.Buffer
	nw := turtle.NewNTriplesWriter(&buf)
	for _, tr := range slices.Compact(ids) {
		nw.WriteTriple(r.Dict().Triple(tr)) //nolint:errcheck — a buffer
	}
	nw.Flush() //nolint:errcheck — a buffer
	nw.Close() //nolint:errcheck — a buffer
	return buf.String()
}

// TestCacheHistoryExact runs a seeded history of updates against a server
// whose neighborhood cache stays warm across them, and checks every /node
// body at every epoch against cold AST extraction of that epoch: an entry
// an update should have removed but kept would be served stale here. The
// graph is a typed Tyrol graph under the served benchmark schema (183
// definitions); the updates add reviews, strip a review's type, delete
// every triple of a review or a person, and toggle a lodging's name. Each
// epoch reads a fixed population plus the delta's endpoints, so both kept
// and removed entries are read back; some reads after updates must hit.
func TestCacheHistoryExact(t *testing.T) {
	steps := 100
	if testing.Short() {
		steps = 30
	}
	const individuals = 120
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 7})
	srv, err := New(Config{Graph: g, Schema: servedBenchmarkSchema(t), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	typ := rdf.NewIRI(rdf.RDFType)
	node := func(kind string, k int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("%s%s/%d", datagen.NS, kind, k))
	}
	var population []rdf.Term
	for _, kind := range []string{"lodging", "review", "person", "event", "place", "org"} {
		for k := 0; k < 4; k++ {
			population = append(population, node(kind, k))
		}
	}

	read := func(step int, v rdf.Term) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/node?iri="+url.QueryEscape(v.String()), nil))
		if rec.Code != 200 {
			t.Fatalf("step %d: /node?iri=%s: %d", step, v, rec.Code)
		}
		if want := coldNodeBody(t, srv, v); rec.Body.String() != want {
			t.Fatalf("step %d (epoch %s): /node?iri=%s serves a neighborhood cold extraction does not give:\n%s\nwant:\n%s",
				step, rec.Header().Get("X-Epoch"), v, rec.Body, want)
		}
	}
	instances := func(c rdf.Term) []rdf.Term {
		r := srv.graphNow()
		var out []rdf.Term
		if p, o := r.LookupTerm(typ), r.LookupTerm(c); p != rdfgraph.NoID && o != rdfgraph.NoID {
			r.Subjects(p, o, func(s rdfgraph.ID) { out = append(out, r.Term(s)) })
		}
		slices.SortFunc(out, rdf.Compare)
		return out
	}
	touching := func(v rdf.Term) []rdf.Triple {
		r := srv.graphNow()
		id := r.LookupTerm(v)
		var out []rdf.Triple
		r.PredicatesFrom(id, func(p, o rdfgraph.ID) { out = append(out, rdf.T(v, r.Term(p), r.Term(o))) })
		r.PredicatesTo(id, func(s, p rdfgraph.ID) { out = append(out, rdf.T(r.Term(s), r.Term(p), v)) })
		return out
	}

	for _, v := range population { // warm the cache at epoch 1
		read(0, v)
	}
	var hits uint64
	for step := 1; step <= steps; step++ {
		reviews, persons := instances(datagen.ClassReview), instances(datagen.ClassPerson)
		lodging := node("lodging", rng.Intn(individuals*20/100))
		kind := rng.Intn(5)
		if (kind == 1 || kind == 2) && len(reviews) == 0 || kind == 3 && len(persons) < 2 {
			kind = 0
		}
		var delta []rdf.Triple
		del := kind != 0
		switch kind {
		case 0: // a fresh review, typed and wired into a lodging
			r := node("review", 5000+step)
			delta = []rdf.Triple{
				rdf.T(r, typ, datagen.ClassReview),
				rdf.T(r, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(int64(1+rng.Intn(5)))),
				rdf.T(r, rdf.NewIRI(datagen.PropAuthor), persons[rng.Intn(len(persons))]),
				rdf.T(lodging, rdf.NewIRI(datagen.PropReview), r),
			}
		case 1: // a review loses its type
			delta = []rdf.Triple{rdf.T(reviews[rng.Intn(len(reviews))], typ, datagen.ClassReview)}
		case 2: // a review leaves N(G)
			delta = touching(reviews[rng.Intn(len(reviews))])
		case 3: // a person leaves N(G): reviews lose their author
			delta = touching(persons[rng.Intn(len(persons))])
		case 4: // a lodging's name comes or goes
			name := rdf.NewIRI(datagen.PropName)
			for _, tr := range touching(lodging) {
				if tr.S == lodging && tr.P == name {
					delta = append(delta, tr)
				}
			}
			if delta == nil {
				del = false
				delta = []rdf.Triple{rdf.T(lodging, name, rdf.NewLangString("renamed", "en"))}
			}
		}
		target := "/update"
		if del {
			target += "?op=delete"
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(turtle.FormatNTriples(delta))))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"changed":true`) {
			t.Fatalf("step %d: POST %s: %d %s", step, target, rec.Code, rec.Body)
		}
		before := srv.cache.Stats().Hits
		for _, v := range population {
			read(step, v)
		}
		hits += srv.cache.Stats().Hits - before
		for _, tr := range delta {
			read(step, tr.S)
			if tr.O.IsIRI() {
				read(step, tr.O)
			}
		}
	}
	st := srv.cache.Stats()
	t.Logf("%d steps: %d population hits after updates; %d entries kept, %d invalidated", steps, hits, st.Kept, st.Invalidated)
	if hits == 0 {
		t.Error("no read after an update hit the cache: updates keep nothing")
	}
	if st.Invalidated == 0 {
		t.Error("no update invalidated an entry: the history never touched a cached neighborhood")
	}
}
