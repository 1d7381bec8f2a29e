package rdfgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"shaclfrag/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern(iri("a"))
	b := d.Intern(iri("b"))
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if d.Intern(iri("a")) != a {
		t.Fatal("re-interning changed the ID")
	}
	if d.Lookup(iri("a")) != a {
		t.Fatal("Lookup disagrees with Intern")
	}
	if d.Lookup(iri("zzz")) != NoID {
		t.Fatal("Lookup of unseen term should be NoID")
	}
	if d.Term(a) != iri("a") {
		t.Fatal("Term round-trip failed")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestGraphAddHas(t *testing.T) {
	g := New()
	tr := rdf.T(iri("a"), iri("p"), iri("b"))
	if !g.Add(tr) {
		t.Fatal("first Add should report new")
	}
	if g.Add(tr) {
		t.Fatal("second Add should report duplicate")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if !g.Has(tr) {
		t.Fatal("Has must find the triple")
	}
	if g.Has(rdf.T(iri("a"), iri("p"), iri("c"))) {
		t.Fatal("Has found a missing triple")
	}
	if g.Has(rdf.T(iri("zz"), iri("p"), iri("b"))) {
		t.Fatal("Has with un-interned term should be false")
	}
}

func TestGraphIndexes(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		rdf.T(iri("a"), iri("p"), iri("b")),
		rdf.T(iri("a"), iri("p"), iri("c")),
		rdf.T(iri("a"), iri("q"), iri("b")),
		rdf.T(iri("d"), iri("p"), iri("b")),
	})
	a, p, b := g.LookupTerm(iri("a")), g.LookupTerm(iri("p")), g.LookupTerm(iri("b"))

	var objs []ID
	g.Objects(a, p, func(o ID) { objs = append(objs, o) })
	if len(objs) != 2 {
		t.Fatalf("Objects(a,p) = %v, want 2 objects", objs)
	}

	var subs []ID
	g.Subjects(p, b, func(s ID) { subs = append(subs, s) })
	if len(subs) != 2 {
		t.Fatalf("Subjects(p,b) = %v, want 2 subjects", subs)
	}

	if n := len(g.EdgesByPredicate(p)); n != 3 {
		t.Fatalf("EdgesByPredicate(p) = %d, want 3", n)
	}

	count := 0
	g.PredicatesFrom(a, func(_, _ ID) { count++ })
	if count != 3 {
		t.Fatalf("PredicatesFrom(a) visited %d, want 3", count)
	}
	count = 0
	g.PredicatesTo(b, func(_, _ ID) { count++ })
	if count != 3 {
		t.Fatalf("PredicatesTo(b) visited %d, want 3", count)
	}
	preds := 0
	g.Predicates(func(ID) { preds++ })
	if preds != 2 {
		t.Fatalf("Predicates = %d, want 2", preds)
	}
}

func TestGraphNodes(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		rdf.T(iri("a"), iri("p"), iri("b")),
		rdf.T(iri("b"), iri("p"), rdf.NewString("lit")),
	})
	ids := g.NodeIDs()
	if len(ids) != 3 {
		t.Fatalf("N(G) = %d nodes, want 3 (a, b, lit)", len(ids))
	}
	// The predicate p is not a node (it occurs only in predicate position).
	p := g.LookupTerm(iri("p"))
	if g.IsNode(p) {
		t.Fatal("predicate-only term must not be a node")
	}
	if !g.IsNode(g.LookupTerm(rdf.NewString("lit"))) {
		t.Fatal("literal object is a node")
	}
}

func TestTriplesCanonicalOrder(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		rdf.T(iri("b"), iri("p"), iri("x")),
		rdf.T(iri("a"), iri("q"), iri("x")),
		rdf.T(iri("a"), iri("p"), iri("x")),
	})
	ts := g.Triples()
	for i := 1; i < len(ts); i++ {
		if rdf.CompareTriples(ts[i-1], ts[i]) >= 0 {
			t.Fatalf("Triples() not sorted: %v then %v", ts[i-1], ts[i])
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		rdf.T(iri("a"), iri("p"), iri("b")),
		rdf.T(iri("b"), iri("q"), rdf.NewInteger(4)),
	})
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone must be equal")
	}
	c.Add(rdf.T(iri("z"), iri("p"), iri("z")))
	if g.Equal(c) {
		t.Fatal("adding to clone must break equality")
	}
	if g.Has(rdf.T(iri("z"), iri("p"), iri("z"))) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.ContainsGraph(g) {
		t.Fatal("superset must contain subset")
	}
	if g.ContainsGraph(c) {
		t.Fatal("subset must not contain superset")
	}
}

func TestTripleSet(t *testing.T) {
	s := NewTripleSet()
	tr := rdf.T(iri("a"), iri("p"), iri("b"))
	if !s.Add(tr) || s.Add(tr) {
		t.Fatal("Add dedup broken")
	}
	if !s.Has(tr) || s.Len() != 1 {
		t.Fatal("membership broken")
	}
	g := FromTriples([]rdf.Triple{
		rdf.T(iri("c"), iri("p"), iri("d")),
		tr,
	})
	s.AddAll(g)
	if s.Len() != 2 {
		t.Fatalf("AddAll: len = %d, want 2", s.Len())
	}
	frozen := s.Graph()
	if frozen.Len() != 2 || !frozen.Has(tr) {
		t.Fatal("Graph() lost triples")
	}
	ts := s.Triples()
	if len(ts) != 2 || rdf.CompareTriples(ts[0], ts[1]) >= 0 {
		t.Fatal("Triples() must be sorted")
	}
}

// Property: a graph built from any list of triples contains exactly the
// distinct triples of that list, and Triples() round-trips.
func TestGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d"}
		var ts []rdf.Triple
		for i := 0; i < int(n%40); i++ {
			ts = append(ts, rdf.T(
				iri(names[rng.Intn(len(names))]),
				iri(names[rng.Intn(len(names))]),
				iri(names[rng.Intn(len(names))])))
		}
		g := FromTriples(ts)
		uniq := make(map[rdf.Triple]struct{})
		for _, tr := range ts {
			uniq[tr] = struct{}{}
		}
		if g.Len() != len(uniq) {
			return false
		}
		for _, tr := range g.Triples() {
			if _, ok := uniq[tr]; !ok {
				return false
			}
		}
		for tr := range uniq {
			if !g.Has(tr) {
				return false
			}
		}
		return g.Equal(FromTriples(g.Triples()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func tr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

func TestCloneCOWRequiresFrozen(t *testing.T) {
	g := FromTriples([]rdf.Triple{tr("a", "p", "b")})
	defer func() {
		if recover() == nil {
			t.Fatalf("CloneCOWWith of unfrozen graph must panic")
		}
	}()
	g.CloneCOWWith(g.Dict())
}

func TestRemoveOnMutableGraph(t *testing.T) {
	g := FromTriples([]rdf.Triple{tr("a", "p", "b"), tr("a", "p", "c")})
	if !g.Remove(tr("a", "p", "b")) {
		t.Fatalf("Remove of present triple = false")
	}
	if g.Remove(tr("a", "p", "b")) {
		t.Fatalf("second Remove of same triple = true")
	}
	if g.Remove(tr("zzz", "p", "b")) {
		t.Fatalf("Remove with unknown term = true")
	}
	if g.Len() != 1 || !g.Has(tr("a", "p", "c")) {
		t.Fatalf("graph after removal: len=%d", g.Len())
	}
	// Removal must never intern: the dictionary size is unchanged by the
	// unknown-term removal above.
	before := g.Dict().Len()
	g.Remove(rdf.Triple{S: iri("unseen1"), P: iri("unseen2"), O: iri("unseen3")})
	if g.Dict().Len() != before {
		t.Fatalf("Remove interned unknown terms")
	}
}
