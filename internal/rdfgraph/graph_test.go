package rdfgraph

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
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
	g := FromTriples([]rdf.Triple{
		rdf.T(iri("c"), iri("p"), iri("d")),
		rdf.T(iri("a"), iri("p"), iri("b")),
	})
	d := g.Dict()
	tr := IDTriple{S: d.Lookup(iri("a")), P: d.Lookup(iri("p")), O: d.Lookup(iri("b"))}
	s := NewIDTripleSet()
	if !s.Add(tr) || s.Add(tr) {
		t.Fatal("Add dedup broken")
	}
	if s.Len() != 1 || !slices.Equal(s.IDTriples(), []IDTriple{tr}) {
		t.Fatal("membership broken")
	}
	g.EachTriple(func(sub, p, o ID) { s.Add(IDTriple{S: sub, P: p, O: o}) })
	if s.Len() != 2 {
		t.Fatalf("adding g: len = %d, want 2", s.Len())
	}
	frozen := FromTriples(s.Triples(d))
	if frozen.Len() != 2 || !frozen.Has(d.Triple(tr)) {
		t.Fatal("rebuilt graph lost triples")
	}
	ts := s.Triples(d)
	if len(ts) != 2 || rdf.CompareTriples(ts[0], ts[1]) >= 0 {
		t.Fatal("Triples() must be sorted")
	}
	s.Reset()
	if s.Len() != 0 || !s.Add(tr) {
		t.Fatal("Reset must empty the set")
	}
}

// TestIDTripleSetMatchesMap checks the open-addressing table against a Go
// map on seeded triples with about five adds per distinct triple, half of
// them differing from an earlier triple in one ID only; a duplicate must
// not grow the table. One set is Reset
// and refilled through sizes that cross every growth step up to
// MaxPooled+1, as the pool reuses it, and AddSet of two sets is checked
// against the union of their oracles.
func TestIDTripleSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(pool []IDTriple) IDTriple {
		tr := IDTriple{S: ID(rng.Int31n(1 << 30)), P: ID(rng.Int31n(1 << 30)), O: ID(rng.Int31n(1 << 30))}
		if len(pool) > 0 && rng.Intn(2) == 0 {
			near := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				near.S = tr.S
			case 1:
				near.P = tr.P
			default:
				near.O = tr.O
			}
			tr = near
		}
		return tr
	}
	// fill adds n distinct triples five times over, shuffled, in five
	// batches, and checks s against oracle after each.
	fill := func(s *IDTripleSet, oracle map[IDTriple]struct{}, n int) {
		t.Helper()
		var pool []IDTriple
		for len(pool) < n {
			pool = append(pool, draw(pool))
		}
		adds := make([]IDTriple, 0, 5*n)
		for range 5 {
			adds = append(adds, pool...)
		}
		rng.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
		slots := len(s.slots)
		for batch := range 5 {
			for _, tr := range adds[batch*n : (batch+1)*n] {
				_, seen := oracle[tr]
				oracle[tr] = struct{}{}
				got := s.Add(tr)
				if got == seen {
					t.Fatalf("n=%d: Add(%v) = %v, want %v", n, tr, got, !seen)
				}
				if got {
					slots = len(s.slots)
				} else if len(s.slots) != slots {
					t.Fatalf("n=%d: a duplicate grew the table from %d to %d slots", n, slots, len(s.slots))
				}
			}
			checkIDTripleSet(t, s, oracle)
		}
	}
	s := NewIDTripleSet()
	var sizes []int
	for k := 0; 1<<k <= MaxPooled; k++ {
		sizes = append(sizes, max(1<<k-1, 1), 1<<k, 1<<k+1)
	}
	for _, n := range sizes {
		s.Reset()
		if s.Len() != 0 {
			t.Fatalf("Reset left %d triples", s.Len())
		}
		fill(s, map[IDTriple]struct{}{}, n)
	}
	for _, n := range []int{1, 100, 3000} {
		a, b := NewIDTripleSet(), NewIDTripleSet()
		oa, ob := map[IDTriple]struct{}{}, map[IDTriple]struct{}{}
		fill(a, oa, n)
		fill(b, ob, 2*n)
		shared := a.IDTriples()[:(n+1)/2]
		b.AddAll(shared)
		for _, tr := range shared {
			ob[tr] = struct{}{}
		}
		checkIDTripleSet(t, b, ob)
		a.AddSet(b)
		maps.Copy(oa, ob)
		checkIDTripleSet(t, a, oa)
	}
}

// checkIDTripleSet fails unless s holds exactly the triples of oracle.
func checkIDTripleSet(t *testing.T, s *IDTripleSet, oracle map[IDTriple]struct{}) {
	t.Helper()
	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", s.Len(), len(oracle))
	}
	order := func(a, b IDTriple) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
	}
	got := s.AppendTo(nil)
	slices.SortFunc(got, order)
	want := make([]IDTriple, 0, len(oracle))
	for tr := range oracle {
		want = append(want, tr)
	}
	slices.SortFunc(want, order)
	if !slices.Equal(got, want) {
		t.Fatalf("AppendTo lists %d triples, not the oracle's %d", len(got), len(want))
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
			t.Fatalf("CloneCOW of unfrozen graph must panic")
		}
	}()
	g.CloneCOW()
}

// TestNodeIDsOncePerFrozenGraph: a frozen graph lists N(G) once and hands
// every caller the same slice, which an append cannot write into; a mutable
// graph lists it afresh; and each copy-on-write epoch lists its own N(G),
// with the nodes an update added or removed.
func TestNodeIDsOncePerFrozenGraph(t *testing.T) {
	g := FromTriples([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c")})
	if first, second := g.NodeIDs(), g.NodeIDs(); &first[0] == &second[0] {
		t.Fatal("a mutable graph handed out one node list twice")
	}
	g.Freeze()
	first, second := g.NodeIDs(), g.NodeIDs()
	if &first[0] != &second[0] {
		t.Fatal("a frozen graph listed N(G) again on the second call")
	}
	if cap(first) != len(first) {
		t.Fatalf("shared node list has capacity %d beyond its %d nodes", cap(first), len(first))
	}

	nodes := func(g *Graph, names ...string) []ID {
		var ids []ID
		for _, n := range names {
			ids = append(ids, g.LookupTerm(iri(n)))
		}
		slices.Sort(ids)
		return ids
	}
	epoch := g
	for i, step := range []struct {
		add, del []rdf.Triple
		want     []string
	}{
		{add: []rdf.Triple{tr("c", "p", "d")}, want: []string{"a", "b", "c", "d"}},
		{del: []rdf.Triple{tr("a", "p", "b")}, want: []string{"b", "c", "d"}},
		{add: []rdf.Triple{tr("e", "q", "e")}, del: []rdf.Triple{tr("c", "p", "d")}, want: []string{"b", "c", "e"}},
	} {
		prev, prevNodes := epoch, slices.Clone(epoch.NodeIDs())
		epoch = prev.CloneCOW()
		for _, triple := range step.del {
			epoch.Remove(triple)
		}
		for _, triple := range step.add {
			epoch.Add(triple)
		}
		epoch.Freeze()
		if got, want := epoch.NodeIDs(), nodes(epoch, step.want...); !slices.Equal(got, want) {
			t.Errorf("epoch %d: N(G) = %v, want %v", i+2, got, want)
		}
		if !slices.Equal(prev.NodeIDs(), prevNodes) {
			t.Errorf("epoch %d changed its parent's N(G)", i+2)
		}
	}
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
