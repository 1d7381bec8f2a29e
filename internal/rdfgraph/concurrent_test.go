package rdfgraph_test

import (
	"fmt"
	"sync"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// buildGraph assembles a small dense graph: a bipartite core plus a chain,
// enough structure that both node indexes and every predicate's posting
// lists are populated.
func buildGraph(tb testing.TB) *rdfgraph.Graph {
	tb.Helper()
	g := rdfgraph.New()
	iri := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/n%d", i)) }
	knows := rdf.NewIRI("http://example.org/knows")
	next := rdf.NewIRI("http://example.org/next")
	name := rdf.NewIRI("http://example.org/name")
	for i := 0; i < 20; i++ {
		for j := 20; j < 40; j++ {
			g.Add(rdf.Triple{S: iri(i), P: knows, O: iri(j)})
		}
		g.Add(rdf.Triple{S: iri(i), P: next, O: iri(i + 1)})
		g.Add(rdf.Triple{S: iri(i), P: name, O: rdf.NewString(fmt.Sprintf("node %d", i))})
	}
	return g
}

// TestFrozenGraphConcurrentReads hammers one frozen graph from many
// goroutines across every read accessor at once. The package promises that
// a frozen Graph is safe for unsynchronised concurrent reads; running this
// under `go test -race` (see the Makefile `race` target) checks it.
func TestFrozenGraphConcurrentReads(t *testing.T) {
	g := buildGraph(t)
	g.Freeze()
	if !g.Frozen() || !g.Dict().Frozen() {
		t.Fatal("Freeze must freeze both the graph and its dictionary")
	}

	wantLen := g.Len()
	wantNodes := len(g.NodeIDs())
	knows := g.LookupTerm(rdf.NewIRI("http://example.org/knows"))
	if knows == rdfgraph.NoID {
		t.Fatal("test graph missing its own predicate")
	}

	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (w + r) % 8 {
				case 0:
					n := 0
					g.EachTriple(func(s, p, o rdfgraph.ID) { n++ })
					if n != wantLen {
						fail("EachTriple saw %d triples, want %d", n, wantLen)
						return
					}
				case 1:
					if len(g.NodeIDs()) != wantNodes {
						fail("NodeIDs length changed under concurrent reads")
						return
					}
				case 2:
					n := 0
					g.Objects(rdfgraph.ID(0), knows, func(o rdfgraph.ID) { n++ })
					g.Subjects(knows, rdfgraph.ID(0), func(s rdfgraph.ID) { n++ })
				case 3:
					g.PredicatesFrom(rdfgraph.ID(w%5), func(p, o rdfgraph.ID) {})
					g.PredicatesTo(rdfgraph.ID(w%5), func(s, p rdfgraph.ID) {})
				case 4:
					if len(g.Triples()) != wantLen {
						fail("Triples length changed under concurrent reads")
						return
					}
				case 5:
					id := g.LookupTerm(rdf.NewIRI(fmt.Sprintf("http://example.org/n%d", r%40)))
					if id == rdfgraph.NoID {
						fail("LookupTerm lost a known node")
						return
					}
					_ = g.Term(id)
				case 6:
					_ = g.EdgesByPredicate(knows)
					_ = g.Endpoints(knows, r%2 == 0)
				case 7:
					g.HasIDs(rdfgraph.ID(0), knows, rdfgraph.ID(1))
					g.IsNode(rdfgraph.ID(r % 50))
				}
			}
		}(w)
	}
	wg.Wait()

	if g.Len() != wantLen {
		t.Errorf("graph size drifted: %d -> %d", wantLen, g.Len())
	}
}

// TestFrozenGraphRejectsWrites pins the enforcement side of the contract:
// once frozen, every mutation panics instead of racing silently.
func TestFrozenGraphRejectsWrites(t *testing.T) {
	g := buildGraph(t)
	g.Freeze()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen graph did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Add", func() {
		g.Add(rdf.Triple{
			S: rdf.NewIRI("http://example.org/new-s"),
			P: rdf.NewIRI("http://example.org/new-p"),
			O: rdf.NewIRI("http://example.org/new-o"),
		})
	})
	mustPanic("AddIDs", func() { g.AddIDs(0, 1, 2) })
	mustPanic("Intern of an unseen term", func() {
		g.TermID(rdf.NewIRI("http://example.org/never-seen"))
	})

	// Interning a term that is already present is a pure lookup and stays
	// legal after freezing — the validator relies on this for constants.
	id := g.TermID(rdf.NewIRI("http://example.org/knows"))
	if id == rdfgraph.NoID {
		t.Error("frozen Intern of a present term must return its ID")
	}
}
