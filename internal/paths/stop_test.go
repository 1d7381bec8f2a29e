package paths

import (
	"fmt"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// TestStopPolledPerEdge: a p* search over a 300-node p-clique discovers a
// few hundred product states but crosses about 90 000 product edges, so a
// stop polled per state alone would never be asked before the search ends.
// Polled per edge too, it is asked by the stopEvery-th tick and the search
// unwinds with ErrStopped, leaving nothing behind: the same evaluator, its
// stop removed, then answers in full.
func TestStopPolledPerEdge(t *testing.T) {
	const n = 300
	g := rdfgraph.New()
	p := iri("p")
	node := func(i int) rdf.Term { return iri(fmt.Sprintf("n%03d", i)) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Add(rdf.T(node(i), p, node(j)))
			}
		}
	}
	g.Freeze()
	ev := NewEvaluator(Star{X: P(p.Value)}, g)
	polls := 0
	ev.SetStop(func() bool { polls++; return true })
	src := g.LookupTerm(node(0))
	func() {
		defer func() {
			if r := recover(); r != ErrStopped {
				t.Fatalf("search over %d edges: recovered %v, want ErrStopped", n*(n-1), r)
			}
		}()
		ev.Eval(src)
	}()
	if polls != 1 {
		t.Fatalf("stop polled %d times, want 1 (at the %d-th tick)", polls, stopEvery)
	}
	ev.SetStop(nil)
	if got := len(ev.Eval(src)); got != n {
		t.Fatalf("after the stop, Eval reaches %d nodes, want %d", got, n)
	}
}

// TestStopPolledPerState: one p* search from 5 000 sources along a
// predicate no triple carries expands 5 000 product states and crosses no
// edge, so a stop polled per edge alone would never be asked. Polled per
// state too, it stops the search.
func TestStopPolledPerState(t *testing.T) {
	const n = 5000
	g := rdfgraph.New()
	q := iri("q")
	node := func(i int) rdf.Term { return iri(fmt.Sprintf("n%04d", i)) }
	for i := 0; i < n; i++ {
		g.Add(rdf.T(node(i), q, node(i)))
	}
	g.Add(rdf.T(node(0), q, iri("p"))) // p is interned, as a node only
	g.Freeze()
	sources := make([]rdfgraph.ID, n)
	for i := range sources {
		sources[i] = g.LookupTerm(node(i))
	}
	ev := NewEvaluator(Star{X: P(iri("p").Value)}, g)
	polls := 0
	ev.SetStop(func() bool { polls++; return true })
	func() {
		defer func() {
			if r := recover(); r != ErrStopped {
				t.Fatalf("search from %d sources: recovered %v, want ErrStopped", n, r)
			}
		}()
		ev.EvalSet(sources, nil)
	}()
	if polls != 1 {
		t.Fatalf("stop polled %d times, want 1 (at the %d-th tick)", polls, stopEvery)
	}
	ev.SetStop(nil)
	if got := len(ev.EvalSet(sources, nil)); got != n {
		t.Fatalf("after the stop, EvalSet reaches %d nodes, want %d", got, n)
	}
}
