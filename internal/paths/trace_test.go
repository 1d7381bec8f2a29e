package paths_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/turtle"
)

type pair = [2]rdfgraph.ID

// traceOracle computes graph(paths(E, G, a, b)) from its definition, by
// structural recursion over E on top of the naive relation semantics: the
// test oracle for tracing, as naiveRelation is for evaluation.
type traceOracle struct {
	g     *rdfgraph.Graph
	nodes []rdfgraph.ID
	rels  map[paths.Expr]map[pair]bool
}

func newTraceOracle(g *rdfgraph.Graph) *traceOracle {
	return &traceOracle{g: g, nodes: g.NodeIDs(), rels: make(map[paths.Expr]map[pair]bool)}
}

func (o *traceOracle) rel(e paths.Expr) map[pair]bool {
	r, ok := o.rels[e]
	if !ok {
		r = paths.NaiveRelation(e, o.g, o.nodes)
		o.rels[e] = r
	}
	return r
}

// trace adds graph(paths(e, G, a, b)) to out.
func (o *traceOracle) trace(e paths.Expr, a, b rdfgraph.ID, out map[rdfgraph.IDTriple]bool) {
	if !o.rel(e)[pair{a, b}] {
		return // no path, no triples
	}
	switch x := e.(type) {
	case paths.Prop:
		out[rdfgraph.IDTriple{S: a, P: o.g.LookupTerm(rdf.NewIRI(x.IRI)), O: b}] = true
	case paths.Inverse:
		o.trace(x.X, b, a, out)
	case paths.Seq:
		// Every midpoint c splits a path into an E1-path and an E2-path.
		for _, c := range o.nodes {
			if o.rel(x.Left)[pair{a, c}] && o.rel(x.Right)[pair{c, b}] {
				o.trace(x.Left, a, c, out)
				o.trace(x.Right, c, b, out)
			}
		}
	case paths.Alt:
		o.trace(x.Left, a, b, out)
		o.trace(x.Right, a, b, out)
	case paths.ZeroOrOne:
		o.trace(x.X, a, b, out) // the zero-length path has no triples
	case paths.Star:
		// An E-step c → d lies on some E*-path from a to b exactly when a
		// reaches c and d reaches b.
		star := o.rel(e)
		for step := range o.rel(x.X) {
			if star[pair{a, step[0]}] && star[pair{step[1], b}] {
				o.trace(x.X, step[0], step[1], out)
			}
		}
	}
}

// union is the oracle over a target set.
func (o *traceOracle) union(e paths.Expr, a rdfgraph.ID, targets []rdfgraph.ID) map[rdfgraph.IDTriple]bool {
	out := make(map[rdfgraph.IDTriple]bool)
	for _, b := range targets {
		o.trace(e, a, b, out)
	}
	return out
}

// randomSubset draws a non-empty subset of nodes, in random order.
func randomSubset(rng *rand.Rand, nodes []rdfgraph.ID) []rdfgraph.ID {
	out := slices.Clone(nodes)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:1+rng.Intn(len(out))]
}

// traceCase is one random (expression, graph) pair of the two generator
// families the repository has: the three-property graphs of paths_test.go
// and shapetest's, which mix literal objects in.
type traceCase struct {
	name string
	e    paths.Expr
	g    *rdfgraph.Graph
}

func traceCases(seed int64, n int) []traceCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []traceCase
	for i := 0; i < n; i++ {
		cases = append(cases,
			traceCase{fmt.Sprintf("paths/%d", i), paths.RandomExpr(rng, 3), paths.RandomGraph(rng, 5, 8)},
			traceCase{fmt.Sprintf("shapetest/%d", i), shapetest.RandomPath(rng, 3), shapetest.RandomGraph(rng, 10)})
	}
	return cases
}

// Property: tracing is exact. TestTraceProposition31 only checks that a
// trace suffices, which every superset within G does too; here
// TraceUnionIDs must equal the definitional oracle, triple for triple and
// each once, and TraceEdges must report that same triple set, each (triple,
// step) once.
func TestTraceEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range traceCases(7, 120) {
		oracle := newTraceOracle(c.g)
		ev := paths.NewEvaluator(c.e, c.g)
		nodes := c.g.NodeIDs()
		for _, a := range nodes {
			targets := randomSubset(rng, nodes)
			want := oracle.union(c.e, a, targets)
			fail := func(what string, got any) {
				t.Helper()
				t.Fatalf("%s: %s from %v to %v: %s = %v, oracle %v\ngraph:\n%s", c.name, c.e,
					c.g.Term(a), targets, what, got, want, turtle.FormatGraph(c.g))
			}

			got := ev.TraceUnionIDs(a, targets)
			if len(got) != len(want) { // with the loop below: equal sets, no duplicate
				fail("TraceUnionIDs", got)
			}
			for _, tr := range got {
				if !want[tr] {
					fail("TraceUnionIDs", got)
				}
			}

			type edge struct {
				t rdfgraph.IDTriple
				s paths.Step
			}
			edges := make(map[edge]bool)
			triples := make(map[rdfgraph.IDTriple]bool)
			ev.TraceEdges(a, targets, func(tr rdfgraph.IDTriple, s paths.Step) {
				if edges[edge{tr, s}] {
					fail("TraceEdges twice", tr)
				}
				edges[edge{tr, s}] = true
				triples[tr] = true
			})
			if !maps.Equal(triples, want) {
				fail("TraceEdges", triples)
			}
		}
	}
}

// Property: an Evaluator's answers do not depend on what it was asked
// before, and no answer is a view of its scratch. One evaluator is driven
// through a seeded random interleaving of its four entry points over random
// sources; every call must return what a fresh evaluator returns, and every
// slice returned earlier must be unchanged at the end. This is what lets
// the searches run on buffers the evaluator owns and keep only the last
// forward search.
func TestEvaluatorInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type step struct {
		t rdfgraph.IDTriple
		s paths.Step
	}
	edgesOf := func(ev *paths.Evaluator, a rdfgraph.ID, targets []rdfgraph.ID) []step {
		var out []step
		ev.TraceEdges(a, targets, func(tr rdfgraph.IDTriple, s paths.Step) { out = append(out, step{tr, s}) })
		slices.SortFunc(out, func(x, y step) int { return slices.Compare(stepKey(x.t, x.s), stepKey(y.t, y.s)) })
		return out
	}
	for _, c := range traceCases(23, 60) {
		ev := paths.NewEvaluator(c.e, c.g)
		nodes := c.g.NodeIDs()
		var heldIDs, wantIDs [][]rdfgraph.ID
		var heldTriples, wantTriples [][]rdfgraph.IDTriple
		for op := 0; op < 40; op++ {
			fresh := paths.NewEvaluator(c.e, c.g)
			a := nodes[rng.Intn(len(nodes))]
			targets := randomSubset(rng, nodes)
			switch rng.Intn(4) {
			case 0:
				got := ev.Eval(a)
				if !slices.Equal(got, fresh.Eval(a)) {
					t.Fatalf("%s: %s: op %d: Eval(%v) = %v, fresh evaluator %v", c.name, c.e, op, c.g.Term(a), got, fresh.Eval(a))
				}
				heldIDs, wantIDs = append(heldIDs, got), append(wantIDs, slices.Clone(got))
			case 1:
				b := targets[0]
				if got, want := ev.Holds(a, b), fresh.Holds(a, b); got != want {
					t.Fatalf("%s: %s: op %d: Holds(%v, %v) = %v, fresh evaluator %v", c.name, c.e, op, c.g.Term(a), c.g.Term(b), got, want)
				}
			case 2:
				got := ev.TraceUnionIDs(a, targets)
				if want := fresh.TraceUnionIDs(a, targets); !slices.Equal(got, want) {
					t.Fatalf("%s: %s: op %d: TraceUnionIDs(%v, %v) = %v, fresh evaluator %v", c.name, c.e, op, c.g.Term(a), targets, got, want)
				}
				heldTriples, wantTriples = append(heldTriples, got), append(wantTriples, slices.Clone(got))
			case 3:
				if got, want := edgesOf(ev, a, targets), edgesOf(fresh, a, targets); !slices.Equal(got, want) {
					t.Fatalf("%s: %s: op %d: TraceEdges(%v, %v) = %v, fresh evaluator %v", c.name, c.e, op, c.g.Term(a), targets, got, want)
				}
			}
		}
		for i := range heldIDs {
			if !slices.Equal(heldIDs[i], wantIDs[i]) {
				t.Fatalf("%s: %s: an Eval result changed after it was returned: %v, was %v", c.name, c.e, heldIDs[i], wantIDs[i])
			}
		}
		for i := range heldTriples {
			if !slices.Equal(heldTriples[i], wantTriples[i]) {
				t.Fatalf("%s: %s: a TraceUnionIDs result changed after it was returned: %v, was %v", c.name, c.e, heldTriples[i], wantTriples[i])
			}
		}
	}
}

// stepKey flattens one TraceEdges report for sorting.
func stepKey(t rdfgraph.IDTriple, s paths.Step) []int {
	fwd := 0
	if s.Fwd {
		fwd = 1
	}
	return []int{int(t.S), int(t.P), int(t.O), s.From, s.To, fwd}
}
