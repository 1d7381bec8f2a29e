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

// newTraceOracle returns the oracle over N(G) and the given sources outside
// it: a focus node may be any term, and E* relates even an isolated one to
// itself.
func newTraceOracle(g *rdfgraph.Graph, isolated ...rdfgraph.ID) *traceOracle {
	return &traceOracle{g: g, nodes: append(g.NodeIDs(), isolated...), rels: make(map[paths.Expr]map[pair]bool)}
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
	// isolated lists sources to query besides N(G): interned terms that
	// occur in no triple.
	isolated []rdfgraph.ID
}

// wideIDCases pin the packing of a product state into a table key where the
// random families, whose dictionaries hold a dozen terms, cannot. Every node
// has a twin 65 536 IDs up and each edge picks either end from either twin, so
// a search meets pairs of states that a key with under 32 bits for the node
// would merge; and the term interned last, which occurs in no triple, is a
// source at the dictionary's very edge.
func wideIDCases() []traceCase {
	rng := rand.New(rand.NewSource(41))
	var cases []traceCase
	for i := 0; i < 6; i++ {
		small := paths.RandomGraph(rng, 4, 10)
		g := rdfgraph.New()
		prime := func(t rdf.Term) rdf.Term { return rdf.NewIRI(t.Value + "'") }
		terms := small.Dict().Len()
		for id := 0; id < terms; id++ {
			g.TermID(small.Term(rdfgraph.ID(id)))
		}
		for pad := terms; pad < 1<<16; pad++ {
			g.TermID(rdf.NewIRI(fmt.Sprintf("http://pad.example/%d", pad)))
		}
		for id := 0; id < terms; id++ { // the twin of id is 1<<16 + id
			g.TermID(prime(small.Term(rdfgraph.ID(id))))
		}
		either := func(t rdf.Term) rdf.Term {
			if rng.Intn(2) == 0 {
				return t
			}
			return prime(t)
		}
		for _, t := range small.Triples() {
			g.Add(rdf.T(either(t.S), t.P, either(t.O)))
		}
		last := g.TermID(rdf.NewIRI("http://pad.example/last"))
		cases = append(cases, traceCase{fmt.Sprintf("wide/%d", i), paths.RandomExpr(rng, 3), g, []rdfgraph.ID{last}})
	}
	return cases
}

func traceCases(seed int64, n int) []traceCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []traceCase
	for i := 0; i < n; i++ {
		cases = append(cases,
			traceCase{name: fmt.Sprintf("paths/%d", i), e: paths.RandomExpr(rng, 3), g: paths.RandomGraph(rng, 5, 8)},
			traceCase{name: fmt.Sprintf("shapetest/%d", i), e: shapetest.RandomPath(rng, 3), g: shapetest.RandomGraph(rng, 10)})
	}
	return cases
}

// tracedEdge is one TraceEdges report.
type tracedEdge struct {
	t rdfgraph.IDTriple
	s paths.Step
}

// checkTrace requires of one query that tracing is exact: TraceUnionIDs
// equals the definitional oracle, triple for triple and each once,
// TraceEdges reports that same triple set, each (triple, step) once, and
// Eval(a) is a's row of the naive relation, each trace asked again — after
// TraceEdges has sorted its hits, and to fewer targets — as exact. And of
// the source set, asked before and after the single source on the same
// evaluator — so that a kept set search taken for a's, or a's for the
// set's, shows: TraceSetInto, twice, adds the union over the sources of the
// oracle and marks exactly the sources with a target in their row, and
// EvalSet is the union of the rows.
func checkTrace(t testing.TB, c traceCase, oracle *traceOracle, ev *paths.Evaluator, a rdfgraph.ID, sources, targets []rdfgraph.ID) {
	t.Helper()
	checkTraceSet(t, c, oracle, ev, sources, targets)
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

	edges := make(map[tracedEdge]bool)
	triples := make(map[rdfgraph.IDTriple]bool)
	ev.TraceEdges(a, targets, func(tr rdfgraph.IDTriple, s paths.Step) {
		if edges[tracedEdge{tr, s}] {
			fail("TraceEdges twice", tr)
		}
		edges[tracedEdge{tr, s}] = true
		triples[tr] = true
	})
	if !maps.Equal(triples, want) {
		fail("TraceEdges", triples)
	}
	// The trace kept under TraceEdges' in-place sort, then one to fewer
	// targets from the same source, which must not be taken for it.
	if got := ev.TraceUnionIDs(a, targets); len(got) != len(want) {
		fail("TraceUnionIDs after TraceEdges", got)
	}
	fewer := targets[:len(targets)/2]
	if got, wantFewer := ev.TraceUnionIDs(a, fewer), oracle.union(c.e, a, fewer); len(got) != len(wantFewer) ||
		slices.ContainsFunc(got, func(tr rdfgraph.IDTriple) bool { return !wantFewer[tr] }) {
		t.Fatalf("%s: %s from %v to %v: TraceUnionIDs = %v, oracle %v\ngraph:\n%s", c.name, c.e, c.g.Term(a), fewer, got, wantFewer, turtle.FormatGraph(c.g))
	}

	var row []rdfgraph.ID
	for _, b := range oracle.nodes {
		if oracle.rel(c.e)[pair{a, b}] {
			row = append(row, b)
		}
	}
	slices.Sort(row)
	if res := ev.Eval(a); !slices.Equal(res, row) {
		t.Fatalf("%s: %s: Eval(%v) = %v, naive relation %v\ngraph:\n%s", c.name, c.e, c.g.Term(a), res, row, turtle.FormatGraph(c.g))
	}
	checkTraceSet(t, c, oracle, ev, sources, targets)
}

// checkTraceSet is the source-set half of checkTrace.
func checkTraceSet(t testing.TB, c traceCase, oracle *traceOracle, ev *paths.Evaluator, sources, targets []rdfgraph.ID) {
	t.Helper()
	want := make(map[rdfgraph.IDTriple]bool)
	row := make(map[rdfgraph.ID]bool)
	reaches := make([]bool, len(sources))
	for j, a := range sources {
		maps.Copy(want, oracle.union(c.e, a, targets))
		for _, b := range oracle.nodes {
			if oracle.rel(c.e)[pair{a, b}] {
				row[b] = true
				reaches[j] = reaches[j] || slices.Contains(targets, b)
			}
		}
	}
	for range 2 { // the second reads back the trace kept from the first
		out := rdfgraph.NewIDTripleSet()
		marks := ev.TraceSetInto(sources, targets, out)
		if !slices.Equal(marks, reaches) {
			t.Fatalf("%s: %s from %v to %v: marked sources %v, by the naive relation %v\ngraph:\n%s", c.name, c.e, sources, targets, marks, reaches, turtle.FormatGraph(c.g))
		}
		got := out.IDTriples()
		if len(got) != len(want) || slices.ContainsFunc(got, func(tr rdfgraph.IDTriple) bool { return !want[tr] }) {
			t.Fatalf("%s: %s from %v to %v: TraceSetInto = %v, union of the oracle %v\ngraph:\n%s", c.name, c.e, sources, targets, got, want, turtle.FormatGraph(c.g))
		}
	}
	union := ev.EvalSet(sources, nil)
	if len(union) != len(row) || slices.ContainsFunc(union, func(b rdfgraph.ID) bool { return !row[b] }) {
		t.Fatalf("%s: %s: EvalSet(%v) = %v, union of the naive rows %v\ngraph:\n%s", c.name, c.e, sources, union, row, turtle.FormatGraph(c.g))
	}
}

// Property: tracing is exact. TestTraceProposition31 only checks that a
// trace suffices, which every superset within G does too; here every source
// of every case passes checkTrace against a random target set, beside a
// random source set.
func TestTraceEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range append(traceCases(7, 120), wideIDCases()...) {
		oracle := newTraceOracle(c.g, c.isolated...)
		ev := paths.NewEvaluator(c.e, c.g)
		for _, a := range oracle.nodes {
			checkTrace(t, c, oracle, ev, a, randomSubset(rng, oracle.nodes), randomSubset(rng, oracle.nodes))
		}
	}
}

// Property: TraceEdges reports in an order that is a function of the query,
// not of the run. A search discovers product states in the order the graph
// lists a node's edges, which a Reader does not promise (it differed from run
// to run while rows were maps), so two evaluators may hold the same states
// under different ids; /explain and shaclfrag explain record from this
// sequence.
func TestTraceEdgesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		// Dense, so that a node has several successors by one property and
		// the enumeration order of those is what differs between runs.
		c := traceCase{name: fmt.Sprint("dense/", i), e: paths.RandomExpr(rng, 3), g: paths.RandomGraph(rng, 4, 16)}
		nodes := c.g.NodeIDs()
		a, targets := nodes[rng.Intn(len(nodes))], randomSubset(rng, nodes)
		var runs [2][]tracedEdge
		for i := range runs {
			paths.NewEvaluator(c.e, c.g).TraceEdges(a, targets, func(tr rdfgraph.IDTriple, s paths.Step) {
				runs[i] = append(runs[i], tracedEdge{tr, s})
			})
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Fatalf("%s: %s from %v to %v: two evaluators report\n%v\n%v", c.name, c.e, c.g.Term(a), targets, runs[0], runs[1])
		}
	}
}

// byteSource draws a generator's choices from fuzz input, one byte each
// (rng.Intn(n) is that byte mod n for the small n the generators use), and
// zeros once it runs out, on which they terminate: the fuzzer mutates the
// structure of the case, not a seed.
type byteSource struct{ data []byte }

func (s *byteSource) Seed(int64) {}

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(b) << 32
}

// FuzzTraceOracle is checkTrace over cases the input decodes to: a path and
// a graph of up to 12 edges over five nodes from the generators of
// paths_test.go, a source among the nodes, a non-empty target subset, and a
// subset of the nodes as the source set.
func FuzzTraceOracle(f *testing.F) {
	// The hand-written cases of paths_test.go, as the choices that produce
	// them. A path: 1 = compound, then its operator (0 inverse, 1 sequence,
	// 3 star); 0 = property, then which of p, q, r. A graph: its edge count
	// less one, then subject, object, property per edge, nodes a to e as 0
	// to 4. Then the source, one target, a 1 per further target, and a 1 per
	// node of the source set.
	f.Add([]byte{1, 1, 0, 0, 0, 1, // p/q over the diamond a → {b, c} → d, from a
		4, 0, 1, 0, 1, 3, 1, 0, 2, 0, 2, 3, 1, 0, 4, 0, 0, 0, 1, 1, 1, 1, 1,
		1, 1, 0, 0}) // with sources {a, b}
	f.Add([]byte{1, 3, 0, 0, // p* from a through the cycle b → d → b
		4, 0, 1, 0, 1, 2, 0, 1, 3, 0, 3, 1, 0, 4, 4, 0, 0, 0, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 0, 1, // ^(p/q) over a -p→ b -q→ c, from c
		1, 0, 1, 0, 1, 2, 1, 2, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(&byteSource{data})
		c := traceCase{name: "fuzz", e: paths.RandomExpr(rng, 3)}
		c.g = paths.RandomGraph(rng, 5, 1+rng.Intn(12))
		nodes := c.g.NodeIDs()
		a := nodes[rng.Intn(len(nodes))]
		targets := []rdfgraph.ID{nodes[rng.Intn(len(nodes))]}
		for _, b := range nodes {
			if rng.Intn(2) == 1 && b != targets[0] {
				targets = append(targets, b)
			}
		}
		var sources []rdfgraph.ID // possibly none, possibly a alone
		for _, b := range nodes {
			if rng.Intn(2) == 1 {
				sources = append(sources, b)
			}
		}
		checkTrace(t, c, newTraceOracle(c.g), paths.NewEvaluator(c.e, c.g), a, sources, targets)
	})
}

// Property: an Evaluator's answers do not depend on what it was asked
// before, and no answer is a view of its scratch. One evaluator is driven
// through a seeded random interleaving of its entry points, single-source
// and source-set, over random sources — a set that is one node, or the node
// asked for just before, included — and of Reset and Release; a trace is
// often asked again from the sources just traced, to the same targets or to
// others. Every call must return what a fresh evaluator returns, marks and
// triples alike, and every slice returned earlier must be unchanged at the
// end. This is what lets the searches run on buffers the evaluator owns and
// keep only the last forward search and the last trace over it.
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
		var lastSources, lastTargets []rdfgraph.ID // of the last TraceSetInto
		for op := 0; op < 60; op++ {
			fresh := paths.NewEvaluator(c.e, c.g)
			a := nodes[rng.Intn(len(nodes))]
			targets := randomSubset(rng, nodes)
			sources := randomSubset(rng, nodes)
			if rng.Intn(3) == 0 {
				sources = []rdfgraph.ID{a} // the set a single-source search must not be taken for, and may be
			}
			if lastSources != nil && rng.Intn(2) == 0 {
				sources = lastSources // a kept trace to read back, or to be refused
				if rng.Intn(2) == 0 {
					targets = lastTargets
				}
			}
			switch rng.Intn(8) {
			case 4:
				got, want := rdfgraph.NewIDTripleSet(), rdfgraph.NewIDTripleSet()
				marks := slices.Clone(ev.TraceSetInto(sources, targets, got))
				if wantMarks := fresh.TraceSetInto(sources, targets, want); !slices.Equal(marks, wantMarks) || !slices.Equal(got.Sorted(c.g.Dict()), want.Sorted(c.g.Dict())) {
					t.Fatalf("%s: %s: op %d: TraceSetInto(%v, %v) = %v marking %v, fresh evaluator %v marking %v", c.name, c.e, op, sources, targets, got.IDTriples(), marks, want.IDTriples(), wantMarks)
				}
				lastSources, lastTargets = slices.Clone(sources), slices.Clone(targets)
			case 6:
				ev.Reset(c.g)
			case 7:
				ev.Release()
			case 5:
				got, want := ev.EvalSet(sources, nil), fresh.EvalSet(sources, nil)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %s: op %d: EvalSet(%v) = %v, fresh evaluator %v", c.name, c.e, op, sources, got, want)
				}
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
