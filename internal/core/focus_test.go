package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// randomTarget draws a shape whose syntax FocusCandidates can read: the
// four real-SHACL target forms, generalized to random paths (with *, ? and
// inverse), references into the schema, disjunctions, and node targets
// that are absent from the graph — never interned ("nowhere"), or interned
// without occurring in a triple ("ghost"). refs names the definitions it
// may reference.
func randomTarget(rng *rand.Rand, depth int, refs ...string) shape.Shape {
	node := func() rdf.Term {
		return shapetest.IRI([]string{"a", "b", "c", "d", "nowhere", "ghost"}[rng.Intn(6)])
	}
	prop := shapetest.Base + []string{"p", "q", "r"}[rng.Intn(3)]
	if depth <= 0 {
		return schema.TargetNode(node())
	}
	switch rng.Intn(8) {
	case 0:
		return schema.TargetNode(node())
	case 1:
		return schema.TargetSubjectsOf(prop)
	case 2:
		return schema.TargetObjectsOf(prop)
	case 3:
		return shape.Min(1+rng.Intn(2), paths.SeqOf(paths.P(prop), paths.Star{X: shapetest.RandomPath(rng, 1)}), shape.Value(node()))
	case 4:
		return shape.Min(1+rng.Intn(2), shapetest.RandomPath(rng, 2), randomTarget(rng, depth-1, refs...))
	case 5:
		return shape.OrOf(randomTarget(rng, depth-1, refs...), randomTarget(rng, depth-1, refs...))
	case 6:
		if len(refs) > 0 {
			return shape.Ref(shapetest.IRI(refs[rng.Intn(len(refs))]))
		}
		fallthrough
	default:
		return shape.AndOf(shapetest.RandomShape(rng, 2), randomTarget(rng, depth-1, refs...))
	}
}

// TestFocusCandidatesSuperset is the soundness property target-driven
// enumeration rests on: whenever a request's syntax yields candidates,
// every node of N(G) conforming to the request is among them — so
// FragmentParallel, which visits only them, stays byte-identical to the
// AST walker scanning all of N(G).
func TestFocusCandidatesSuperset(t *testing.T) {
	enumerable, cases := 0, 0
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := shapetest.RandomGraph(rng, 12+rng.Intn(20))
		g.TermID(shapetest.IRI("ghost"))
		h := schema.MustNew(
			schema.Definition{Name: shapetest.IRI("S1"), Shape: randomTarget(rng, 1)},
			schema.Definition{Name: shapetest.IRI("S2"), Shape: shape.AndOf(shape.Ref(shapetest.IRI("S1")), shapetest.RandomShape(rng, 1))},
		)
		var requests []shape.Shape
		for i := 0; i < 4; i++ {
			requests = append(requests, shape.AndOf(shapetest.RandomShape(rng, 2), randomTarget(rng, 2, "S1", "S2", "undefined")))
		}

		x := core.NewExtractor(g, h)
		for _, phi := range requests {
			cases++
			ids, ok := x.Evaluator().FocusCandidates(shape.NNF(phi))
			if !ok {
				continue
			}
			enumerable++
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				t.Errorf("seed %d: candidates of %s not a sorted set: %v", seed, phi, ids)
			}
			for _, v := range ids {
				if !g.IsNode(v) {
					t.Errorf("seed %d: candidate %s of %s is not in N(G)", seed, g.Term(v), phi)
				}
			}
			for _, v := range g.NodeIDs() {
				if x.Evaluator().Conforms(v, phi) && !slices.Contains(ids, v) {
					t.Errorf("seed %d: %s conforms to %s but is not a candidate", seed, g.Term(v), phi)
				}
			}
		}
		assertParallelParity(t, g, h, requests)
	}
	// The generator must keep exercising the derivation, not the fallback.
	if enumerable*2 < cases {
		t.Errorf("only %d of %d random requests were enumerable", enumerable, cases)
	}
}

// TestFocusCandidatesRules pins each derivation rule on a fixed graph.
func TestFocusCandidatesRules(t *testing.T) {
	g := mustGraph(t, `
@prefix : <http://x/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
:e1 rdf:type :Concert ; :name "one" .
:e2 rdf:type :Event .
:Concert rdfs:subClassOf :Event .
:o1 :organizes :e1 .
`)
	ghost := g.TermID(iri("ghost"))
	h := schema.MustNew(schema.Definition{Name: iri("Named"), Shape: shape.Min(1, p("name"), shape.TrueShape())})
	x := core.NewExtractor(g, h)
	ids := func(names ...string) []rdfgraph.ID {
		out := []rdfgraph.ID{}
		for _, n := range names {
			out = append(out, g.LookupTerm(iri(n)))
		}
		slices.Sort(out)
		return out
	}
	events := schema.TargetClass(iri("Event"))
	for _, tc := range []struct {
		name string
		phi  shape.Shape
		want []rdfgraph.ID // nil: not enumerable
	}{
		{"⊥", shape.FalseShape(), ids()},
		{"⊤", shape.TrueShape(), nil},
		{"node target", schema.TargetNode(iri("e2")), ids("e2")},
		{"node target off the graph", schema.TargetNode(iri("ghost")), ids()},
		{"node target never interned", schema.TargetNode(iri("nowhere")), ids()},
		{"class target through subClassOf*", events, ids("e1", "e2")},
		{"subjects-of", schema.TargetSubjectsOf(base + "organizes"), ids("o1")},
		{"objects-of", schema.TargetObjectsOf(base + "organizes"), ids("e1")},
		{"∧ takes the smallest conjunct", shape.AndOf(events, shape.Ref(iri("Named")), shape.Neg(events)), ids("e1")},
		{"∨ unions", shape.OrOf(schema.TargetNode(iri("o1")), events), ids("e1", "e2", "o1")},
		{"∨ with an open disjunct", shape.OrOf(events, shape.TrueShape()), nil},
		{"zero-length path keeps the end itself", shape.Min(1, paths.Star{X: p("organizes")}, schema.TargetNode(iri("e1"))), ids("e1", "o1")},
		{"≥0 holds everywhere", shape.Min(0, p("name"), shape.TrueShape()), nil},
		{"≥1 over a longer path to ⊤", shape.Min(1, paths.SeqOf(p("organizes"), p("name")), shape.TrueShape()), nil},
		{"¬≤0 normalizes to ≥1", shape.Neg(shape.Max(0, p("name"), shape.TrueShape())), ids("e1")},
		{"≤n", shape.Max(1, p("name"), shape.TrueShape()), nil},
		{"undefined reference is ⊤", shape.Ref(iri("undefined")), nil},
	} {
		got, ok := x.Evaluator().FocusCandidates(shape.NNF(tc.phi))
		if ok != (tc.want != nil) || (ok && !slices.Equal(got, tc.want)) {
			t.Errorf("%s: FocusCandidates(%s) = %v, %v; want %v", tc.name, tc.phi, got, ok, tc.want)
		}
		if slices.Contains(got, ghost) {
			t.Errorf("%s: interned constant outside N(G) among the candidates", tc.name)
		}
	}
}
