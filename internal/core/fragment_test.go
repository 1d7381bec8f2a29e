package core_test

import (
	"math/rand"
	"testing"

	"shaclfrag/internal/core"
	pth "shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/turtle"
)

func TestFragmentSchemaExample13(t *testing.T) {
	// Example 1.3: the fragment keeps the paper typing triples plus the
	// WorkshopShape neighborhoods, and drops unrelated data.
	g := mustGraph(t, `
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:p1 rdf:type ex:Paper ; ex:author ex:anne , ex:bob .
ex:anne rdf:type ex:Professor .
ex:bob rdf:type ex:Student .
ex:unrelated ex:madeOf ex:cheese .
`)
	typ := rdf.NewIRI(rdf.RDFType)
	typePath := pth.P(rdf.RDFType)
	workshop := shape.Min(1, p("author"),
		shape.Min(1, typePath, shape.Value(iri("Student"))))
	h := schema.MustNew(schema.Definition{
		Name:   iri("WorkshopShape"),
		Shape:  workshop,
		Target: shape.Min(1, typePath, shape.Value(iri("Paper"))),
	})
	frag := core.FragmentSchema(g, h)
	want := []rdf.Triple{
		rdf.T(iri("p1"), typ, iri("Paper")),
		rdf.T(iri("p1"), iri("author"), iri("bob")),
		rdf.T(iri("bob"), typ, iri("Student")),
	}
	if !triplesEqual(frag, want) {
		t.Errorf("Frag(G,H) = %v\nwant %v", frag, want)
	}
	// Conformance theorem: the fragment still validates.
	fragGraph := rdfgraph.FromTriples(frag)
	if !h.Validate(fragGraph).Conforms {
		t.Error("fragment must conform to the schema")
	}
}

func TestFragmentOfUnionIsUnionOfFragments(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		g := shapetest.RandomGraph(rng, 12)
		s1 := shapetest.RandomShape(rng, 2)
		s2 := shapetest.RandomShape(rng, 2)
		both := core.Fragment(g, nil, s1, s2)
		a := core.Fragment(g, nil, s1)
		b := core.Fragment(g, nil, s2)
		union := map[rdf.Triple]bool{}
		var distinct []rdf.Triple
		for _, tr := range append(a, b...) {
			if !union[tr] {
				union[tr] = true
				distinct = append(distinct, tr)
			}
		}
		if !triplesEqual(both, distinct) {
			t.Fatalf("Frag(G,{s1,s2}) ≠ Frag(G,{s1}) ∪ Frag(G,{s2})\ns1 = %s\ns2 = %s", s1, s2)
		}
	}
}

// Theorem 4.1 (Conformance): for random schemas with monotone targets, if G
// conforms to H then Frag(G, H) conforms to H.
func TestConformanceTheoremProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2023))
	conforming := 0
	for trial := 0; trial < 300; trial++ {
		g := shapetest.RandomGraph(rng, 10)
		h := randomMonotoneTargetSchema(rng)
		if !h.Validate(g).Conforms {
			continue
		}
		conforming++
		frag := rdfgraph.FromTriples(core.FragmentSchema(g, h))
		if !h.Validate(frag).Conforms {
			t.Fatalf("Theorem 4.1 violated\nG:\n%s\nFrag:\n%s",
				turtle.FormatGraph(g), turtle.FormatGraph(frag))
		}
	}
	if conforming < 20 {
		t.Fatalf("only %d conforming trials; generator too strict", conforming)
	}
}

func randomMonotoneTargetSchema(rng *rand.Rand) *schema.Schema {
	var defs []schema.Definition
	n := 1 + rng.Intn(3)
	props := []string{"p", "q", "r"}
	for i := 0; i < n; i++ {
		var target shape.Shape
		switch rng.Intn(3) {
		case 0:
			target = schema.TargetNode(shapetest.IRI(string(rune('a' + rng.Intn(6)))))
		case 1:
			target = schema.TargetSubjectsOf(shapetest.Base + props[rng.Intn(3)])
		default:
			target = schema.TargetObjectsOf(shapetest.Base + props[rng.Intn(3)])
		}
		defs = append(defs, schema.Definition{
			Name:   shapetest.IRI("S" + string(rune('0'+i))),
			Shape:  shapetest.RandomShape(rng, 2),
			Target: target,
		})
	}
	return schema.MustNew(defs...)
}

func TestFragmentSelfSufficiency(t *testing.T) {
	// Stronger form mentioned in the introduction: v conforms to φ in G iff
	// v conforms in Frag(G, {φ}) — for conforming v, checked here; the
	// converse direction can fail (Example 4.3).
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		g := shapetest.RandomGraph(rng, 10)
		phi := shapetest.RandomShape(rng, 3)
		x := core.NewExtractor(g, nil)
		frag := rdfgraph.FromTriples(x.Fragment([]shape.Shape{phi}))
		fev := shape.NewEvaluator(frag, nil)
		for _, v := range g.NodeIDs() {
			if x.Evaluator().Conforms(v, phi) && !fev.ConformsTerm(g.Term(v), phi) {
				t.Fatalf("conformance lost in fragment for %s at %v", phi, g.Term(v))
			}
		}
	}
}
