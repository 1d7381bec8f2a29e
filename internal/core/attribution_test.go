package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/turtle"
)

// annotatedSet indexes an explanation's output by decoded triple.
func annotatedSet(ex *core.Explanation) map[rdf.Triple]core.AnnotatedTriple {
	out := make(map[rdf.Triple]core.AnnotatedTriple)
	for _, at := range ex.Annotated() {
		out[at.Triple] = at
	}
	return out
}

// TestAttributionParityFragment pins the acceptance criterion: the triples
// ExplainFragment explains are exactly the unattributed fragment, and each
// carries at least one justification.
func TestAttributionParityFragment(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 80, Seed: 11})
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	requests := core.SchemaRequests(h)

	want := turtle.FormatNTriples(core.NewExtractor(g, h).Fragment(requests))

	ex := core.NewExtractor(g, h).ExplainFragment(requests)
	var explained []rdf.Triple
	for _, at := range ex.Annotated() {
		explained = append(explained, at.Triple)
		if len(at.Justifications) == 0 {
			t.Fatalf("explained triple %v has no justification", at.Triple)
		}
	}
	if got := turtle.FormatNTriples(explained); got != want {
		t.Fatalf("ExplainFragment triple set differs from Fragment (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAttributionSoundnessProperty is the Sufficiency-style property for
// attribution: for every conforming node, (1) the explained triple set is
// exactly B(v,G,φ), (2) every triple carries ≥ 1 justification, and (3)
// replaying only the justified triples yields a graph where v still
// conforms (Theorem 3.4 with G' = the justified set).
func TestAttributionSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials, conformed := 0, 0
	for trial := 0; trial < 300; trial++ {
		g := shapetest.RandomGraph(rng, 10)
		phi := shapetest.RandomShape(rng, 3)
		x := core.NewExtractor(g, nil)
		for _, v := range g.NodeIDs() {
			trials++
			vt := g.Term(v)
			if !x.Evaluator().Conforms(v, phi) {
				continue
			}
			conformed++
			b := x.Neighborhood(vt, phi)
			ex := x.Explain(vt, rdf.Term{}, phi)
			ann := annotatedSet(ex)
			if len(ann) != len(b) {
				t.Fatalf("explanation has %d triples, B(v,G,φ) has %d (φ = %s, v = %v)",
					len(ann), len(b), phi, vt)
			}
			justified := make([]rdf.Triple, 0, len(b))
			for _, tr := range b {
				at, ok := ann[tr]
				if !ok {
					t.Fatalf("neighborhood triple %v missing from explanation (φ = %s)", tr, phi)
				}
				if len(at.Justifications) == 0 {
					t.Fatalf("neighborhood triple %v has no justification (φ = %s)", tr, phi)
				}
				justified = append(justified, tr)
			}
			// Replay: only the justified triples — v must still conform.
			sub := rdfgraph.FromTriples(justified)
			if !shape.NewEvaluator(sub, nil).ConformsTerm(vt, phi) {
				t.Fatalf("replaying justified triples breaks conformance at %v for %s\nG:\n%s\njustified:\n%s",
					vt, phi, turtle.FormatGraph(g), turtle.FormatNTriples(justified))
			}
			// Every Kind is in the bounded label set.
			for _, at := range ann {
				for _, j := range at.Justifications {
					if !containsKind(j.Kind()) {
						t.Fatalf("Kind %q not in ConstraintKinds", j.Kind())
					}
				}
			}
		}
	}
	if conformed < 100 {
		t.Fatalf("only %d/%d conforming cases; generator too weak", conformed, trials)
	}
}

func containsKind(k string) bool {
	for _, c := range core.ConstraintKinds {
		if c == k {
			return true
		}
	}
	return false
}

// TestExplainNamedShape checks shape-name threading: justifications inside
// a hasShape recursion carry the referenced definition's name, and the
// top-level name parameter labels the outer constraint.
func TestExplainNamedShape(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:b .
ex:b ex:q ex:c .
`)
	inner := iri("Inner")
	defs := defsMap{inner: shape.Min(1, p("q"), shape.TrueShape())}
	phi := shape.Min(1, p("p"), shape.Ref(inner))
	x := core.NewExtractorWith(shape.NewEvaluator(g, defs))
	ex := x.Explain(iri("a"), iri("Outer"), phi)
	ann := annotatedSet(ex)
	if len(ann) != 2 {
		t.Fatalf("expected 2 explained triples, got %d", len(ann))
	}
	outer := ann[rdf.T(iri("a"), iri("p"), iri("b"))]
	if len(outer.Justifications) == 0 || outer.Justifications[0].Shape != iri("Outer") {
		t.Errorf("outer triple should be justified under Outer: %+v", outer.Justifications)
	}
	innerAt := ann[rdf.T(iri("b"), iri("q"), iri("c"))]
	if len(innerAt.Justifications) == 0 || innerAt.Justifications[0].Shape != inner {
		t.Errorf("inner triple should be justified under Inner: %+v", innerAt.Justifications)
	}
	// Rendered forms are deterministic and mention the shape and focus.
	if !strings.Contains(outer.Rendered[0], "Outer") || !strings.Contains(outer.Rendered[0], "focus") {
		t.Errorf("rendered justification: %q", outer.Rendered[0])
	}
	// Path-traced justifications carry a product-automaton step.
	if !outer.Justifications[0].HasStep {
		t.Error("min-count trace should carry a path step")
	}
	if !strings.Contains(outer.Rendered[0], "step q") {
		t.Errorf("rendered step missing: %q", outer.Rendered[0])
	}
}

// TestExplainDiff: the constraint accounting for the extra triples of one
// fragment over another is reported.
func TestExplainDiff(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:b .
ex:a ex:r ex:c .
`)
	x := core.NewExtractor(g, nil)
	wide := x.ExplainFragment([]shape.Shape{
		shape.Min(1, p("p"), shape.TrueShape()),
		shape.Min(1, p("r"), shape.TrueShape()),
	})
	narrow := x.ExplainFragment([]shape.Shape{
		shape.Min(1, p("p"), shape.TrueShape()),
	})
	diff := core.ExplainDiff(wide, narrow)
	if len(diff) != 1 {
		t.Fatalf("diff = %d triples, want 1", len(diff))
	}
	if diff[0].Triple != rdf.T(iri("a"), iri("r"), iri("c")) {
		t.Errorf("diff triple = %v", diff[0].Triple)
	}
	if k := diff[0].Justifications[0].Kind(); k != "minCount" {
		t.Errorf("diff justification kind = %q, want minCount", k)
	}
	// The symmetric diff is empty: narrow ⊆ wide.
	if back := core.ExplainDiff(narrow, wide); len(back) != 0 {
		t.Errorf("narrow-minus-wide should be empty, got %d", len(back))
	}
}

// TestExplainDeterministic: Annotated output (triples, justification order,
// rendered strings) is identical across independent extractions.
func TestExplainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := shapetest.RandomGraph(rng, 15)
	phi := shapetest.RandomShape(rng, 3)
	render := func() string {
		var b strings.Builder
		ex := core.NewExtractor(g, nil).Explain(g.Term(g.NodeIDs()[0]), rdf.Term{}, phi)
		for _, at := range ex.Annotated() {
			b.WriteString(at.Triple.String())
			for _, r := range at.Rendered {
				b.WriteString("  # " + r)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("explanation output nondeterministic:\n%s\nvs\n%s", first, got)
		}
	}
}

// TestWhyNotAttribution: explaining ¬φ at a non-conforming node exercises
// the negated-atom rows and marks the justifications negated.
func TestWhyNotAttribution(t *testing.T) {
	g := mustGraph(t, `ex:v ex:p ex:a ; ex:q ex:b .`)
	phi := shape.ClosedShape(base + "p")
	x := core.NewExtractor(g, nil)
	ex := x.Explain(iri("v"), rdf.Term{}, shape.Neg(phi))
	ann := annotatedSet(ex)
	at, ok := ann[rdf.T(iri("v"), iri("q"), iri("b"))]
	if !ok {
		t.Fatalf("why-not triple missing; explanation has %d triples", len(ann))
	}
	j := at.Justifications[0]
	if !j.Negated || j.Kind() != "not_closed" {
		t.Errorf("justification = %+v, kind %q; want negated not_closed", j, j.Kind())
	}
	if !strings.Contains(at.Rendered[0], "¬") {
		t.Errorf("rendered negation missing: %q", at.Rendered[0])
	}
}
