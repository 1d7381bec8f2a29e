package contain_test

import (
	"testing"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

func iri(local string) rdf.Term { return shapetest.IRI(local) }
func p(name string) paths.Expr  { return paths.P(shapetest.Base + name) }

func intLit(n int64) rdf.Term { return rdf.NewInteger(n) }

func same() *contain.Checker { return contain.New(nil, nil) }

func wantContained(t *testing.T, c *contain.Checker, a, b shape.Shape) {
	t.Helper()
	if v := c.Contains(a, b); v != contain.Contained {
		t.Errorf("Contains(%s, %s) = %s, want contained", a, b, v)
	}
}

func wantUnproved(t *testing.T, c *contain.Checker, a, b shape.Shape) {
	t.Helper()
	if v := c.Contains(a, b); v != contain.Unknown {
		t.Errorf("Contains(%s, %s) = %s, want unknown", a, b, v)
	}
}

func TestStructuralRules(t *testing.T) {
	c := same()
	top := shape.TrueShape()
	a := shape.Value(iri("a"))
	b := shape.NodeTestShape(shape.IsIRI{})

	// Constants and reflexivity.
	wantContained(t, c, shape.FalseShape(), a)
	wantContained(t, c, a, top)
	wantContained(t, c, a, a)

	// Conjunct weakening / right-conjunction introduction.
	wantContained(t, c, shape.AndOf(a, b), a)
	wantContained(t, c, shape.AndOf(a, b), shape.AndOf(b, a))
	// (a is an IRI constant, so a ⊑ a ∧ isIRI actually holds — use a
	// genuinely independent conjunct for the negative case.)
	wantUnproved(t, c, a, shape.AndOf(a, shape.Min(1, p("p"), top)))

	// Disjunct widening / left-disjunction elimination.
	wantContained(t, c, a, shape.OrOf(b, a))
	wantContained(t, c, shape.OrOf(a, b), shape.OrOf(b, a, shape.Value(iri("c"))))
	wantUnproved(t, c, shape.OrOf(a, b), a)

	// Cardinality interval inclusion.
	wantContained(t, c, shape.Min(3, p("p"), top), shape.Min(1, p("p"), top))
	wantUnproved(t, c, shape.Min(1, p("p"), top), shape.Min(3, p("p"), top))
	wantContained(t, c, shape.Max(1, p("p"), top), shape.Max(4, p("p"), top))
	wantUnproved(t, c, shape.Max(4, p("p"), top), shape.Max(1, p("p"), top))

	// Quantifier body covariance, ≤n body contravariance.
	wantContained(t, c, shape.Min(1, p("p"), a), shape.Min(1, p("p"), shape.OrOf(a, b)))
	wantContained(t, c, shape.Max(2, p("p"), shape.OrOf(a, b)), shape.Max(2, p("p"), a))
	wantContained(t, c, shape.All(p("p"), a), shape.All(p("p"), shape.OrOf(a, b)))

	// ∀E.φ ⊑ ≤0 E.ψ when φ ∧ ψ is unsatisfiable.
	isLit := shape.NodeTestShape(shape.IsLiteral{})
	wantContained(t, c, shape.All(p("p"), b), shape.Max(0, p("p"), isLit))

	// Negated atoms: contrapositive.
	wantContained(t, c, shape.Neg(shape.OrOf(a, b)), shape.Neg(a))
}

func TestPathInclusionRules(t *testing.T) {
	c := same()
	top := shape.TrueShape()
	pq := paths.AltOf(p("p"), p("q"))

	// ≥ widens along the path, ≤ narrows.
	wantContained(t, c, shape.Min(1, p("p"), top), shape.Min(1, pq, top))
	wantUnproved(t, c, shape.Min(1, pq, top), shape.Min(1, p("p"), top))
	wantContained(t, c, shape.Max(1, pq, top), shape.Max(1, p("p"), top))
	wantContained(t, c, shape.All(pq, top), shape.All(p("p"), top))

	// Star absorbs its base and repetitions; option absorbs its base.
	star := paths.Star{X: p("p")}
	wantContained(t, c, shape.Min(1, p("p"), top), shape.Min(1, star, top))
	wantContained(t, c, shape.Min(1, paths.ZeroOrOne{X: p("p")}, top), shape.Min(1, star, top))
	wantContained(t, c, shape.Min(1, paths.Seq{Left: p("p"), Right: star}, top), shape.Min(1, star, top))
	wantContained(t, c, shape.Min(1, p("p"), top), shape.Min(1, paths.ZeroOrOne{X: p("p")}, top))

	// Inverse and sequence are congruences.
	wantContained(t, c,
		shape.Min(1, paths.Inv(p("p")), top), shape.Min(1, paths.Inv(pq), top))
	wantContained(t, c,
		shape.Min(1, paths.Seq{Left: p("p"), Right: p("q")}, top),
		shape.Min(1, paths.Seq{Left: pq, Right: p("q")}, top))
}

func TestAtomRules(t *testing.T) {
	c := same()
	five := intLit(5)

	// hasValue against tests and negated atoms.
	wantContained(t, c, shape.Value(five), shape.NodeTestShape(shape.IsLiteral{}))
	wantContained(t, c, shape.Value(five), shape.Neg(shape.NodeTestShape(shape.IsIRI{})))
	wantContained(t, c, shape.Value(five), shape.Neg(shape.Value(intLit(6))))
	wantUnproved(t, c, shape.Value(five), shape.Neg(shape.Value(five)))

	// Node-test implication lattice.
	imp := func(a, b shape.NodeTest) { wantContained(t, c, shape.NodeTestShape(a), shape.NodeTestShape(b)) }
	noimp := func(a, b shape.NodeTest) { wantUnproved(t, c, shape.NodeTestShape(a), shape.NodeTestShape(b)) }
	imp(shape.Datatype{IRI: rdf.XSDString}, shape.IsLiteral{})
	imp(shape.MinInclusive{Bound: five}, shape.IsLiteral{})
	imp(shape.MinInclusive{Bound: five}, shape.MinInclusive{Bound: intLit(3)})
	imp(shape.MinExclusive{Bound: five}, shape.MinInclusive{Bound: five})
	imp(shape.MaxInclusive{Bound: five}, shape.MaxExclusive{Bound: intLit(6)})
	imp(shape.MinLength{N: 4}, shape.MinLength{N: 2})
	imp(shape.MaxLength{N: 2}, shape.MaxLength{N: 4})
	imp(shape.AnyOf{Tests: []shape.NodeTest{shape.Datatype{IRI: rdf.XSDString}, shape.HasLang{Tag: "en"}}},
		shape.IsLiteral{})
	imp(shape.IsIRI{}, shape.AnyOf{Tests: []shape.NodeTest{shape.IsBlank{}, shape.IsIRI{}}})
	noimp(shape.MinInclusive{Bound: intLit(3)}, shape.MinInclusive{Bound: five})
	noimp(shape.IsLiteral{}, shape.Datatype{IRI: rdf.XSDString})

	// Tests against negated tests: disjoint kinds prove the negation.
	wantContained(t, c, shape.NodeTestShape(shape.IsIRI{}),
		shape.Neg(shape.NodeTestShape(shape.Datatype{IRI: rdf.XSDString})))
	// test ⊑ ¬hasValue(c) when the constant fails the test.
	wantContained(t, c, shape.NodeTestShape(shape.IsIRI{}), shape.Neg(shape.Value(five)))

	// Closed-shape allowed-set inclusion.
	wantContained(t, c,
		shape.ClosedShape(shapetest.Base+"p"),
		shape.ClosedShape(shapetest.Base+"p", shapetest.Base+"q"))
	wantUnproved(t, c,
		shape.ClosedShape(shapetest.Base+"p", shapetest.Base+"q"),
		shape.ClosedShape(shapetest.Base+"p"))
}

func TestHasShapeResolution(t *testing.T) {
	strong := schema.MustNew(schema.Definition{
		Name:  iri("S"),
		Shape: shape.Min(2, p("p"), shape.TrueShape()),
	})
	weak := schema.MustNew(schema.Definition{
		Name:  iri("S"),
		Shape: shape.Min(1, p("p"), shape.TrueShape()),
	})
	ref := shape.Ref(iri("S"))

	// Same schema: reflexive without unfolding.
	cSame := contain.New(strong, strong)
	wantContained(t, cSame, ref, ref)

	// Cross-schema: the same name resolves per side.
	c := contain.New(strong, weak)
	wantContained(t, c, ref, ref)
	back := contain.New(weak, strong)
	wantUnproved(t, back, ref, ref)

	// Undefined references behave as ⊤.
	wantContained(t, c, ref, shape.Ref(iri("Undefined")))

	// References mix with structural rules.
	wantContained(t, c, shape.AndOf(ref, shape.Value(iri("a"))), ref)
}

func TestEquivalentReorderedDefinitions(t *testing.T) {
	a := shape.Min(1, p("p"), shape.TrueShape())
	b := shape.All(p("q"), shape.NodeTestShape(shape.IsLiteral{}))
	c := same()
	if v := c.Equivalent(shape.AndOf(a, b), shape.AndOf(b, a)); v != contain.Contained {
		t.Fatalf("reordered conjunctions must be equivalent, got %s", v)
	}
	if v := c.Equivalent(a, b); v != contain.Unknown {
		t.Fatalf("unrelated shapes must stay unknown, got %s", v)
	}
}

func TestRefuterFindsWitness(t *testing.T) {
	c := same()
	top := shape.TrueShape()
	// ≥1 p.⊤ does not contain ≥2 p.⊤; any node with exactly one p-edge
	// refutes it.
	res := c.Check(shape.Min(1, p("p"), top), shape.Min(2, p("p"), top), contain.RefuteConfig{})
	if res.Verdict != contain.NotContained {
		t.Fatalf("verdict = %s, want not-contained", res.Verdict)
	}
	if res.Witness == nil || len(res.Witness.Graph) == 0 {
		t.Fatalf("refutation must carry a witness graph")
	}
	// ⊤ does not contain ≥1 p.⊤: refuted by any node without p-edges.
	res = c.Check(top, shape.Min(1, p("p"), top), contain.RefuteConfig{})
	if res.Verdict != contain.NotContained {
		t.Fatalf("verdict = %s, want not-contained", res.Verdict)
	}
	// Contained questions never reach the refuter.
	res = c.Check(shape.Min(2, p("p"), top), shape.Min(1, p("p"), top), contain.RefuteConfig{})
	if res.Verdict != contain.Contained || res.Witness != nil {
		t.Fatalf("got %s with witness %v", res.Verdict, res.Witness)
	}
}

func TestComputeClasses(t *testing.T) {
	a := shape.Min(1, p("p"), shape.TrueShape())
	b := shape.NodeTestShape(shape.IsIRI{})
	shapes := []shape.Shape{
		shape.AndOf(a, b),
		shape.AndOf(b, a), // congruent to 0
		b,
		shape.AndOf(b, shape.TrueShape()), // congruent to 2 after ⊤-drop
	}
	cl := contain.ComputeClasses(nil, shapes)
	if cl.NumClasses != 2 || cl.Shared != 2 {
		t.Fatalf("classes = %+v, want 2 classes with 2 shared members", cl)
	}
	if cl.Rep[1] != 0 || cl.Rep[3] != 2 {
		t.Fatalf("representatives = %v", cl.Rep)
	}
}
