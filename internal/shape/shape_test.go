package shape_test

import (
	"math/rand"
	"strings"
	"testing"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/turtle"
)

const base = "http://x/"

func iri(s string) rdf.Term { return rdf.NewIRI(base + s) }

func mustGraph(t *testing.T, src string) *rdfgraph.Graph {
	t.Helper()
	g, err := turtle.Parse("@prefix ex: <" + base + "> .\n" + src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// isNNF reports whether φ is in negation normal form: every negation
// applies to an atom.
func isNNF(phi shape.Shape) bool {
	ok := true
	shape.Walk(phi, func(s shape.Shape) {
		if n, isNot := s.(*shape.Not); isNot {
			switch n.X.(type) {
			case *shape.True, *shape.False, *shape.Not, *shape.And, *shape.Or,
				*shape.MinCount, *shape.MaxCount, *shape.Forall:
				ok = false
			}
		}
	})
	return ok
}

func conforms(t *testing.T, g *rdfgraph.Graph, node string, phi shape.Shape) bool {
	t.Helper()
	return shape.NewEvaluator(g, nil).ConformsTerm(iri(node), phi)
}

func p(name string) paths.Expr { return paths.P(base + name) }

func TestTrueFalse(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b .`)
	if !conforms(t, g, "a", shape.TrueShape()) {
		t.Error("⊤ must hold")
	}
	if conforms(t, g, "a", shape.FalseShape()) {
		t.Error("⊥ must not hold")
	}
}

func TestHasValueAndTest(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p "lit" .`)
	if !conforms(t, g, "a", shape.Value(iri("a"))) {
		t.Error("hasValue(a) must hold at a")
	}
	if conforms(t, g, "a", shape.Value(iri("b"))) {
		t.Error("hasValue(b) must not hold at a")
	}
	if !conforms(t, g, "a", shape.NodeTestShape(shape.IsIRI{})) {
		t.Error("test(isIRI) must hold at an IRI")
	}
	ev := shape.NewEvaluator(g, nil)
	if !ev.ConformsTerm(rdf.NewString("lit"), shape.NodeTestShape(shape.IsLiteral{})) {
		t.Error("test(isLiteral) must hold at a literal")
	}
}

func TestMinCount(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b , ex:c . ex:b a ex:C .`)
	typeC := shape.Min(1, paths.P(rdf.RDFType), shape.Value(iri("C")))
	if !conforms(t, g, "a", shape.Min(2, p("p"), shape.TrueShape())) {
		t.Error("≥2 p.⊤ must hold with two p-edges")
	}
	if conforms(t, g, "a", shape.Min(3, p("p"), shape.TrueShape())) {
		t.Error("≥3 p.⊤ must fail with two p-edges")
	}
	if !conforms(t, g, "a", shape.Min(1, p("p"), typeC)) {
		t.Error("≥1 p.(≥1 type.hasValue(C)) must hold via b")
	}
	if conforms(t, g, "a", shape.Min(2, p("p"), typeC)) {
		t.Error("only one p-successor has type C")
	}
	// ≥0 holds vacuously, even with no successors at all.
	if !conforms(t, g, "c", shape.Min(0, p("p"), shape.FalseShape())) {
		t.Error("≥0 E.⊥ holds vacuously")
	}
}

func TestMaxCount(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b , ex:c , ex:d .`)
	if conforms(t, g, "a", shape.Max(2, p("p"), shape.TrueShape())) {
		t.Error("≤2 p.⊤ must fail with three p-edges")
	}
	if !conforms(t, g, "a", shape.Max(3, p("p"), shape.TrueShape())) {
		t.Error("≤3 p.⊤ must hold with three p-edges")
	}
	if !conforms(t, g, "b", shape.Max(0, p("p"), shape.TrueShape())) {
		t.Error("≤0 p.⊤ must hold with no p-edges")
	}
}

func TestForall(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:b , ex:c .
ex:b a ex:C . ex:c a ex:C .
ex:z ex:p ex:b , ex:bad .
`)
	typeC := shape.Min(1, paths.P(rdf.RDFType), shape.Value(iri("C")))
	all := shape.All(p("p"), typeC)
	if !conforms(t, g, "a", all) {
		t.Error("∀p.typeC must hold at a")
	}
	if conforms(t, g, "z", all) {
		t.Error("∀p.typeC must fail at z (bad has no type)")
	}
	// Vacuous truth for nodes without p-edges.
	if !conforms(t, g, "bad", all) {
		t.Error("∀ holds vacuously")
	}
}

func TestEq(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:x . ex:a ex:q ex:x .
ex:b ex:p ex:x . ex:b ex:q ex:y .
ex:c ex:p ex:x , ex:y . ex:c ex:q ex:x .
ex:loop ex:p ex:loop .
`)
	eq := shape.EqPath(p("p"), base+"q")
	if !conforms(t, g, "a", eq) {
		t.Error("eq must hold when sets match")
	}
	if conforms(t, g, "b", eq) {
		t.Error("eq must fail on different values")
	}
	if conforms(t, g, "c", eq) {
		t.Error("eq must fail on subset")
	}
	// Vacuous equality of two empty sets.
	if !conforms(t, g, "x", eq) {
		t.Error("eq of empty sets holds")
	}
	// eq(id, p): the only p-edge is a self-loop.
	if !conforms(t, g, "loop", shape.EqID(base+"p")) {
		t.Error("eq(id,p) must hold at self-loop-only node")
	}
	if conforms(t, g, "a", shape.EqID(base+"p")) {
		t.Error("eq(id,p) must fail when p-edge is not a self-loop")
	}
}

func TestDisj(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:friend ex:x . ex:a ex:colleague ex:y .
ex:b ex:friend ex:x . ex:b ex:colleague ex:x .
ex:loop ex:p ex:loop .
`)
	d := shape.DisjPath(p("friend"), base+"colleague")
	if !conforms(t, g, "a", d) {
		t.Error("disj must hold for disjoint sets")
	}
	if conforms(t, g, "b", d) {
		t.Error("disj must fail on common value")
	}
	// ¬disj(id, p): p-self-loop (Example 2.2).
	selfLoop := shape.Neg(shape.DisjID(base + "p"))
	if !conforms(t, g, "loop", selfLoop) {
		t.Error("¬disj(id,p) must hold at self-loop")
	}
	if conforms(t, g, "a", selfLoop) {
		t.Error("¬disj(id,p) must fail without self-loop")
	}
}

func TestClosed(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b ; ex:q ex:c . ex:b ex:r ex:c .`)
	if !conforms(t, g, "a", shape.ClosedShape(base+"p", base+"q")) {
		t.Error("closed({p,q}) must hold at a")
	}
	if conforms(t, g, "a", shape.ClosedShape(base+"p")) {
		t.Error("closed({p}) must fail at a (has q)")
	}
	// Nodes with no outgoing properties are closed under anything.
	if !conforms(t, g, "c", shape.ClosedShape()) {
		t.Error("closed({}) holds at sink nodes")
	}
}

func TestLessThan(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:low 1 , 2 ; ex:high 5 , 9 .
ex:b ex:low 5 ; ex:high 5 .
ex:c ex:low 1 ; ex:high "five" .
`)
	lt := shape.Less(p("low"), base+"high")
	lte := shape.LessEq(p("low"), base+"high")
	if !conforms(t, g, "a", lt) {
		t.Error("lessThan holds when all pairs ordered")
	}
	if conforms(t, g, "b", lt) {
		t.Error("lessThan fails on equality")
	}
	if !conforms(t, g, "b", lte) {
		t.Error("lessThanEq holds on equality")
	}
	if conforms(t, g, "c", lt) || conforms(t, g, "c", lte) {
		t.Error("incomparable values fail both lessThan and lessThanEq")
	}
}

func TestUniqueLang(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:label "hi"@en , "hallo"@nl .
ex:b ex:label "hi"@en , "hello"@en .
ex:c ex:label "same"@en , "same"@en .
ex:d ex:label "plain" , "plainer" .
`)
	ul := shape.UniqueLangShape(p("label"))
	if !conforms(t, g, "a", ul) {
		t.Error("distinct languages conform")
	}
	if conforms(t, g, "b", ul) {
		t.Error("duplicate language must fail")
	}
	// Identical literals are one value, so no clash.
	if !conforms(t, g, "c", ul) {
		t.Error("a single repeated literal is one value")
	}
	if !conforms(t, g, "d", ul) {
		t.Error("untagged literals never clash")
	}
}

func TestBooleanConnectives(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b .`)
	hasP := shape.Min(1, p("p"), shape.TrueShape())
	hasQ := shape.Min(1, p("q"), shape.TrueShape())
	if !conforms(t, g, "a", shape.AndOf(hasP, shape.Neg(hasQ))) {
		t.Error("a has p and not q")
	}
	if !conforms(t, g, "a", shape.OrOf(hasQ, hasP)) {
		t.Error("or must hold")
	}
	if conforms(t, g, "a", shape.AndOf(hasP, hasQ)) {
		t.Error("and must fail")
	}
	if conforms(t, g, "a", shape.Neg(hasP)) {
		t.Error("negation must flip")
	}
}

func TestHasShapeResolution(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b .`)
	defs := defsMap{
		iri("S"): shape.Min(1, p("p"), shape.TrueShape()),
	}
	ev := shape.NewEvaluator(g, defs)
	if !ev.ConformsTerm(iri("a"), shape.Ref(iri("S"))) {
		t.Error("hasShape(S) must resolve via defs")
	}
	if ev.ConformsTerm(iri("b"), shape.Ref(iri("S"))) {
		t.Error("b has no p-edge")
	}
	// Undefined shape names behave as ⊤.
	if !ev.ConformsTerm(iri("b"), shape.Ref(iri("Undefined"))) {
		t.Error("undefined shape names default to ⊤")
	}
}

type defsMap map[rdf.Term]shape.Shape

func (d defsMap) Def(name rdf.Term) (shape.Shape, bool) {
	s, ok := d[name]
	return s, ok
}

func TestWorkshopShapeExample(t *testing.T) {
	// Example 1.1/2.2: ≥1 author.≥1 type/subclassOf*.hasValue(Student).
	g := mustGraph(t, `
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:paper1 ex:author ex:anne , ex:bob .
ex:anne rdf:type ex:Professor .
ex:bob rdf:type ex:PhDStudent .
ex:PhDStudent rdfs:subClassOf ex:Student .
ex:paper2 ex:author ex:anne .
`)
	student := shape.Min(1, p("author"),
		shape.Min(1, paths.SeqOf(paths.P(rdf.RDFType), paths.Star{X: paths.P(rdf.RDFSSubClassOf)}),
			shape.Value(iri("Student"))))
	if !conforms(t, g, "paper1", student) {
		t.Error("paper1 has a student author (via subclass)")
	}
	if conforms(t, g, "paper2", student) {
		t.Error("paper2 has no student author")
	}
}

func TestNNFRewrites(t *testing.T) {
	psi := shape.Value(iri("c"))
	e := p("p")
	cases := []struct {
		in   shape.Shape
		want string
	}{
		{shape.Neg(shape.Min(2, e, psi)), shape.Max(1, e, psi).String()},
		{shape.Neg(shape.Max(2, e, psi)), shape.Min(3, e, psi).String()},
		{shape.Neg(shape.Min(0, e, psi)), "⊥"},
		{shape.Neg(shape.All(e, psi)), shape.Min(1, e, shape.Neg(psi)).String()},
		{shape.Neg(shape.Neg(psi)), psi.String()},
		{shape.Neg(shape.TrueShape()), "⊥"},
		{shape.Neg(shape.FalseShape()), "⊤"},
		{shape.Neg(shape.AndOf(psi, shape.TrueShape())), shape.Neg(psi).String()},
	}
	for _, c := range cases {
		got := shape.NNF(c.in)
		if got.String() != c.want {
			t.Errorf("NNF(%s) = %s, want %s", c.in, got, c.want)
		}
		if !isNNF(got) {
			t.Errorf("NNF(%s) = %s is not in NNF", c.in, got)
		}
	}
}

func TestNNFDeMorgan(t *testing.T) {
	a := shape.Min(1, p("p"), shape.TrueShape())
	b := shape.EqID(base + "q")
	nnf := shape.NNF(shape.Neg(shape.AndOf(a, b)))
	or, ok := nnf.(*shape.Or)
	if !ok || len(or.Xs) != 2 {
		t.Fatalf("NNF(¬(a∧b)) = %s, want a disjunction", nnf)
	}
	if !isNNF(nnf) {
		t.Error("result must be NNF")
	}
}

// Property: NNF preserves conformance on random graphs and shapes.
func TestNNFPreservesConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		g := shapetest.RandomGraph(rng, 12)
		phi := shapetest.RandomShape(rng, 3)
		nnf := shape.NNF(phi)
		if !isNNF(nnf) {
			t.Fatalf("trial %d: NNF(%s) = %s not in NNF", trial, phi, nnf)
		}
		ev := shape.NewEvaluator(g, nil)
		for _, n := range g.NodeIDs() {
			if ev.Conforms(n, phi) != ev.Conforms(n, nnf) {
				t.Fatalf("trial %d: conformance differs at %v\nφ   = %s\nnnf = %s\ngraph:\n%s",
					trial, g.Term(n), phi, nnf, turtle.FormatGraph(g))
			}
		}
	}
}

func TestNodeTests(t *testing.T) {
	en := rdf.NewLangString("hello", "en")
	five := rdf.NewInteger(5)
	cases := []struct {
		test shape.NodeTest
		term rdf.Term
		want bool
	}{
		{shape.IsIRI{}, iri("a"), true},
		{shape.IsIRI{}, five, false},
		{shape.IsLiteral{}, five, true},
		{shape.IsBlank{}, rdf.NewBlank("b"), true},
		{shape.AnyOf{Tests: []shape.NodeTest{shape.IsIRI{}, shape.IsBlank{}}}, rdf.NewBlank("b"), true},
		{shape.AnyOf{Tests: []shape.NodeTest{shape.IsIRI{}, shape.IsBlank{}}}, five, false},
		{shape.Datatype{IRI: rdf.XSDInteger}, five, true},
		{shape.Datatype{IRI: rdf.XSDString}, five, false},
		{shape.HasLang{Tag: "en"}, en, true},
		{shape.HasLang{Tag: "EN"}, en, true},
		{shape.HasLang{Tag: "nl"}, en, false},
		{shape.MustPattern("^hel"), en, true},
		{shape.MustPattern("^bye"), en, false},
		{shape.MustPattern("."), rdf.NewBlank("b"), false},
		{shape.MinLength{N: 5}, en, true},
		{shape.MinLength{N: 6}, en, false},
		{shape.MaxLength{N: 5}, en, true},
		{shape.MaxLength{N: 4}, en, false},
		{shape.MinExclusive{Bound: rdf.NewInteger(4)}, five, true},
		{shape.MinExclusive{Bound: rdf.NewInteger(5)}, five, false},
		{shape.MinInclusive{Bound: rdf.NewInteger(5)}, five, true},
		{shape.MaxExclusive{Bound: rdf.NewInteger(6)}, five, true},
		{shape.MaxExclusive{Bound: rdf.NewInteger(5)}, five, false},
		{shape.MaxInclusive{Bound: rdf.NewInteger(5)}, five, true},
		{shape.MinExclusive{Bound: rdf.NewInteger(4)}, rdf.NewString("5"), false},
	}
	for _, c := range cases {
		if got := c.test.Holds(c.term); got != c.want {
			t.Errorf("%s.Holds(%s) = %v, want %v", c.test, c.term, got, c.want)
		}
	}
	if _, err := shape.NewPattern("("); err == nil {
		t.Error("bad regex must error")
	}
}

func TestShapeStrings(t *testing.T) {
	s := shape.AndOf(
		shape.Min(1, p("author"), shape.TrueShape()),
		shape.Neg(shape.DisjID(base+"p")),
	)
	str := s.String()
	for _, want := range []string{"≥1", "author", "¬disj(id"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestMentionedProperties(t *testing.T) {
	s := shape.AndOf(
		shape.Min(1, paths.SeqOf(p("a"), p("b")), shape.TrueShape()),
		shape.EqID(base+"c"),
		shape.ClosedShape(base+"d"),
	)
	props := shape.MentionedProperties(s)
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, ok := props[base+name]; !ok {
			t.Errorf("missing property %q in %v", name, props)
		}
	}
	if len(props) != 4 {
		t.Errorf("got %d properties, want 4: %v", len(props), props)
	}
}

func TestShapeRefs(t *testing.T) {
	s := shape.AndOf(shape.Ref(iri("S1")), shape.Neg(shape.Ref(iri("S2"))), shape.Ref(iri("S1")))
	refs := shape.ShapeRefs(s)
	if len(refs) != 2 {
		t.Errorf("ShapeRefs = %v, want S1 and S2 once each", refs)
	}
}

func TestEvaluatorMemoization(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:b ex:p ex:c .`)
	ev := shape.NewEvaluator(g, nil)
	phi := shape.Min(1, p("p"), shape.TrueShape())
	ev.ConformsTerm(iri("a"), phi)
	checks := ev.Checks
	ev.ConformsTerm(iri("a"), phi)
	if ev.Checks != checks {
		t.Error("repeated evaluation must hit the cache")
	}
}

func TestAndOrFlattening(t *testing.T) {
	a := shape.Value(iri("a"))
	b := shape.Value(iri("b"))
	c := shape.Value(iri("c"))
	flat := shape.AndOf(shape.AndOf(a, b), c)
	and, ok := flat.(*shape.And)
	if !ok || len(and.Xs) != 3 {
		t.Errorf("AndOf must flatten: %s", flat)
	}
	if shape.AndOf(a).String() != a.String() {
		t.Error("singleton AndOf must collapse")
	}
	if _, ok := shape.AndOf().(*shape.True); !ok {
		t.Error("empty AndOf is ⊤")
	}
	if _, ok := shape.OrOf().(*shape.False); !ok {
		t.Error("empty OrOf is ⊥")
	}
	or, ok := shape.OrOf(shape.OrOf(a, b), c).(*shape.Or)
	if !ok || len(or.Xs) != 3 {
		t.Error("OrOf must flatten")
	}
}
