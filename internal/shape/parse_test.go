package shape_test

import (
	"math/rand"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

func TestParseBasicShapes(t *testing.T) {
	cases := []struct {
		src  string
		want string // expected String() rendering
	}{
		{"top", "⊤"},
		{"⊤", "⊤"},
		{"bot", "⊥"},
		{"hasValue(<http://x/a>)", "hasValue(<http://x/a>)"},
		{"hasValue(a)", "hasValue(<http://x/a>)"}, // base expansion
		{`hasValue("lit")`, `hasValue("lit")`},
		{`hasValue("hi"@en)`, `hasValue("hi"@en)`},
		{"hasValue(42)", `hasValue("42"^^<` + rdf.XSDInteger + `>)`},
		{"hasValue(true)", `hasValue("true"^^<` + rdf.XSDBoolean + `>)`},
		{"hasShape(<http://x/S>)", "hasShape(<http://x/S>)"},
		{"test(isIRI)", "test(isIRI)"},
		{"test(datatype(<http://x/dt>))", "test(datatype(<http://x/dt>))"},
		{"test(minLength(3))", "test(minLength(3))"},
		{"test(lang(en))", "test(lang(en))"},
		{`test(pattern("^a+$"))`, "test(pattern(^a+$))"},
		{"test(minExclusive(5))", `test(minExclusive("5"^^<` + rdf.XSDInteger + `>))`},
		{"eq(p, q)", "eq(<http://x/p>, <http://x/q>)"},
		{"eq(id, q)", "eq(id, <http://x/q>)"},
		{"disj(id, q)", "disj(id, <http://x/q>)"},
		{"closed(p, q)", "closed({<http://x/p>, <http://x/q>})"},
		{"closed()", "closed({})"},
		{"lessThan(p, q)", "lessThan(<http://x/p>, <http://x/q>)"},
		{"moreThanEq(p, q)", "moreThanEq(<http://x/p>, <http://x/q>)"},
		{"uniqueLang(p)", "uniqueLang(<http://x/p>)"},
		{">=1 p.top", "≥1 <http://x/p>.⊤"},
		{"≥2 p/q.⊤", "≥2 <http://x/p>/<http://x/q>.⊤"},
		{"<=0 p.bot", "≤0 <http://x/p>.⊥"},
		{"forall p.test(isIRI)", "∀<http://x/p>.test(isIRI)"},
		{"!top", "¬⊤"},
		{"top & bot", "⊤ ∧ ⊥"},
		{"top | bot", "⊤ ∨ ⊥"},
		{"!(top & bot)", "¬(⊤ ∧ ⊥)"},
		{">=1 p.(hasValue(a) | hasValue(b))", "≥1 <http://x/p>.(hasValue(<http://x/a>) ∨ hasValue(<http://x/b>))"},
		{">=1 (p|q)*.top", "≥1 (<http://x/p>|<http://x/q>)*.⊤"},
	}
	for _, c := range cases {
		got, err := shape.Parse(c.src, "http://x/")
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	s := shape.MustParse("hasValue(a) & hasValue(b) | hasValue(c)", "http://x/")
	or, ok := s.(*shape.Or)
	if !ok || len(or.Xs) != 2 {
		t.Fatalf("want (a∧b)∨c, got %s", s)
	}
	if _, ok := or.Xs[0].(*shape.And); !ok {
		t.Fatalf("∧ must bind tighter than ∨: %s", s)
	}
}

func TestParseErrorsShape(t *testing.T) {
	bad := []string{
		"", "nonsense", "hasValue()", "hasValue(a", ">=x p.top", ">=1 p top",
		"eq(p)", "test(unknown)", "top &", "(top", "hasValue(a) extra",
		`test(pattern("("))`, "<=1 p.", "eq(p, \"lit\")",
	}
	for _, src := range bad {
		if _, err := shape.Parse(src, "http://x/"); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

// Property: String() output of random shapes re-parses to a shape with the
// same rendering (full round trip through the textual syntax).
func TestParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		phi := shapetest.RandomShape(rng, 3)
		text := phi.String()
		back, err := shape.Parse(text, "")
		if err != nil {
			// hasShape over blank names and Test over AnyOf render in forms
			// the parser does not accept; skip those.
			if containsUnparseable(phi) {
				continue
			}
			t.Fatalf("trial %d: Parse(String(%s)): %v", trial, text, err)
		}
		if back.String() != text {
			t.Fatalf("trial %d: round trip changed shape:\n%s\nvs\n%s", trial, text, back)
		}
	}
}

func containsUnparseable(phi shape.Shape) bool {
	found := false
	shape.Walk(phi, func(s shape.Shape) {
		switch x := s.(type) {
		case *shape.Test:
			if _, ok := x.T.(shape.AnyOf); ok {
				found = true
			}
		case *shape.HasShape:
			if !x.Name.IsIRI() {
				found = true
			}
		}
	})
	return found
}

func TestMoreThanSemantics(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:high 9 ; ex:low 5 .
ex:b ex:high 5 ; ex:low 5 .
ex:c ex:high 3 ; ex:low 5 .
`)
	more := shape.More(p("high"), base+"low")
	moreEq := shape.MoreEq(p("high"), base+"low")
	if !conforms(t, g, "a", more) {
		t.Error("9 > 5 must conform to moreThan")
	}
	if conforms(t, g, "b", more) {
		t.Error("5 > 5 must fail moreThan")
	}
	if !conforms(t, g, "b", moreEq) {
		t.Error("5 >= 5 must conform to moreThanEq")
	}
	if conforms(t, g, "c", moreEq) {
		t.Error("3 >= 5 must fail moreThanEq")
	}
	// Remark 2.3: moreThan(E,p) is not equivalent to ¬lessThanEq(E,p) —
	// a node with no p-values satisfies both moreThan and lessThanEq.
	empty := mustGraph(t, `ex:x ex:other ex:y .`)
	if !conforms(t, empty, "x", more) {
		t.Error("moreThan holds vacuously")
	}
	if conforms(t, empty, "x", shape.Neg(shape.LessEq(p("high"), base+"low"))) {
		t.Error("¬lessThanEq fails vacuously — the two are inequivalent")
	}
}

func TestMoreThanNNF(t *testing.T) {
	m := shape.More(p("high"), base+"low")
	nnf := shape.NNF(shape.Neg(m))
	if !isNNF(nnf) {
		t.Fatalf("NNF(¬moreThan) = %s not NNF", nnf)
	}
	not, ok := nnf.(*shape.Not)
	if !ok {
		t.Fatalf("¬moreThan must stay a negated atom, got %s", nnf)
	}
	if _, ok := not.X.(*shape.MoreThan); !ok {
		t.Fatalf("inner atom wrong: %s", nnf)
	}
}
