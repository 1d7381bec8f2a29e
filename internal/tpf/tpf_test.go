package tpf_test

import (
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/tpf"
	"shaclfrag/internal/turtle"
)

func iri(s string) rdf.Term { return rdf.NewIRI(shapetest.Base + s) }

func TestPatternEval(t *testing.T) {
	g, err := turtle.Parse(`
@prefix ex: <http://test/> .
ex:a ex:p ex:b .
ex:a ex:p ex:a .
ex:a ex:q ex:b .
ex:c ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pattern tpf.Pattern
		want    int
	}{
		{tpf.Pattern{S: tpf.V("x"), P: tpf.C(iri("p")), O: tpf.V("y")}, 3},
		{tpf.Pattern{S: tpf.V("x"), P: tpf.C(iri("p")), O: tpf.C(iri("b"))}, 2},
		{tpf.Pattern{S: tpf.C(iri("a")), P: tpf.C(iri("p")), O: tpf.V("x")}, 2},
		{tpf.Pattern{S: tpf.C(iri("a")), P: tpf.C(iri("p")), O: tpf.C(iri("b"))}, 1},
		{tpf.Pattern{S: tpf.V("x"), P: tpf.C(iri("p")), O: tpf.V("x")}, 1},
		{tpf.Pattern{S: tpf.V("x"), P: tpf.V("y"), O: tpf.V("z")}, 4},
		{tpf.Pattern{S: tpf.C(iri("a")), P: tpf.V("y"), O: tpf.V("z")}, 3},
		{tpf.Pattern{S: tpf.V("x"), P: tpf.V("y"), O: tpf.V("x")}, 1},
	}
	for _, c := range cases {
		if got := c.pattern.Eval(g); len(got) != c.want {
			t.Errorf("%s matched %d triples, want %d: %v", c.pattern, len(got), c.want, got)
		}
	}
}

// Property (Proposition 6.2, positive direction): for each expressible TPF
// form, the fragment of the request shape equals the TPF on random graphs.
func TestExpressibleFormsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	patterns := []tpf.Pattern{
		{S: tpf.V("x"), P: tpf.C(iri("p")), O: tpf.V("y")},
		{S: tpf.V("x"), P: tpf.C(iri("p")), O: tpf.C(iri("b"))},
		{S: tpf.C(iri("a")), P: tpf.C(iri("p")), O: tpf.V("x")},
		{S: tpf.C(iri("a")), P: tpf.C(iri("p")), O: tpf.C(iri("b"))},
		{S: tpf.V("x"), P: tpf.C(iri("p")), O: tpf.V("x")},
		{S: tpf.V("x"), P: tpf.V("y"), O: tpf.V("z")},
		{S: tpf.C(iri("a")), P: tpf.V("y"), O: tpf.V("z")},
	}
	for trial := 0; trial < 40; trial++ {
		g := shapetest.RandomGraph(rng, 12)
		for _, pattern := range patterns {
			phi, ok := pattern.RequestShape()
			if !ok {
				t.Fatalf("%s must be expressible", pattern)
			}
			want := pattern.Eval(g)
			got := core.Fragment(g, nil, phi)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s via %s:\nfragment %v\nTPF %v\ngraph:\n%s",
					trial, pattern, phi, got, want, turtle.FormatGraph(g))
			}
			wantSet := make(map[rdf.Triple]bool, len(want))
			for _, tr := range want {
				wantSet[tr] = true
			}
			for _, tr := range got {
				if !wantSet[tr] {
					t.Fatalf("trial %d: %s via %s: extra triple %v", trial, pattern, phi, tr)
				}
			}
		}
	}
}

func TestInexpressibleForms(t *testing.T) {
	// The Appendix D table of inexpressible TPFs.
	inexpressible := []tpf.Pattern{
		{S: tpf.V("x"), P: tpf.V("y"), O: tpf.V("x")},
		{S: tpf.V("x"), P: tpf.V("y"), O: tpf.V("y")},
		{S: tpf.V("x"), P: tpf.V("x"), O: tpf.V("x")},
		{S: tpf.V("x"), P: tpf.V("x"), O: tpf.V("y")},
		{S: tpf.V("x"), P: tpf.V("y"), O: tpf.C(iri("c"))},
		{S: tpf.V("x"), P: tpf.V("x"), O: tpf.C(iri("c"))},
		{S: tpf.C(iri("c")), P: tpf.V("x"), O: tpf.V("x")},
		{S: tpf.C(iri("c")), P: tpf.V("x"), O: tpf.C(iri("d"))},
	}
	for _, pattern := range inexpressible {
		if phi, ok := pattern.RequestShape(); ok {
			t.Errorf("%s must not be expressible, got %s", pattern, phi)
		}
	}
	// Literal or blank predicates are invalid patterns.
	if _, ok := (tpf.Pattern{S: tpf.V("x"), P: tpf.C(rdf.NewString("p")), O: tpf.V("y")}).RequestShape(); ok {
		t.Error("literal predicate must not be expressible")
	}
}

// Lemma D.1 is the engine of the inexpressibility proofs: if a fragment
// contains a triple whose property is not mentioned in φ, it contains all
// the focus node's triples over unmentioned properties. We verify it on
// the Appendix D counterexample graph for (?x, ?x, ?y).
func TestLemmaD1Counterexample(t *testing.T) {
	g, err := turtle.Parse(`
@prefix ex: <http://test/> .
ex:a ex:a ex:b .
ex:a ex:c ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	// The TPF (?x,?x,?y) selects only (a,a,b).
	q := tpf.Pattern{S: tpf.V("x"), P: tpf.V("x"), O: tpf.V("y")}
	if got := q.Eval(g); len(got) != 1 {
		t.Fatalf("TPF = %v, want only the self-property triple", got)
	}
	// Any shape not mentioning a or c either captures both triples or
	// neither — here we spot-check the canonical candidate ¬closed(∅).
	phi, ok := tpf.Pattern{S: tpf.V("x"), P: tpf.V("y"), O: tpf.V("z")}.RequestShape()
	if !ok {
		t.Fatal("full-scan pattern must be expressible")
	}
	frag := core.Fragment(g, nil, phi)
	if len(frag) != 2 {
		t.Fatalf("¬closed(∅) fragment = %v, want both triples", frag)
	}
}

// TestEvalAgreesWithMatches: Eval decides on dictionary IDs what Matches
// decides on terms. Every assignment of {constant, unknown constant, ?x,
// ?y, ?z} to the three positions must select exactly the triples Matches
// accepts, in canonical order.
func TestEvalAgreesWithMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	choices := func(known rdf.Term) []tpf.Pos {
		return []tpf.Pos{tpf.C(known), tpf.C(iri("nowhere")), tpf.V("x"), tpf.V("y"), tpf.V("z")}
	}
	for trial := 0; trial < 20; trial++ {
		g := shapetest.RandomGraph(rng, 15)
		all := g.Triples()
		pick := all[rng.Intn(len(all))]
		for _, s := range choices(pick.S) {
			for _, p := range choices(pick.P) {
				for _, o := range choices(pick.O) {
					pattern := tpf.Pattern{S: s, P: p, O: o}
					var want []rdf.Triple
					for _, tr := range all { // all is in canonical order
						if pattern.Matches(tr) {
							want = append(want, tr)
						}
					}
					if got := pattern.Eval(g); !slices.Equal(got, want) {
						t.Fatalf("trial %d: %s selected %v, Matches selects %v", trial, pattern, got, want)
					}
				}
			}
		}
	}
}
