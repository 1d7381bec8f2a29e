package plan_test

import (
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// epochTriples is graph A of TestBoundReuseAcrossEpochs. n0 has two p/p
// values, n2 and n4, and a q-value; w has p alone, so it is closed over
// {p, q, r} at A and after an r-triple is added.
func epochTriples() []rdf.Triple {
	n := shapetest.IRI
	p, q := n("p"), n("q")
	return []rdf.Triple{
		{S: n("n0"), P: p, O: n("n1")},
		{S: n("n1"), P: p, O: n("n2")},
		{S: n("n0"), P: p, O: n("n3")},
		{S: n("n3"), P: p, O: n("n4")},
		{S: n("n0"), P: q, O: n("n5")},
		{S: n("n1"), P: q, O: n("n5")},
		{S: n("w"), P: p, O: n("n1")},
	}
}

// TestBoundReuseAcrossEpochs binds one Program on graph A, extracts and
// releases, then binds it on graph B and checks the fragment against a
// freshly compiled program and the AST walker. Each program reads what a
// stale bind would get wrong: ≥2 over an automaton slot answers from the
// evaluator's memo, a conjunction from the memo rows, and r and the
// constant c are not in A's dictionary. B is A after
//
//   - a delete-only delta, which empties n0's second p/p value;
//   - an add interning r, read by an atomic slot, an automaton slot and a
//     closed-allowed list;
//   - an add interning c, a hasValue constant;
//
// each applied in place to an unfrozen A (one dictionary, which grows for
// the two adds) and as a copy-on-write epoch of a frozen A (a dictionary of
// its own). A last B is a graph of A's triples added in reverse order: a
// different dictionary of A's length, whose IDs are not A's.
func TestBoundReuseAcrossEpochs(t *testing.T) {
	n := shapetest.IRI
	p, q, r := shapetest.Base+"p", shapetest.Base+"q", shapetest.Base+"r"
	c := rdf.NewString("c")
	programs := []shape.Shape{
		shape.AndOf(shape.Min(2, paths.SeqOf(paths.P(p), paths.P(p)), &shape.True{}), shape.Min(1, paths.P(q), &shape.True{})),
		shape.Min(1, paths.P(r), &shape.True{}),
		shape.Min(1, paths.SeqOf(paths.P(p), paths.P(r)), &shape.True{}),
		shape.AndOf(shape.ClosedShape(p, q, r), shape.Min(1, paths.P(p), &shape.True{})),
		shape.Min(1, paths.P(q), &shape.HasValue{C: c}),
	}
	deltas := []struct {
		name     string
		add, del []rdf.Triple
	}{
		{"delete-only", nil, []rdf.Triple{{S: n("n3"), P: rdf.NewIRI(p), O: n("n4")}}},
		{"new-predicate", []rdf.Triple{{S: n("n1"), P: rdf.NewIRI(r), O: n("n2")}, {S: n("w"), P: rdf.NewIRI(r), O: n("n2")}}, nil},
		{"new-constant", []rdf.Triple{{S: n("n1"), P: rdf.NewIRI(q), O: c}}, nil},
	}
	graph := func(ts []rdf.Triple) *rdfgraph.Graph {
		g := rdfgraph.New()
		for _, t := range ts {
			g.Add(t)
		}
		return g
	}
	apply := func(g *rdfgraph.Graph, add, del []rdf.Triple) {
		for _, tr := range del {
			if !g.Remove(tr) {
				t.Fatalf("the delta deletes %s, which is absent", tr)
			}
		}
		for _, tr := range add {
			g.Add(tr)
		}
	}
	type epochs struct {
		name string
		a, b func() rdfgraph.Reader
	}
	var cases []epochs
	for _, d := range deltas {
		var inPlace *rdfgraph.Graph
		cases = append(cases, epochs{d.name + "/in-place",
			func() rdfgraph.Reader { inPlace = graph(epochTriples()); return inPlace },
			func() rdfgraph.Reader { apply(inPlace, d.add, d.del); return inPlace }})
		var frozen *rdfgraph.Graph
		cases = append(cases, epochs{d.name + "/copy-on-write",
			func() rdfgraph.Reader { frozen = graph(epochTriples()); frozen.Freeze(); return frozen },
			func() rdfgraph.Reader {
				b := frozen.CloneCOW()
				apply(b, d.add, d.del)
				b.Freeze()
				return b
			}})
	}
	cases = append(cases, epochs{"same-length-dictionary",
		func() rdfgraph.Reader { return graph(epochTriples()) },
		func() rdfgraph.Reader {
			ts := epochTriples()
			slices.Reverse(ts)
			return graph(ts)
		}})

	fragment := func(b *plan.Bound) []rdfgraph.IDTriple {
		out := rdfgraph.NewIDTripleSet()
		b.CollectAllInto(b.Graph().NodeIDs(), out)
		return out.Sorted(b.Graph().Dict())
	}
	for _, tc := range cases {
		for k, phi := range programs {
			prog := plan.Compile(phi, nil)
			ga := tc.a()
			ba := prog.Bind(ga)
			fragment(ba)
			ba.Release()

			gb := tc.b()
			if tc.name == "same-length-dictionary" {
				if gb.Dict().Len() != ga.Dict().Len() || gb.LookupTerm(rdf.NewIRI(q)) == ga.LookupTerm(rdf.NewIRI(q)) {
					t.Fatal("the reversed graph does not renumber A's dictionary at its length")
				}
			}
			bb := prog.Bind(gb)
			got := fragment(bb)
			bb.Release()
			fresh := plan.Compile(phi, nil).Bind(gb)
			want := fragment(fresh)
			ast := core.Fragment(gb, nil, phi)
			if !slices.Equal(gb.Dict().DecodeTriples(want), ast) {
				t.Fatalf("%s, program %d: a fresh program extracts %d triples, the AST walker %d", tc.name, k, len(want), len(ast))
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, program %d (%s): rebound on B, %v; fresh, %v", tc.name, k, phi, gb.Dict().DecodeTriples(got), gb.Dict().DecodeTriples(want))
			}
		}
	}
}
