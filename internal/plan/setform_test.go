package plan_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// rowCounter is a Reader that counts the reads of one predicate's index
// rows per node, Objects and Subjects alike, and every HasIDs lookup.
type rowCounter struct {
	rdfgraph.Reader
	pred   rdfgraph.ID
	rows   map[rdfgraph.ID]int
	hasIDs int
}

func (c *rowCounter) Objects(s, p rdfgraph.ID, fn func(o rdfgraph.ID)) {
	if p == c.pred {
		c.rows[s]++
	}
	c.Reader.Objects(s, p, fn)
}

func (c *rowCounter) Subjects(p, o rdfgraph.ID, fn func(s rdfgraph.ID)) {
	if p == c.pred {
		c.rows[o]++
	}
	c.Reader.Subjects(p, o, fn)
}

func (c *rowCounter) HasIDs(s, p, o rdfgraph.ID) bool {
	c.hasIDs++
	return c.Reader.HasIDs(s, p, o)
}

// TestAtomicQuantifierReadsRowOnce pins the work of a one-unit request
// whose shape quantifies over a bare property: decide scans each focus's
// p-row once for all foci, and collect adds the edges from what it
// recorded, with no second scan and no lookup of an edge it already read.
// The class target τ is an automaton slot over rdf:type, so it reads no
// p-row. Each fragment is the AST walker's.
func TestAtomicQuantifierReadsRowOnce(t *testing.T) {
	p, r := shapetest.IRI("p"), shapetest.IRI("r")
	class := shapetest.IRI("C")
	g := rdfgraph.New()
	node := func(kind string, i int) rdf.Term { return shapetest.IRI(fmt.Sprint(kind, i)) }
	for i := 0; i < 60; i++ {
		g.Add(rdf.T(node("s", i), rdf.NewIRI(rdf.RDFType), class))
		for k := 0; k < i%4; k++ {
			g.Add(rdf.T(node("s", i), p, node("o", (i+k)%11)))
		}
	}
	for j := 0; j < 11; j += 2 {
		g.Add(rdf.T(node("o", j), r, node("s", j)))
	}
	g.Freeze()
	tau := schema.TargetClass(class)
	for _, phi := range []shape.Shape{
		shape.All(paths.P(p.Value), shape.Min(1, paths.P(r.Value), shape.TrueShape())),
		shape.Min(2, paths.P(p.Value), shape.TrueShape()),
	} {
		request := shape.AndOf(phi, tau)
		var all []rdfgraph.ID
		foci := shape.NewEvaluator(g, nil).FocusNodes(shape.NNF(request), &all)
		want := rdfgraph.NewIDTripleSet()
		x := core.NewExtractor(g, nil)
		visited := make(map[core.VisitKey]struct{})
		for _, v := range foci {
			x.NeighborhoodInto(v, request, want, visited)
		}

		c := &rowCounter{Reader: g, pred: g.LookupTerm(p), rows: make(map[rdfgraph.ID]int)}
		b := plan.Compile(request, nil).Bind(c)
		got := rdfgraph.NewIDTripleSet()
		b.CollectAllInto(foci, got)
		b.Release()
		if w := want.Sorted(g.Dict()); len(w) == 0 || !slices.Equal(got.Sorted(g.Dict()), w) {
			t.Fatalf("%s: %d triples, the AST walker %d", request, got.Len(), want.Len())
		}
		if len(foci) < 40 || len(c.rows) != len(foci) {
			t.Errorf("%s: p-rows of %d nodes read over %d foci, want every focus's and no other", request, len(c.rows), len(foci))
		}
		for _, v := range foci {
			if n := c.rows[v]; n != 1 {
				t.Errorf("%s: p-row of %s read %d times, want 1", request, g.Term(v), n)
			}
		}
		if c.hasIDs != 0 {
			t.Errorf("%s: %d HasIDs lookups, want none", request, c.hasIDs)
		}
	}
}

// TestEmitsBitSound checks Compile's Emits bit against Table 2 on random
// shapes — setShapes' and shapetest's — over random graphs: every
// instruction whose bit is false has an empty neighborhood on the AST
// walker at every node, so no node set's union has a triple collect would
// lose by not descending into it. It also checks that some instruction of
// the corpus does emit, so that the check is not vacuous.
func TestEmitsBitSound(t *testing.T) {
	silent, emitting := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := shapetest.RandomGraph(rng, 40+rng.Intn(60))
		g.Freeze()
		x := core.NewExtractor(g, nil)
		shapes := append(setShapes(rng), shapetest.RandomShape(rng, 3), shapetest.RandomShape(rng, 2))
		for _, phi := range shapes {
			prog := plan.Compile(phi, nil)
			for k, in := range prog.Instrs {
				if in.Emits {
					emitting++
					continue
				}
				silent++
				union := rdfgraph.NewIDTripleSet()
				visited := make(map[core.VisitKey]struct{})
				for _, v := range g.NodeIDs() {
					x.NeighborhoodInto(v, in.Shape, union, visited)
				}
				if union.Len() != 0 {
					t.Fatalf("seed %d: instruction %d (%s) of %s does not emit, but the AST walker gives %d triples",
						seed, k, in.Op, phi, union.Len())
				}
			}
		}
	}
	if silent == 0 || emitting == 0 {
		t.Fatalf("%d instructions emit and %d do not: the corpus must have both", emitting, silent)
	}
}
