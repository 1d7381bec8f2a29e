package plan_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// tripleKeys canonicalizes a triple list for set comparison.
func tripleKeys(ts []rdf.Triple) map[string]struct{} {
	out := make(map[string]struct{}, len(ts))
	for _, t := range ts {
		out[t.S.String()+" "+t.P.String()+" "+t.O.String()] = struct{}{}
	}
	return out
}

// TestConformanceParityRandom checks that plan-based conformance agrees
// with the AST evaluator on random graphs × random shapes, for every node.
func TestConformanceParityRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := shapetest.RandomGraph(rng, 40+rng.Intn(80))
		phi := shapetest.RandomShape(rng, 3)
		g.Freeze()

		ev := shape.NewEvaluator(g, nil)
		prog := plan.Compile(phi, nil)
		b := prog.Bind(g)
		for _, v := range g.NodeIDs() {
			want := ev.Conforms(v, phi)
			got := b.ConformsRoot(v)
			if got != want {
				t.Fatalf("seed %d: node %s: plan=%v ast=%v for %s",
					seed, g.Term(v), got, want, phi)
			}
		}
	}
}

// TestExtractionParityRandom checks Table 2 byte parity on random inputs:
// the plan extractor and core.Extractor must produce identical neighborhood
// triple sets for every node.
func TestExtractionParityRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := shapetest.RandomGraph(rng, 40+rng.Intn(80))
		phi := shapetest.RandomShape(rng, 3)
		g.Freeze()

		x := core.NewExtractor(g, nil)
		b := plan.Compile(phi, nil).Bind(g)
		for _, v := range g.NodeIDs() {
			astOut := rdfgraph.NewIDTripleSet()
			x.NeighborhoodInto(v, phi, astOut, make(map[core.VisitKey]struct{}))

			b.ResetVisited()
			planOut := rdfgraph.NewIDTripleSet()
			b.CollectInto(v, planOut)

			want := astOut.Triples(g.Dict())
			got := planOut.Triples(g.Dict())
			if len(want) != len(got) {
				t.Fatalf("seed %d node %s: plan %d triples, ast %d, shape %s",
					seed, g.Term(v), len(got), len(want), phi)
			}
			wk, gk := tripleKeys(want), tripleKeys(got)
			for k := range wk {
				if _, ok := gk[k]; !ok {
					t.Fatalf("seed %d node %s: ast triple %s missing from plan output (shape %s)",
						seed, g.Term(v), k, phi)
				}
			}
		}
	}
}

// setShapes are the shapes the set form of Table 2 has a case of its own
// for, over a path e that is never atomic: each quantifier at each count,
// nested quantifiers sharing e's slot, a conjunct that rejects a source the
// path accepts — a random one, and one that rejects the ≥1 E.ψ conformers
// without a p-edge, so collect cannot read back the search decide ran over
// them all — and every pair constraint, bare and negated, under a
// quantifier that hands it a set of foci.
func setShapes(rng *rand.Rand) []shape.Shape {
	e := paths.Star{X: shapetest.RandomPath(rng, 2)}
	p, q := shapetest.Base+"p", shapetest.Base+"q"
	psi := shapetest.RandomShape(rng, 1)
	out := []shape.Shape{
		shape.Min(1, e, psi), shape.Min(2, e, psi), shape.Max(0, e, psi), shape.Max(2, e, psi), shape.All(e, psi),
		shape.Min(1, e, shape.Min(1, e, psi)),
		shape.Min(1, e, shape.Max(1, e, shape.Min(1, e, psi))),
		shape.AndOf(shape.Min(1, e, psi), shapetest.RandomShape(rng, 1)),
		shape.AndOf(shape.Min(1, e, psi), shape.Min(1, paths.P(p), &shape.True{})),
		shape.OrOf(shape.Min(1, e, shape.Value(shapetest.IRI("a"))), shape.All(e, psi)),
	}
	for _, pair := range []shape.Shape{
		shape.EqPath(e, p), shape.EqID(p), shape.DisjPath(e, p), shape.DisjID(p), shape.UniqueLangShape(e),
		shape.Less(e, q), shape.LessEq(e, q), shape.More(e, q), shape.MoreEq(e, q),
	} {
		out = append(out, shape.Min(1, e, pair), shape.All(e, shape.Neg(pair)))
	}
	return append(out, shapetest.RandomShape(rng, 3))
}

// TestCollectAllParityRandom checks the set form of Table 2 against its two
// definitions on random graphs: CollectAllInto(S) is the union over S of
// CollectInto(v), which is the AST walker's — for S all of N(G) and a random
// part of it — and the conformance the set search memoized is the AST's.
// The same Bound then goes on as a server's and live's do, so that collect
// meets searches decide ran over other sets than its foci: a second
// CollectAllInto over a set overlapping S, whose conformers already visited
// sit among the sources decided, and per-focus units split by ResetVisited,
// over sources decided as one set. Each is the AST walker's too.
func TestCollectAllParityRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := shapetest.RandomGraph(rng, 40+rng.Intn(60))
		g.Freeze()
		nodes := g.NodeIDs()
		part := slices.Clone(nodes)
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		part = part[:1+rng.Intn(len(part))]
		for _, phi := range setShapes(rng) {
			prog := plan.Compile(phi, nil)
			for _, S := range [][]rdfgraph.ID{nodes, part} {
				x := core.NewExtractor(g, nil)
				set, each := prog.Bind(g), prog.Bind(g)
				want, got, union := rdfgraph.NewIDTripleSet(), rdfgraph.NewIDTripleSet(), rdfgraph.NewIDTripleSet()
				visited := make(map[core.VisitKey]struct{})
				for _, v := range S {
					x.NeighborhoodInto(v, phi, want, visited)
					each.CollectInto(v, union)
				}
				set.CollectAllInto(S, got)
				if w := want.Sorted(g.Dict()); !slices.Equal(got.Sorted(g.Dict()), w) || !slices.Equal(union.Sorted(g.Dict()), w) {
					t.Fatalf("seed %d: %s over %d of %d nodes: CollectAllInto %d triples, CollectInto each %d, ast %d",
						seed, phi, len(S), len(nodes), got.Len(), union.Len(), want.Len())
				}
				for _, v := range nodes {
					if set.ConformsRoot(v) != x.Evaluator().Conforms(v, phi) {
						t.Fatalf("seed %d: %s at %s: plan %v after the set call, ast %v", seed, phi, g.Term(v), set.ConformsRoot(v), !set.ConformsRoot(v))
					}
				}
				over := append(slices.Clone(part[:len(part)/2]), nodes[:len(nodes)/3]...)
				for _, v := range over {
					x.NeighborhoodInto(v, phi, want, visited)
				}
				set.CollectAllInto(over, got)
				if w := want.Sorted(g.Dict()); !slices.Equal(got.Sorted(g.Dict()), w) {
					t.Fatalf("seed %d: %s over %d then %d overlapping nodes: CollectAllInto %d triples, ast %d",
						seed, phi, len(S), len(over), got.Len(), want.Len())
				}
				for _, v := range S[:min(len(S), 12)] {
					want, got := rdfgraph.NewIDTripleSet(), rdfgraph.NewIDTripleSet()
					x.NeighborhoodInto(v, phi, want, make(map[core.VisitKey]struct{}))
					set.ResetVisited()
					set.CollectInto(v, got)
					if w := want.Sorted(g.Dict()); !slices.Equal(got.Sorted(g.Dict()), w) {
						t.Fatalf("seed %d: %s: B(%s) as its own unit after the set calls: plan %d triples, ast %d",
							seed, phi, g.Term(v), got.Len(), want.Len())
					}
				}
			}
		}
	}
}

// TestSchemaParityTyrol checks conformance and shared-visited fragment
// accumulation parity on the benchmark schema (hasShape references, paths,
// closed shapes) over the synthetic tourism graph.
func TestSchemaParityTyrol(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 300, Seed: 1})
	h := datagen.BenchmarkSchema()
	for _, d := range h.Definitions() {
		g.TermID(d.Name)
	}
	g.Freeze()

	for _, d := range h.Definitions() {
		request := shape.AndOf(d.Shape, d.Target)
		x := core.NewExtractor(g, h)
		b := plan.Compile(request, h).Bind(g)

		astOut := rdfgraph.NewIDTripleSet()
		visited := make(map[core.VisitKey]struct{})
		planOut := rdfgraph.NewIDTripleSet()
		for _, v := range g.NodeIDs() {
			want := x.Evaluator().Conforms(v, request)
			got := b.ConformsRoot(v)
			if got != want {
				t.Fatalf("%s: node %s: plan=%v ast=%v", d.Name, g.Term(v), got, want)
			}
			x.NeighborhoodInto(v, request, astOut, visited)
			b.CollectInto(v, planOut)
		}
		want := astOut.Triples(g.Dict())
		got := planOut.Triples(g.Dict())
		if len(want) != len(got) {
			t.Fatalf("%s: fragment sizes differ: plan %d, ast %d", d.Name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: fragment triple %d differs: plan %v, ast %v", d.Name, i, got[i], want[i])
			}
		}
	}
}

// TestResetVisitedIsolation checks that per-node units after ResetVisited
// match fresh-extractor output (the neighborhood-cache granularity).
func TestResetVisitedIsolation(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 2})
	h := datagen.BenchmarkSchema()
	g.Freeze()
	d := h.Definitions()[0]
	request := shape.AndOf(d.Shape, d.Target)
	b := plan.Compile(request, h).Bind(g)

	nodes := g.NodeIDs()
	if len(nodes) > 50 {
		nodes = nodes[:50]
	}
	for _, v := range nodes {
		x := core.NewExtractor(g, h)
		astOut := rdfgraph.NewIDTripleSet()
		x.NeighborhoodInto(v, request, astOut, make(map[core.VisitKey]struct{}))

		b.ResetVisited()
		planOut := rdfgraph.NewIDTripleSet()
		b.CollectInto(v, planOut)

		want := astOut.Triples(g.Dict())
		got := planOut.Triples(g.Dict())
		if len(want) != len(got) {
			t.Fatalf("node %s: plan %d triples, ast %d", g.Term(v), len(got), len(want))
		}
	}
}

// TestCompileDedup checks that shared sub-shapes compile to shared
// instructions: a conjunction repeating one sub-shape twice must not emit
// it twice.
func TestCompileDedup(t *testing.T) {
	a := shape.Min(1, paths.P(shapetest.Base+"knows"), shape.TrueShape())
	b := shape.Min(1, paths.P(shapetest.Base+"knows"), shape.TrueShape())
	phi := shape.AndOf(a, shape.OrOf(b, shape.FalseShape()))
	prog := plan.Compile(phi, nil)
	// a and b are distinct AST nodes with identical structure: one OpMin.
	minCount := 0
	for _, in := range prog.Instrs {
		if in.Op == plan.OpMin {
			minCount++
		}
	}
	if minCount != 1 {
		t.Fatalf("structural dedup failed: %d OpMin instructions\n%s", minCount, prog)
	}
}

// TestProgramStringStable pins basic disassembly properties.
func TestProgramStringStable(t *testing.T) {
	h := datagen.BenchmarkSchema()
	d := h.Definitions()[0]
	prog := plan.Compile(shape.AndOf(d.Shape, d.Target), h)
	s1 := prog.String()
	s2 := plan.Compile(shape.AndOf(d.Shape, d.Target), h).String()
	if s1 != s2 {
		t.Fatalf("disassembly not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	if prog.NumInstrs() == 0 {
		t.Fatal("empty program for benchmark shape")
	}
}

// TestUndefinedRefBehavesAsTrue mirrors evaluation's undefined-name rule.
func TestUndefinedRefBehavesAsTrue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := shapetest.RandomGraph(rng, 50)
	g.Freeze()
	phi := shape.Ref(rdf.NewIRI("http://example.org/undefined"))
	ev := shape.NewEvaluator(g, emptyDefs{})
	b := plan.Compile(phi, emptyDefs{}).Bind(g)
	for _, v := range g.NodeIDs() {
		if got, want := b.ConformsRoot(v), ev.Conforms(v, phi); got != want {
			t.Fatalf("node %s: plan=%v ast=%v", g.Term(v), got, want)
		}
	}
}

type emptyDefs struct{}

func (emptyDefs) Def(rdf.Term) (shape.Shape, bool) { return nil, false }

// TestVisitedGenerationWrap runs isolated units on one Bound, as live's
// materialization does, over a focus list in which every focus comes back
// one generation period (255 units) later. A visited stamp that outlived the
// wrap of ResetVisited's 8-bit generation would read as visited then and
// drop the second unit's neighborhood.
func TestVisitedGenerationWrap(t *testing.T) {
	const period = 255
	p, q := rdf.NewIRI(shapetest.Base+"p"), rdf.NewIRI(shapetest.Base+"q")
	g := rdfgraph.New()
	for i := 0; i < period; i++ {
		s, o := rdf.NewIRI(fmt.Sprintf("%ss%d", shapetest.Base, i)), rdf.NewIRI(fmt.Sprintf("%so%d", shapetest.Base, i))
		g.Add(rdf.T(s, p, o))
		g.Add(rdf.T(o, q, s))
	}
	g.Freeze()
	var nodes []rdfgraph.ID
	for k := 0; k < 2*period; k++ {
		nodes = append(nodes, g.LookupTerm(rdf.NewIRI(fmt.Sprintf("%ss%d", shapetest.Base, k%period))))
	}
	phi := shape.Min(1, paths.P(p.Value), shape.Min(1, paths.P(q.Value), shape.TrueShape()))
	units := func(prog *plan.Program) [][]rdfgraph.IDTriple {
		var out [][]rdfgraph.IDTriple
		err := core.NewExtractor(g, nil).Neighborhoods(phi, prog, nodes, func(ts []rdfgraph.IDTriple) {
			u := slices.Clone(ts)
			rdfgraph.SortIDTriples(g.Dict(), u)
			out = append(out, u)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := units(nil), units(plan.Compile(phi, nil))
	if len(got) != len(nodes) || len(want) != len(nodes) {
		t.Fatalf("%d plan units and %d AST units for %d foci", len(got), len(want), len(nodes))
	}
	for k := range nodes {
		if len(want[k]) != 2 {
			t.Fatalf("fixture: unit %d has %d triples, want 2", k, len(want[k]))
		}
		if !slices.Equal(got[k], want[k]) {
			t.Fatalf("unit %d, focus %s: plan %d triples, AST %d", k, g.Term(nodes[k]), len(got[k]), len(want[k]))
		}
	}
}
