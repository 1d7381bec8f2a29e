package core_test

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
	"shaclfrag/internal/store"
)

// readLog is a Reader that records every adjacency row and cell read
// through it: what one evaluation of (v, φ) depended on.
type readLog struct {
	rdfgraph.Reader
	rows       map[readRow]bool
	cells      map[rdfgraph.IDTriple]bool
	unanchored []string
}

// readRow is one index row: Objects(node, pred) ('o'), Subjects(pred, node)
// ('s'), PredicatesFrom(node) ('f') or PredicatesTo(node) ('t').
type readRow struct {
	node, pred rdfgraph.ID
	kind       byte
}

func newReadLog(g rdfgraph.Reader) *readLog {
	return &readLog{Reader: g, rows: map[readRow]bool{}, cells: map[rdfgraph.IDTriple]bool{}}
}

func (r *readLog) Objects(s, p rdfgraph.ID, fn func(rdfgraph.ID)) {
	r.rows[readRow{s, p, 'o'}] = true
	r.Reader.Objects(s, p, fn)
}

func (r *readLog) Subjects(p, o rdfgraph.ID, fn func(rdfgraph.ID)) {
	r.rows[readRow{o, p, 's'}] = true
	r.Reader.Subjects(p, o, fn)
}

func (r *readLog) PredicatesFrom(s rdfgraph.ID, fn func(p, o rdfgraph.ID)) {
	r.rows[readRow{s, 0, 'f'}] = true
	r.Reader.PredicatesFrom(s, fn)
}

func (r *readLog) PredicatesTo(o rdfgraph.ID, fn func(s, p rdfgraph.ID)) {
	r.rows[readRow{o, 0, 't'}] = true
	r.Reader.PredicatesTo(o, fn)
}

func (r *readLog) HasIDs(s, p, o rdfgraph.ID) bool {
	r.cells[rdfgraph.IDTriple{S: s, P: p, O: o}] = true
	return r.Reader.HasIDs(s, p, o)
}

func (r *readLog) EdgesByPredicate(p rdfgraph.ID) []rdfgraph.Edge {
	r.unanchored = append(r.unanchored, "EdgesByPredicate")
	return r.Reader.EdgesByPredicate(p)
}

func (r *readLog) EachTriple(fn func(s, p, o rdfgraph.ID)) {
	r.unanchored = append(r.unanchored, "EachTriple")
	r.Reader.EachTriple(fn)
}

func (r *readLog) NodeIDs() []rdfgraph.ID {
	r.unanchored = append(r.unanchored, "NodeIDs")
	return r.Reader.NodeIDs()
}

// changedBy reports a read row or cell that triple t changes, if any.
func (r *readLog) changedBy(t rdfgraph.IDTriple) (string, bool) {
	switch {
	case r.rows[readRow{t.S, t.P, 'o'}]:
		return "Objects(s, p)", true
	case r.rows[readRow{t.O, t.P, 's'}]:
		return "Subjects(p, o)", true
	case r.rows[readRow{t.S, 0, 'f'}]:
		return "PredicatesFrom(s)", true
	case r.rows[readRow{t.O, 0, 't'}]:
		return "PredicatesTo(o)", true
	case r.cells[t]:
		return "HasIDs(s, p, o)", true
	}
	return "", false
}

// typedTestGraph is a random graph over shapetest's universe made connected
// by a chain of p-edges and typed: every IRI node gets a class, and C1 is a
// subclass of C2.
func typedTestGraph(rng *rand.Rand) *rdfgraph.Graph {
	g := shapetest.RandomGraph(rng, 14)
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	typ := rdf.NewIRI(rdf.RDFType)
	for i, n := range nodes {
		if i > 0 {
			g.Add(rdf.T(shapetest.IRI(nodes[i-1]), shapetest.IRI("p"), shapetest.IRI(n)))
		}
		g.Add(rdf.T(shapetest.IRI(n), typ, shapetest.IRI(fmt.Sprintf("C%d", 1+rng.Intn(2)))))
	}
	g.Add(rdf.T(shapetest.IRI("C1"), rdf.NewIRI(rdf.RDFSSubClassOf), shapetest.IRI("C2")))
	return g
}

// randomTestDelta draws up to four effective changes: additions over the
// universe plus terms g has never seen — a fresh node, a fresh literal, a
// predicate no shape names — and deletions of present triples.
func randomTestDelta(rng *rand.Rand, g rdfgraph.Reader) rdfgraph.Delta {
	present := g.Triples()
	term := func() rdf.Term {
		switch rng.Intn(6) {
		case 0:
			return shapetest.IRI("fresh")
		case 1:
			return rdf.NewLangString("fresh", "en")
		case 2:
			return shapetest.IRI(fmt.Sprintf("C%d", 1+rng.Intn(2)))
		default:
			return shapetest.IRI([]string{"a", "b", "c", "d", "e", "f"}[rng.Intn(6)])
		}
	}
	preds := []rdf.Term{shapetest.IRI("p"), shapetest.IRI("q"), shapetest.IRI("r"), shapetest.IRI("unnamed"),
		rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf)}
	var d rdfgraph.Delta
	for n := 1 + rng.Intn(4); n > 0; n-- {
		if rng.Intn(3) == 0 && len(present) > 0 {
			d.Del = append(d.Del, present[rng.Intn(len(present))])
			continue
		}
		s := term()
		if s.IsLiteral() {
			s = shapetest.IRI("fresh")
		}
		d.Add = append(d.Add, rdf.T(s, preds[rng.Intn(len(preds))], term()))
	}
	return d
}

// footprintSchema draws two definitions, the second referencing the first,
// and the shapes under test: both definitions' request shapes (φ ∧ τ) and
// raw shapes, shapes reaching them through a path, and plain random shapes.
func footprintSchema(rng *rand.Rand) (*schema.Schema, []shape.Shape) {
	d1, d2 := shapetest.IRI("D1"), shapetest.IRI("D2")
	h := schema.MustNew(
		schema.Definition{Name: d1, Shape: shapetest.RandomShape(rng, 2), Target: schema.TargetClass(shapetest.IRI("C2"))},
		schema.Definition{Name: d2, Target: schema.TargetClass(shapetest.IRI("C1")),
			Shape: shape.OrOf(shapetest.RandomShape(rng, 2), shape.Min(1, shapetest.RandomPath(rng, 2), shape.Ref(d1)))},
	)
	shapes := core.SchemaRequests(h)
	for _, d := range h.Definitions() {
		shapes = append(shapes, d.Shape)
	}
	shapes = append(shapes,
		shape.All(shapetest.RandomPath(rng, 2), shape.Neg(shape.Ref(d2))),
		shape.Min(1, paths.Inv(shapetest.RandomPath(rng, 1)), shape.ClosedShape(shapetest.Base+"p", rdf.RDFType)),
		shapetest.RandomShape(rng, 3), shapetest.RandomShape(rng, 3))
	return h, shapes
}

// TestFootprintCoversReads is the soundness property of delta-anchored
// invalidation. For seeded random shapes over random connected, typed
// graphs and random deltas (unseen terms included), it records every
// adjacency read cold AST and compiled-plan extraction of each (v, φ)
// makes, and requires that every (v, φ) reading a row the delta changes
// is among the focus nodes the footprint walk finds from the delta (or
// that the walk gave up). Then, the point of it all: every (v, φ) the walk
// does not reach has a byte-identical neighborhood after the update.
func TestFootprintCoversReads(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	var reached, kept, wholes int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := typedTestGraph(rng)
		h, shapes := footprintSchema(rng)
		store.WarmDictionary(g, h)
		st, err := store.New(g, store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		old := st.Current().Reader()
		delta := randomTestDelta(rng, old)
		res := st.Apply(delta)
		if !res.Changed {
			continue
		}
		cur := res.Snapshot.Reader()
		var changes []rdfgraph.IDTriple
		for _, tr := range slices.Concat(delta.Add, delta.Del) {
			changes = append(changes, rdfgraph.IDTriple{S: cur.LookupTerm(tr.S), P: cur.LookupTerm(tr.P), O: cur.LookupTerm(tr.O)})
		}
		w := shape.NewFocusWalker(res.Base.Reader())
		for si, phi := range shapes {
			fp := shape.NewFootprint(phi, h)
			stale, whole := map[rdfgraph.ID]bool{}, false
			for i, tr := range slices.Concat(delta.Add, delta.Del) {
				if !fp.Reads(tr.P.Value) {
					continue
				}
				nodes, ok := w.Focuses(fp, changes[i].S, tr.P.Value, changes[i].O, nil)
				whole = whole || !ok
				for _, v := range nodes {
					stale[v] = true
				}
			}
			if whole {
				wholes++
				continue
			}
			prog := plan.Compile(phi, h)
			for _, v := range old.NodeIDs() {
				if stale[v] {
					reached++
					continue
				}
				kept++
				ast := newReadLog(old)
				core.NewExtractor(ast, h).NeighborhoodIDsCached(nil, 0, v, phi)
				compiled := newReadLog(old)
				b := prog.Bind(compiled)
				b.CollectInto(v, rdfgraph.NewIDTripleSet())
				b.Release()
				for engine, log := range map[string]*readLog{"AST": ast, "plan": compiled} {
					if len(log.unanchored) > 0 {
						t.Fatalf("seed %d, shape %d %s, node %s: %s evaluation made unanchored reads %v",
							seed, si, phi, old.Term(v), engine, log.unanchored)
					}
					for i, c := range changes {
						if row, hit := log.changedBy(c); hit {
							t.Fatalf("seed %d, shape %d %s: %s evaluation of node %s reads %s, which delta triple %s changes, but the footprint walk does not reach it",
								seed, si, phi, engine, old.Term(v), row, slices.Concat(delta.Add, delta.Del)[i])
						}
					}
				}
				before := core.NewExtractor(old, h).Neighborhood(old.Term(v), phi)
				after := core.NewExtractor(cur, h).Neighborhood(old.Term(v), phi)
				if !slices.Equal(before, after) {
					t.Fatalf("seed %d, shape %d %s: node %s is not reached from delta %+v, yet its neighborhood moved:\nbefore %v\nafter  %v",
						seed, si, phi, old.Term(v), delta, before, after)
				}
			}
		}
	}
	t.Logf("%d (node, shape) pairs reached by the walk, %d kept, %d shapes given up on", reached, kept, wholes)
	if reached == 0 || kept == 0 {
		t.Errorf("degenerate draw: %d reached, %d kept", reached, kept)
	}
}
