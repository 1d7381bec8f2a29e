package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/turtle"
)

// assertParallelParity checks FragmentParallel against Fragment for
// byte-identical canonical N-Triples output, at 1, 2 and 4 workers and on
// both the mutable and the frozen graph.
func assertParallelParity(t *testing.T, g *rdfgraph.Graph, defs shape.Defs, requests []shape.Shape) {
	t.Helper()
	want := turtle.FormatNTriples(core.NewExtractor(g, defs).Fragment(requests))
	check := func(g *rdfgraph.Graph, label string) {
		for _, workers := range []int{1, 2, 4} {
			got, err := core.NewExtractor(g, defs).FragmentParallel(requests, core.ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			if s := turtle.FormatNTriples(got); s != want {
				t.Errorf("%s workers=%d: output differs from serial Fragment (%d vs %d bytes)",
					label, workers, len(s), len(want))
			}
		}
	}
	check(g, "mutable")
	g.Freeze()
	check(g, "frozen")
}

func TestFragmentParallelParityTyrol(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 7})
	defs := datagen.BenchmarkShapes()
	h := schema.MustNew(defs...)
	assertParallelParity(t, g, h, core.SchemaRequests(h))
}

func TestFragmentParallelParityCoauthor(t *testing.T) {
	corpus := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: 200, Seed: 7})
	g := corpus.Graph(corpus.YearMin())
	assertParallelParity(t, g, nil, []shape.Shape{datagen.HubDistance3Shape()})
}

func TestSchemaRequestsShape(t *testing.T) {
	defs := datagen.BenchmarkShapes()[:6]
	h := schema.MustNew(defs...)
	requests := core.SchemaRequests(h)
	if len(requests) != len(defs) {
		t.Fatalf("SchemaRequests returned %d shapes for %d definitions", len(requests), len(defs))
	}
	// Each request is φ ∧ τ for its definition, in definition order.
	for i, r := range requests {
		want := shape.AndOf(defs[i].Shape, defs[i].Target)
		if r.String() != want.String() {
			t.Errorf("request %d = %s, want %s", i, r, want)
		}
	}
	// FragmentSchema must be Fragment over exactly these requests.
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 3})
	viaSchema := turtle.FormatNTriples(core.NewExtractor(g, h).FragmentSchema(h))
	viaRequests := turtle.FormatNTriples(core.NewExtractor(g, h).Fragment(requests))
	if viaSchema != viaRequests {
		t.Error("FragmentSchema and Fragment(SchemaRequests) disagree")
	}
	parallel, err := core.NewExtractor(g, h).FragmentParallel(requests, core.ParallelOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if turtle.FormatNTriples(parallel) != viaSchema {
		t.Error("FragmentParallel(SchemaRequests) disagrees with FragmentSchema")
	}
}

func TestFragmentParallelCancelled(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 100, Seed: 1})
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: extraction must abort, not compute
	for _, workers := range []int{1, 4} {
		_, err := core.NewExtractor(g, h).FragmentParallel(
			core.SchemaRequests(h), core.ParallelOptions{Workers: workers, Ctx: ctx})
		if err == nil {
			t.Errorf("workers=%d: expected context error from cancelled extraction", workers)
		}
	}
}

// cancelOnEdge is a reader that runs cancel, once, from inside the first
// forward-index callback it serves, and counts in after the callbacks it
// serves from then on.
type cancelOnEdge struct {
	rdfgraph.Reader
	cancel *atomic.Pointer[context.CancelFunc]
	after  *atomic.Int64
}

func (r cancelOnEdge) Objects(s, p rdfgraph.ID, fn func(rdfgraph.ID)) {
	r.Reader.Objects(s, p, func(o rdfgraph.ID) {
		if cancel := r.cancel.Swap(nil); cancel != nil {
			(*cancel)()
		} else {
			r.after.Add(1)
		}
		fn(o)
	})
}

// TestFragmentParallelStopsMidSearch: a context that ends while a path
// search runs stops that search, on both scheduling paths, instead of
// waiting for the work unit (the request's focus set) to end. The graph is
// 4 000 disjoint p-rings of 10 nodes, so the plan's one source-set search
// over the foci is tens of thousands of product states. The error is the
// context's, and the graph callbacks served after the cancel stay under a
// quarter of one share's: the searches polled the context instead of
// finishing the unit.
func TestFragmentParallelStopsMidSearch(t *testing.T) {
	const ns = "http://ring.example/"
	const rings, size = 4000, 10
	g := rdfgraph.New()
	node := func(r, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%sr%dn%d", ns, r, i%size)) }
	for r := 0; r < rings; r++ {
		for i := 0; i < size; i++ {
			g.Add(rdf.T(node(r, i), rdf.NewIRI(ns+"p"), node(r, i+1)))
		}
	}
	g.Freeze()
	star := paths.Star{X: paths.P(ns + "p")}
	phi := shape.Min(1, paths.Seq{Left: star, Right: star}, &shape.True{})
	for _, workers := range []int{1, 2} {
		opts := core.ParallelOptions{Workers: workers}
		var unarmed atomic.Pointer[context.CancelFunc]
		var full atomic.Int64
		if _, err := core.NewExtractor(cancelOnEdge{g, &unarmed, &full}, nil).FragmentParallel([]shape.Shape{phi}, opts); err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var hook atomic.Pointer[context.CancelFunc]
		hook.Store(&cancel)
		var after atomic.Int64
		opts.Ctx = ctx
		_, err := core.NewExtractor(cancelOnEdge{g, &hook, &after}, nil).FragmentParallel([]shape.Shape{phi}, opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, context.Canceled)
		}
		if share := full.Load() / int64(workers); after.Load() >= share/4 {
			t.Errorf("workers=%d: %d callbacks served after the cancel, a share is %d: a worker ran its unit to the end",
				workers, after.Load(), share)
		}
		cancel()
	}
}

func TestFragmentParallelEmpty(t *testing.T) {
	g := rdfgraph.New()
	ts, err := core.NewExtractor(g, nil).FragmentParallel(nil, core.ParallelOptions{Workers: 4})
	if err != nil || len(ts) != 0 {
		t.Fatalf("empty fragment: got %d triples, err %v", len(ts), err)
	}
}

// TestNeighborhoodCacheEviction pins the budget and the second-chance
// sweep: with no hits in between, entries leave in insertion order; an
// entry hit since the sweep last passed it survives the next eviction, and
// the oldest unhit entry goes instead.
func TestNeighborhoodCacheEviction(t *testing.T) {
	c := core.NewNeighborhoodCache(10)
	phi := shape.TrueShape()
	triple := func(i int) []rdfgraph.IDTriple {
		return []rdfgraph.IDTriple{{S: rdfgraph.ID(i), P: 0, O: 0}}
	}
	for i := 0; i < 20; i++ {
		c.Put(0, rdfgraph.ID(i), phi, triple(i))
	}
	st := c.Stats()
	if st.Triples > 10 {
		t.Errorf("cache exceeded its budget: %d triples cached", st.Triples)
	}
	if _, ok := c.Get(0, 0, phi); ok {
		t.Error("oldest entry should have been evicted")
	}
	if ts, ok := c.Get(0, 19, phi); !ok || len(ts) != 1 || ts[0].S != 19 {
		t.Error("newest entry missing or wrong")
	}
	// Oversized neighborhoods are passed through uncached.
	big := make([]rdfgraph.IDTriple, 11)
	c.Put(0, 100, phi, big)
	if _, ok := c.Get(0, 100, phi); ok {
		t.Error("entry larger than the whole budget must not be cached")
	}
	// Distinct shapes are distinct keys; empty neighborhoods are cached.
	phi2 := shape.FalseShape()
	c.Put(0, 19, phi2, nil)
	if ts, ok := c.Get(0, 19, phi2); !ok || len(ts) != 0 {
		t.Error("empty neighborhood for second shape not cached independently")
	}
	// Nodes 11..19 remain under phi, 11 the oldest. A hit gives it a second
	// chance: the next eviction passes it and takes 12.
	if _, ok := c.Get(0, 11, phi); !ok {
		t.Fatal("node 11 should still be cached")
	}
	c.Put(0, 30, phi, triple(30))
	if _, ok := c.Get(0, 11, phi); !ok {
		t.Error("an entry hit since the sweep last passed it was evicted")
	}
	for v, want := range map[rdfgraph.ID]bool{12: false, 13: true, 30: true} {
		if _, ok := c.Get(0, v, phi); ok != want {
			t.Errorf("node %d cached = %v after the sweep, want %v", v, ok, want)
		}
	}
}

func TestNeighborhoodCacheConcurrent(t *testing.T) {
	c := core.NewNeighborhoodCache(1000)
	shapes := []shape.Shape{shape.TrueShape(), shape.FalseShape()}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := rdfgraph.ID(i % 50)
				phi := shapes[i%2]
				if ts, ok := c.Get(0, v, phi); ok {
					if len(ts) != 1 || ts[0].S != v {
						t.Errorf("corrupt cache entry for node %d", v)
						return
					}
					continue
				}
				c.Put(0, v, phi, []rdfgraph.IDTriple{{S: v}})
			}
		}(w)
	}
	wg.Wait()
}

func TestNeighborhoodIDsCached(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 40, Seed: 2})
	h := schema.MustNew(datagen.BenchmarkShapes()[:4]...)
	g.Freeze()
	x := core.NewExtractor(g, h)
	cache := core.NewNeighborhoodCache(1 << 16)
	phi := h.Definitions()[0].Shape
	for _, v := range g.NodeIDs()[:10] {
		first := x.NeighborhoodIDsCached(cache, 0, v, phi)
		second := x.NeighborhoodIDsCached(cache, 0, v, phi)
		if len(first) != len(second) {
			t.Fatalf("cached result differs for node %d", v)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Error("expected cache hits on repeated neighborhood requests")
	}
}

// TestFragmentFrozenGraph pins down that serial extraction is read-only on
// the graph: a frozen graph (which panics on any dictionary write) must
// serve Fragment and WhyNot without incident.
func TestFragmentFrozenGraph(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 80, Seed: 5})
	defs := datagen.BenchmarkShapes()
	h := schema.MustNew(defs...)
	want := turtle.FormatNTriples(core.NewExtractor(g, h).FragmentSchema(h))
	g.Freeze()
	got := turtle.FormatNTriples(core.NewExtractor(g, h).FragmentSchema(h))
	if got != want {
		t.Error("fragment changed after freezing the graph")
	}
	// Why-not provenance exercises the negated-atom rows of Table 2.
	report := h.Validate(g)
	x := core.NewExtractor(g, h)
	byName := map[string]schema.Definition{}
	for _, d := range defs {
		byName[d.Name.Value] = d
	}
	for i, v := range report.Violations() {
		if i >= 25 {
			break
		}
		d := byName[v.ShapeName.Value]
		x.WhyNot(v.Focus, shape.AndOf(d.Shape, d.Target)) // must not panic
	}
	// A focus term the graph has never seen has an empty neighborhood.
	ghost := core.Neighborhood(g, h, rdf.NewIRI("http://example.org/ghost-node"), defs[0].Shape)
	if len(ghost) != 0 {
		t.Errorf("unseen focus node produced %d triples", len(ghost))
	}
}
