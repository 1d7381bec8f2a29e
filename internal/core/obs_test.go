package core_test

import (
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// TestCacheEvictionAccounting pins the new eviction and byte counters:
// every eviction increments Evictions by one entry and EvictedTriples by
// that entry's triple count, and Bytes tracks current occupancy.
func TestCacheEvictionAccounting(t *testing.T) {
	c := core.NewNeighborhoodCache(10)
	phi := shape.TrueShape()
	triples := func(node, n int) []rdfgraph.IDTriple {
		out := make([]rdfgraph.IDTriple, n)
		for i := range out {
			out[i] = rdfgraph.IDTriple{S: rdfgraph.ID(node), P: rdfgraph.ID(i)}
		}
		return out
	}
	// Fill to exactly budget: 2 entries × 5 triples.
	c.Put(0, 1, phi, triples(1, 5))
	c.Put(0, 2, phi, triples(2, 5))
	st := c.Stats()
	if st.Evictions != 0 || st.EvictedTriples != 0 {
		t.Fatalf("no evictions expected yet: %+v", st)
	}
	if st.Triples != 10 || st.Bytes != 10*12 {
		t.Errorf("occupancy: got %d triples / %d bytes, want 10 / 120", st.Triples, st.Bytes)
	}
	// A 6-triple entry must evict both unhit entries (5+5 → room for 6).
	c.Put(0, 3, phi, triples(3, 6))
	st = c.Stats()
	if st.Evictions != 2 || st.EvictedTriples != 10 {
		t.Errorf("evictions: got %d entries / %d triples, want 2 / 10", st.Evictions, st.EvictedTriples)
	}
	if st.Entries != 1 || st.Triples != 6 {
		t.Errorf("post-eviction occupancy: %+v", st)
	}
	// Hit/miss bookkeeping stays coherent with the evictions.
	if _, ok := c.Get(0, 1, phi); ok {
		t.Error("evicted entry still served")
	}
	if _, ok := c.Get(0, 3, phi); !ok {
		t.Error("surviving entry lost")
	}
	st = c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hit/miss after eviction round: got %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestFragmentParallelSpans checks the span tree a sampled extraction
// grows: request-level attributes, the nnf and merge stages, and the bind
// and plan-exec accumulators with the unit count on the span handed down —
// at one worker as at two and four, since all run the same unit loop, on
// plans compiled for the call when none are passed; all without changing
// the extracted fragment.
func TestFragmentParallelSpans(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 3})
	h := schema.MustNew(datagen.BenchmarkShapes()[:4]...)
	requests := core.SchemaRequests(h)
	g.Freeze()
	want := core.NewExtractor(g, h).Fragment(requests)

	childByName := func(sp *obs.Span, name string) *obs.Span {
		for _, c := range sp.Children() {
			if c.Name() == name {
				return c
			}
		}
		return nil
	}
	attrInt := func(sp *obs.Span, key string) (int64, bool) {
		for _, a := range sp.Attrs() {
			if a.Key == key && a.IsInt {
				return a.Int, true
			}
		}
		return 0, false
	}

	for _, workers := range []int{1, 2, 4} {
		trace := obs.NewSpanTrace("extract-test", obs.SpanContext{})
		got, err := core.NewExtractor(g, h).FragmentParallel(requests, core.ParallelOptions{
			Workers: workers,
			Span:    trace.Root(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("workers=%d: span threading changed the fragment (%d vs %d triples)",
				workers, len(got), len(want))
		}
		root := trace.Root()
		if w, ok := attrInt(root, "workers"); !ok || w != int64(workers) {
			t.Errorf("workers=%d: workers attr = %d/%v", workers, w, ok)
		}
		if n, ok := attrInt(root, "nodes"); !ok || n == 0 {
			t.Errorf("workers=%d: nodes attr = %d/%v", workers, n, ok)
		}
		if n, ok := attrInt(root, "instructions"); !ok || n <= 0 {
			t.Errorf("workers=%d: instructions attr = %d/%v", workers, n, ok)
		}
		for _, name := range []string{"nnf", "bind", "plan-exec", "merge"} {
			if childByName(root, name) == nil {
				t.Errorf("workers=%d: no %s child span; tree:\n%s", workers, name, treeOf(trace))
			}
		}
		if u, _ := attrInt(root, "units"); u == 0 {
			t.Errorf("workers=%d: no work units counted", workers)
		}
	}
}

func treeOf(trace *obs.SpanTrace) string {
	var b strings.Builder
	trace.WriteTree(&b)
	return b.String()
}

// TestFragmentParallelTracer checks that extraction records its nnf and
// merge sub-stages as children of the span it is handed — the spans the
// server reads its stage timings from — at one worker and at four, without
// changing the extracted fragment.
func TestFragmentParallelTracer(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 3})
	h := schema.MustNew(datagen.BenchmarkShapes()[:4]...)
	g.Freeze()
	want, err := core.NewExtractor(g, h).FragmentParallel(
		core.SchemaRequests(h), core.ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		// As the server hands it down: the request's extract stage.
		trace := obs.NewSpanTrace("extract-test", obs.SpanContext{})
		extract := trace.Root().StartChild("extract")
		got, err := core.NewExtractor(g, h).FragmentParallel(
			core.SchemaRequests(h), core.ParallelOptions{Workers: workers, Span: extract})
		extract.End()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("workers=%d: tracing changed the fragment (%d vs %d triples)",
				workers, len(got), len(want))
		}
		stages := make(map[string]bool)
		for _, s := range obs.Stages(nil, trace.Root(), []string{"extract", "nnf", "merge"}) {
			stages[s.Name] = s.Dur > 0
		}
		if !stages["nnf"] {
			t.Errorf("workers=%d: nnf stage not traced; tree:\n%s", workers, treeOf(trace))
		}
		if !stages["merge"] {
			t.Errorf("workers=%d: merge stage not traced; tree:\n%s", workers, treeOf(trace))
		}
	}
}

// TestHubRequestSearchesOnce pins a one-definition request to one unit of
// work and one product search, whatever the worker count: the paper's
// Figure 3 hub shape, whose foci reach nearly the same product states, is
// decided and collected by a single search from all of them, on the plans
// the server compiles. Split across workers, each part would search again.
func TestHubRequestSearchesOnce(t *testing.T) {
	g := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: 250, Seed: 1}).Graph(2014)
	h := schema.MustNew(schema.Definition{
		Name:   rdf.NewIRI(datagen.NS + "shape/Hub"),
		Shape:  datagen.HubDistance3Shape(),
		Target: schema.TargetObjectsOf(datagen.PropAuthoredBy),
	})
	g.Freeze()
	requests := core.SchemaRequests(h)
	want := core.NewExtractor(g, h).Fragment(requests)
	plans := plan.CompileAll(requests, h)
	for _, workers := range []int{1, 2, 4} {
		trace := obs.NewSpanTrace("hub-test", obs.SpanContext{})
		got, nodes, err := core.FragmentParallelIDs(g, h, requests, core.ParallelOptions{
			Workers: workers,
			Plans:   plans,
			Span:    trace.Root(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if nodes < 2 || len(got) != len(want) {
			t.Fatalf("workers=%d: %d triples from %d foci, want %d from at least 2", workers, len(got), nodes, len(want))
		}
		attrs := make(map[string]int64)
		for _, a := range trace.Root().Attrs() {
			attrs[a.Key] = a.Int
		}
		if attrs["units"] != 1 || attrs["searches"] != 1 {
			t.Errorf("workers=%d: %d units and %d product searches over %d foci, want 1 and 1; tree:\n%s",
				workers, attrs["units"], attrs["searches"], nodes, treeOf(trace))
		}
	}
}
