package core_test

import (
	"fmt"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
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
	// A 6-triple entry must evict both LRU entries (5+5 → room for 6).
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
// grows: request-level attributes, exec-breakdown children on the flat
// and serial paths, and per-shard accumulator spans (with unit counts
// summing to the total) on the scatter-gather path — all without
// changing the extracted fragment.
func TestFragmentParallelSpans(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 3})
	h := schema.MustNew(datagen.BenchmarkShapes()[:4]...)
	requests := core.SchemaRequests(h)
	st, err := store.New(g, store.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := st.Current().Reader()
	want, err := core.NewExtractor(r, h).FragmentParallel(requests, core.ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

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

	for _, workers := range []int{1, 4} {
		trace := obs.NewSpanTrace("extract-test", obs.SpanContext{})
		got, err := core.NewExtractor(r, h).FragmentParallel(requests, core.ParallelOptions{
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
		if w, ok := attrInt(root, "workers"); !ok || (workers == 4 && w != 4) {
			t.Errorf("workers=%d: workers attr = %d/%v", workers, w, ok)
		}
		if n, ok := attrInt(root, "nodes"); !ok || n == 0 {
			t.Errorf("workers=%d: nodes attr = %d/%v", workers, n, ok)
		}
		if childByName(root, "nnf") == nil {
			t.Errorf("workers=%d: no nnf child span", workers)
		}
		exec := childByName(root, "ast-exec")
		if workers > 1 {
			// Sharded reader + >1 worker: scatter-gather with shard spans.
			var unitTotal, rootUnits int64
			for i := 0; i < 3; i++ {
				sh := childByName(root, fmt.Sprintf("shard[%d]", i))
				if sh == nil {
					t.Fatalf("workers=%d: missing shard[%d] span; tree:\n%s", workers, i, treeOf(trace))
				}
				if sh.Duration() <= 0 {
					t.Errorf("shard[%d] accumulated no time", i)
				}
				u, _ := attrInt(sh, "units")
				unitTotal += u
				if childByName(sh, "ast-exec") == nil {
					t.Errorf("shard[%d] has no exec breakdown child", i)
				}
			}
			if unitTotal == 0 {
				t.Error("per-shard unit counts sum to zero")
			}
			rootUnits, _ = attrInt(root, "shards")
			if rootUnits != 3 {
				t.Errorf("shards attr = %d, want 3", rootUnits)
			}
			if childByName(root, "scatter") == nil || childByName(root, "gather") == nil {
				t.Errorf("workers=%d: scatter/gather spans missing; tree:\n%s", workers, treeOf(trace))
			}
		} else if exec == nil {
			t.Errorf("workers=1: no ast-exec child; tree:\n%s", treeOf(trace))
		}
	}

	// Compiled plans + cache: bind child and memo_resets attr appear.
	sp := plan.PlanSchema(h, store.SampleStats(st.Current()), plan.Config{})
	trace := obs.NewSpanTrace("extract-test", obs.SpanContext{})
	_, err = core.NewExtractor(r, h).FragmentParallel(requests, core.ParallelOptions{
		Workers: 2,
		Plans:   sp.ProgramSet(),
		Cache:   core.NewNeighborhoodCache(1 << 20),
		Span:    trace.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	root := trace.Root()
	if childByName(root, "bind") == nil {
		t.Errorf("planned extraction has no bind span; tree:\n%s", treeOf(trace))
	}
	if n, ok := attrInt(root, "instructions"); !ok || n <= 0 {
		t.Errorf("instructions attr = %d/%v", n, ok)
	}
	if n, ok := attrInt(root, "memo_resets"); !ok || n <= 0 {
		t.Errorf("memo_resets attr = %d/%v (cache mode isolates per-node units)", n, ok)
	}
}

func treeOf(trace *obs.SpanTrace) string {
	var b strings.Builder
	trace.WriteTree(&b)
	return b.String()
}

// TestFragmentParallelTracer checks that extraction records its nnf and
// merge sub-stages as children of the span it is handed — the spans the
// server reads its stage timings from — for both the parallel and the
// serial path (which unions nothing), without changing the extracted
// fragment.
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
		if workers > 1 && !stages["merge"] {
			t.Errorf("workers=%d: merge stage not traced; tree:\n%s", workers, treeOf(trace))
		}
	}
}
