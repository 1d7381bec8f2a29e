package core_test

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// TestNeighborhoodsCachedMatchesPerShape: the batched lookup, whose misses
// run on compiled programs, returns what one NeighborhoodIDsCached call per
// shape on the AST walker returns, and moves the hit and miss counters
// exactly as those calls do — from cold (every shape misses once), half
// warm, and fully warm.
func TestNeighborhoodsCachedMatchesPerShape(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 3})
	h := datagen.BenchmarkSchema()
	var shapes []shape.Shape
	var progs []*plan.Program
	for _, d := range h.Definitions() {
		shapes = append(shapes, d.Shape)
		progs = append(progs, plan.Compile(d.Shape, h))
	}
	perShape, batched := core.NewNeighborhoodCache(0), core.NewNeighborhoodCache(0)
	cols := batched.Columns(shapes)
	x := core.NewExtractor(g, h)
	nodes := g.NodeIDs()
	for pass := 0; pass < 3; pass++ {
		for _, v := range nodes[:40] {
			ss, ps := shapes, progs
			if pass == 0 {
				// Leave the rest cold for pass 1.
				ss, ps = shapes[:len(shapes)/2], progs[:len(shapes)/2]
			}
			var want []rdfgraph.IDTriple
			for _, phi := range ss {
				want = append(want, x.NeighborhoodIDsCached(perShape, 1, v, phi)...)
			}
			got, err := core.NeighborhoodsCached(context.Background(), batched, g, 1, v, ps, cols[:len(ps)], nil)
			if err != nil {
				t.Fatal(err)
			}
			// A miss lists its set in map order: compare as multisets.
			byID := func(a, b rdfgraph.IDTriple) int {
				return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
			}
			slices.SortFunc(got, byID)
			slices.SortFunc(want, byID)
			if !slices.Equal(got, want) {
				t.Fatalf("pass %d node %d: batched %v, per shape %v", pass, v, got, want)
			}
		}
		if a, b := perShape.Stats(), batched.Stats(); a != b {
			t.Fatalf("pass %d: counters diverge: per shape %+v, batched %+v", pass, a, b)
		}
	}
	if s := batched.Stats(); s.Misses == 0 || s.Hits <= s.Misses {
		t.Fatalf("test exercised too little: %+v", s)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.NeighborhoodsCached(ctx, batched, g, 1, nodes[0], progs, cols, nil); err == nil {
		t.Error("a cancelled context must stop even a fully cached lookup")
	}
}
