package core_test

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// TestNeighborhoodCacheAliases pins the containment-sharing contract:
// once an alias table maps a request shape to a representative, both Get
// and Put are re-keyed to the representative, translated hits are
// counted separately, and clearing the table restores identity keying.
func TestNeighborhoodCacheAliases(t *testing.T) {
	c := core.NewNeighborhoodCache(100)
	// Two structurally identical but pointer-distinct request shapes
	// (zero-size shapes like ⊤ can share an allocation, so use ∧-nodes
	// built directly — the smart constructors collapse singleton ∧).
	rep := shape.Shape(&shape.And{Xs: []shape.Shape{shape.TrueShape()}})
	alias := shape.Shape(&shape.And{Xs: []shape.Shape{shape.TrueShape()}})
	ts := []rdfgraph.IDTriple{{S: 1, P: 2, O: 3}}

	// Without aliases the shapes are distinct keys.
	c.Put(0, 7, rep, ts)
	if _, ok := c.Get(0, 7, alias); ok {
		t.Fatal("distinct shape pointers must miss without an alias table")
	}

	c.SetAliases(map[shape.Shape]shape.Shape{alias: rep})
	if got, ok := c.Get(0, 7, alias); !ok || len(got) != 1 {
		t.Fatal("aliased request must be served from the representative's entry")
	}
	if s := c.Stats(); s.AliasHits != 1 {
		t.Fatalf("AliasHits = %d, want 1", s.AliasHits)
	}
	// A direct hit on the representative does not count as an alias hit.
	if _, ok := c.Get(0, 7, rep); !ok {
		t.Fatal("representative entry lost")
	}
	if s := c.Stats(); s.AliasHits != 1 {
		t.Fatalf("AliasHits after direct hit = %d, want 1", s.AliasHits)
	}

	// Put through the alias lands on the representative key: one entry.
	c.Put(0, 8, alias, ts)
	if _, ok := c.Get(0, 8, rep); !ok {
		t.Fatal("Put through an alias must fill the representative's entry")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (no duplicate entries under aliasing)", c.Len())
	}

	// Clearing the table restores identity keying.
	c.SetAliases(nil)
	if _, ok := c.Get(0, 7, alias); ok {
		t.Fatal("cleared alias table must stop translating")
	}
}

// TestNeighborhoodsCachedMatchesPerShape: the batched lookup returns what
// one NeighborhoodIDsCached call per shape returns, and
// moves the hit, miss and alias-hit counters exactly as those calls do —
// from cold (every distinct representative misses once), half warm, and
// fully warm, with an alias table installed.
func TestNeighborhoodsCachedMatchesPerShape(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 60, Seed: 3})
	h := datagen.BenchmarkSchema()
	var shapes []shape.Shape
	for _, d := range h.Definitions() {
		shapes = append(shapes, d.Shape)
	}
	// Pretend every third shape is congruent to its predecessor.
	aliases := map[shape.Shape]shape.Shape{}
	for i := 2; i < len(shapes); i += 3 {
		aliases[shapes[i]] = shapes[i-1]
	}
	perShape, batched := core.NewNeighborhoodCache(0), core.NewNeighborhoodCache(0)
	perShape.SetAliases(aliases)
	batched.SetAliases(aliases)
	x := core.NewExtractor(g, h)
	nodes := g.NodeIDs()
	for pass := 0; pass < 3; pass++ {
		for _, v := range nodes[:40] {
			ss := shapes
			if pass == 0 {
				ss = shapes[:len(shapes)/2] // leave the rest cold for pass 1
			}
			var want []rdfgraph.IDTriple
			for _, phi := range ss {
				want = append(want, x.NeighborhoodIDsCached(perShape, 1, v, phi)...)
			}
			got, err := x.NeighborhoodsCached(context.Background(), batched, 1, v, ss, nil)
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
	if s := batched.Stats(); s.AliasHits == 0 || s.Misses == 0 || s.Hits <= s.Misses {
		t.Fatalf("test exercised too little: %+v", s)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.NeighborhoodsCached(ctx, batched, 1, nodes[0], shapes, nil); err == nil {
		t.Error("a cancelled context must stop even a fully cached lookup")
	}
}
