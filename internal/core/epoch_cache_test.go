package core_test

import (
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

// TestNeighborhoodCacheEpochIsolation pins the epoch dimension of the key:
// an entry stored at one epoch is invisible to every other epoch.
func TestNeighborhoodCacheEpochIsolation(t *testing.T) {
	c := core.NewNeighborhoodCache(100)
	phi := shape.TrueShape()
	ts := []rdfgraph.IDTriple{{S: 1, P: 2, O: 3}}
	c.Put(1, 7, phi, ts)
	if _, ok := c.Get(2, 7, phi); ok {
		t.Fatal("epoch 2 served an epoch 1 entry")
	}
	if got, ok := c.Get(1, 7, phi); !ok || len(got) != 1 {
		t.Fatal("epoch 1 entry lost")
	}
}

// TestNeighborhoodCacheEvictBelow: EvictBelow drops exactly the entries of
// older epochs and counts them as stale.
func TestNeighborhoodCacheEvictBelow(t *testing.T) {
	c := core.NewNeighborhoodCache(1000)
	phi, psi := shape.TrueShape(), shape.FalseShape()
	entry := func(v rdfgraph.ID) []rdfgraph.IDTriple {
		return []rdfgraph.IDTriple{{S: v, P: 0, O: 0}}
	}
	// Epoch 1: nodes 1..4 under phi, node 1 under psi too; epoch 2: nodes
	// 2 and 4 under phi.
	for v := rdfgraph.ID(1); v <= 4; v++ {
		c.Put(1, v, phi, entry(v))
	}
	c.Put(1, 1, psi, entry(1))
	c.Put(2, 2, phi, entry(2))
	c.Put(2, 4, phi, entry(4))

	entries, triples := c.EvictBelow(2)
	if entries != 5 || triples != 5 {
		t.Fatalf("EvictBelow removed %d entries / %d triples, want 5 / 5", entries, triples)
	}
	if _, ok := c.Get(1, 2, phi); ok {
		t.Error("stale epoch entry survived EvictBelow")
	}
	if _, ok := c.Get(2, 2, phi); !ok {
		t.Error("current epoch entry removed by EvictBelow")
	}

	st := c.Stats()
	if st.StaleEvictions != 5 || st.StaleTriples != 5 {
		t.Errorf("stale counters = %d/%d, want 5/5", st.StaleEvictions, st.StaleTriples)
	}
	if st.Entries != 2 || st.Triples != 2 {
		t.Errorf("occupancy after evict = %+v, want 2 entries / 2 triples", st)
	}
}

// TestNeighborhoodCacheInvalidate pins the epoch ranges Invalidate keeps:
// an entry the delta cannot reach stays valid at the next epoch in place,
// one it reaches — or one of a shape SetFootprints does not track — stays
// valid only up to the epoch it was closed at, transitions apply in epoch
// order whatever order they arrive in, a Put computed below the newest
// applied transition caches nothing, and EvictBelow drops an entry once
// its range ended below the floor.
func TestNeighborhoodCacheInvalidate(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	tr := func(s, p, o string) rdf.Triple { return rdf.T(iri(s), iri(p), iri(o)) }
	st, err := store.New(rdfgraph.FromTriples([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c"), tr("c", "q", "d")}), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	phi := shape.Min(1, paths.P("http://ex/p"), shape.TrueShape()) // reads Objects(v, p)
	psi := shape.Min(1, paths.P("http://ex/q"), shape.TrueShape())
	untracked := shape.ClosedShape()
	c := core.NewNeighborhoodCache(100)
	c.SetFootprints([]shape.Shape{phi, psi}, nil)
	c.SetEpoch(1)
	id := func(s string) rdfgraph.ID { return st.Current().Reader().LookupTerm(iri(s)) }
	a, b, cc, d := id("a"), id("b"), id("c"), id("d")
	entry := []rdfgraph.IDTriple{{S: a}}
	for _, v := range []rdfgraph.ID{a, b, cc} {
		c.Put(1, v, phi, entry)
	}
	c.Put(1, a, psi, entry)
	c.Put(1, a, untracked, entry)
	hit := func(epoch uint64, v rdfgraph.ID, s shape.Shape) bool {
		_, ok := c.Get(epoch, v, s)
		return ok
	}
	apply := func(add ...rdf.Triple) (store.ApplyResult, rdfgraph.Delta) {
		d := rdfgraph.Delta{Add: add}
		return st.Apply(d), d
	}
	invalidate := func(res store.ApplyResult, d rdfgraph.Delta) (int, int) {
		kept, inv, err := c.Invalidate(res.Prev, res.Base.Reader(), res.Snapshot.Reader(), d)
		if err != nil {
			t.Fatal(err)
		}
		return kept, inv
	}

	if kept, inv := invalidate(apply(tr("b", "p", "x"))); kept != 3 || inv != 2 {
		t.Fatalf("1 → 2 kept %d, invalidated %d; want 3 and 2", kept, inv)
	}
	if !hit(2, a, phi) || !hit(2, a, psi) || hit(2, b, phi) || !hit(1, b, phi) || hit(2, a, untracked) {
		t.Fatal("after 1 → 2: want (a, φ) and (a, ψ) served at 2, (b, φ) and the untracked entry only at 1")
	}

	// 3 → 4 arrives before 2 → 3: held back, and epoch 3 is not served yet.
	res2, d2 := apply(tr("c", "r", "y")) // r: nothing reads it
	res3, d3 := apply(tr("a", "p", "w"), tr("c", "p", "w"))
	if kept, inv := invalidate(res3, d3); kept != 0 || inv != 0 {
		t.Fatalf("early 3 → 4 applied: kept %d, invalidated %d", kept, inv)
	}
	if hit(3, a, psi) {
		t.Fatal("epoch 3 served before the transition into it was applied")
	}
	if kept, inv := invalidate(res2, d2); kept != 1 || inv != 2 {
		t.Fatalf("2 → 3 → 4 kept %d, invalidated %d; want 1 and 2", kept, inv)
	}
	if c.Applied() != 4 || !hit(4, a, psi) || hit(4, a, phi) || !hit(3, cc, phi) {
		t.Fatal("after 3 → 4: want (a, ψ) served at 4, (a, φ) and (c, φ) only up to 3")
	}

	c.Put(2, d, phi, entry) // computed at 2, below the applied 4
	if hit(2, d, phi) {
		t.Fatal("an entry computed below the applied epoch was cached")
	}
	c.Put(4, a, phi, entry) // the newer entry of a closed key
	if !hit(4, a, phi) || !hit(3, a, phi) {
		t.Fatal("(a, φ) lost its epoch-4 entry or its epoch-1 one")
	}

	if n, _ := c.EvictBelow(3); n != 2 {
		t.Fatalf("EvictBelow(3) dropped %d entries, want the two closed at 1", n)
	}
	if n, _ := c.EvictBelow(4); n != 2 || hit(3, a, phi) || !hit(4, a, phi) {
		t.Fatalf("EvictBelow(4) dropped %d entries, want the two closed at 3", n)
	}
	if s := c.Stats(); s.Entries != 2 || s.Kept != 7 || s.Invalidated != 4 {
		t.Fatalf("stats %+v, want 2 entries, 3+3+1 kept, 2+0+2 invalidated", s)
	}
}
