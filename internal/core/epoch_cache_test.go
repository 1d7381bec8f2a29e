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

// TestNeighborhoodCacheInvalidate pins what Invalidate keeps: an entry the
// delta cannot reach stays valid at the next epoch in place, one it
// reaches — or one of a shape SetFootprints does not track — is removed, a
// Put computed below the newest applied transition caches nothing, and a
// transition that skips an epoch the cache never saw removes every entry.
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
	apply := func(add ...rdf.Triple) store.ApplyResult {
		return st.Apply(rdfgraph.Delta{Add: add})
	}
	invalidate := func(res store.ApplyResult) (int, int) {
		kept, inv, err := c.Invalidate(res.Prev, res.Base.Reader(), res.Snapshot.Reader(), res.Effective)
		if err != nil {
			t.Fatal(err)
		}
		return kept, inv
	}

	if kept, inv := invalidate(apply(tr("b", "p", "x"))); kept != 3 || inv != 2 {
		t.Fatalf("1 → 2 kept %d, invalidated %d; want 3 and 2", kept, inv)
	}
	if !hit(2, a, phi) || !hit(2, a, psi) || hit(2, b, phi) || hit(1, b, phi) || hit(2, a, untracked) {
		t.Fatal("after 1 → 2: want (a, φ) and (a, ψ) served at 2, (b, φ) and the untracked entry removed")
	}

	if kept, inv := invalidate(apply(tr("c", "r", "y"))); kept != 3 || inv != 0 { // r: nothing reads it
		t.Fatalf("2 → 3 kept %d, invalidated %d; want 3 and 0", kept, inv)
	}
	if kept, inv := invalidate(apply(tr("a", "p", "w"), tr("c", "p", "w"))); kept != 1 || inv != 2 {
		t.Fatalf("3 → 4 kept %d, invalidated %d; want 1 and 2", kept, inv)
	}
	if !hit(4, a, psi) || !hit(3, a, psi) || hit(4, a, phi) || hit(3, cc, phi) {
		t.Fatal("after 3 → 4: want (a, ψ) served at 3 and 4, (a, φ) and (c, φ) removed")
	}

	c.Put(2, d, phi, entry) // computed at 2, below the applied 4
	if hit(2, d, phi) {
		t.Fatal("an entry computed below the applied epoch was cached")
	}
	c.Put(4, a, phi, entry)
	if !hit(4, a, phi) || hit(3, a, phi) {
		t.Fatal("(a, φ) computed at 4 must be served at 4 only")
	}

	// Epoch 5 is published without its transition reaching the cache: it is
	// not served there, and the transition out of it removes every entry.
	apply(tr("d", "r", "z"))
	if hit(5, a, psi) || !hit(4, a, psi) {
		t.Fatal("epoch 5 served before any transition into it was applied")
	}
	if kept, inv := invalidate(apply(tr("d", "r", "zz"))); kept != 0 || inv != 2 {
		t.Fatalf("skipping 4 → 5, 5 → 6 kept %d, invalidated %d; want 0 and 2", kept, inv)
	}
	if hit(4, a, psi) || hit(6, a, psi) {
		t.Fatal("an entry survived a transition that skipped an epoch")
	}
	c.Put(6, a, phi, entry)
	if !hit(6, a, phi) {
		t.Fatal("the cache serves nothing after a skipped epoch")
	}
	if s := c.Stats(); s.Entries != 1 || s.Kept != 7 || s.Invalidated != 6 {
		t.Fatalf("stats %+v, want 1 entry, 3+3+1+0 kept, 2+0+2+2 invalidated", s)
	}
}
