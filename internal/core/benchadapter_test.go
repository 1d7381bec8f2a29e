package core_test

import (
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// TestNeighborhoodCacheEvictBelow: the benchmark's EvictBelow drops exactly
// the entries not valid at any epoch from its floor on — with one entry per
// key, a Put at a newer epoch already replaced the one it supersedes.
func TestNeighborhoodCacheEvictBelow(t *testing.T) {
	c := core.NewNeighborhoodCache(1000)
	phi, psi := shape.TrueShape(), shape.FalseShape()
	entry := func(v rdfgraph.ID) []rdfgraph.IDTriple {
		return []rdfgraph.IDTriple{{S: v, P: 0, O: 0}}
	}
	// Epoch 1: nodes 1..4 under phi, node 1 under psi too; epoch 2: nodes
	// 2 and 4 under phi, replacing their epoch-1 entries.
	for v := rdfgraph.ID(1); v <= 4; v++ {
		c.Put(1, v, phi, entry(v))
	}
	c.Put(1, 1, psi, entry(1))
	c.Put(2, 2, phi, entry(2))
	c.Put(2, 4, phi, entry(4))
	if n := c.Len(); n != 5 {
		t.Fatalf("%d entries, want 5: a newer Put replaces its key's entry", n)
	}

	entries, triples := c.EvictBelow(2)
	if entries != 3 || triples != 3 {
		t.Fatalf("EvictBelow removed %d entries / %d triples, want 3 / 3", entries, triples)
	}
	if _, ok := c.Get(1, 1, phi); ok {
		t.Error("stale epoch entry survived EvictBelow")
	}
	if _, ok := c.Get(2, 2, phi); !ok {
		t.Error("current epoch entry removed by EvictBelow")
	}
	if st := c.Stats(); st.Entries != 2 || st.Triples != 2 {
		t.Errorf("occupancy after evict = %+v, want 2 entries / 2 triples", st)
	}

	// An entry stays valid up to the newest applied epoch.
	c.SetEpoch(3)
	if n, _ := c.EvictBelow(3); n != 0 {
		t.Fatalf("EvictBelow(3) dropped %d entries valid through the applied epoch 3", n)
	}
	if n, _ := c.EvictBelow(4); n != 2 || c.Len() != 0 {
		t.Fatalf("EvictBelow(4) dropped %d entries, want both", n)
	}
}
