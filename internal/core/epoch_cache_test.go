package core_test

import (
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
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
