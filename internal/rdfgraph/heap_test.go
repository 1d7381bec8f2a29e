package rdfgraph_test

import (
	"runtime"
	"testing"

	"shaclfrag/internal/datagen"
)

// TestGraphHeapPerTriple gates the store's footprint: the live heap a
// built Tyrol(4 000) holds — its dictionary, its two node indexes and its
// posting lists — per triple. It held 450 B a triple while every row of
// the node indexes was a map of predicate to a map of neighbors; with rows
// as sorted (predicate, neighbor) chunks it holds 209–211 B, and the bound
// is that plus a tenth.
func TestGraphHeapPerTriple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 4000, Seed: 1})
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTriple := float64(after.HeapAlloc-before.HeapAlloc) / float64(g.Len())
	runtime.KeepAlive(g)
	const bound = 232
	t.Logf("Tyrol(4 000): %d triples, %.0f B a triple live (bound %d)", g.Len(), perTriple, bound)
	if perTriple > bound {
		t.Errorf("Tyrol(4 000) holds %.0f B a triple, bound %d", perTriple, bound)
	}
}
