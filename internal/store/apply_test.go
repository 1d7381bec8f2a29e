package store_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/store"
)

// inOneStore runs fn as the subtest "shards=1" with a builder of stores
// over given triples. The store holds its graph as one partition (the
// adopted graph, read directly), which is what the subtest name reports.
func inOneStore(t *testing.T, fn func(t *testing.T, from func(...rdf.Triple) store.Store)) {
	t.Run("shards=1", func(t *testing.T) {
		fn(t, func(triples ...rdf.Triple) store.Store {
			t.Helper()
			st, err := store.New(rdfgraph.FromTriples(triples), store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return st
		})
	})
}

func TestApplyAddDelete(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"), exTriple("c", "p", "d"))
		s1 := st.Current()
		if s1.Epoch() != 1 {
			t.Fatalf("initial epoch = %d, want 1", s1.Epoch())
		}
		res := st.Apply(rdfgraph.Delta{
			Add: []rdf.Triple{exTriple("a", "p", "e")},
			Del: []rdf.Triple{exTriple("c", "p", "d")},
		})
		if !res.Changed || res.Added != 1 || res.Deleted != 1 || res.Prev != 1 {
			t.Fatalf("ApplyResult = %+v, want changed with 1 add / 1 delete against epoch 1", res)
		}
		s2 := res.Snapshot
		if s2.Epoch() != 2 {
			t.Fatalf("new epoch = %d, want 2", s2.Epoch())
		}
		if got := st.Current(); got != s2 {
			t.Fatal("Current() did not advance to the new snapshot")
		}
		g1, g2 := s1.Reader(), s2.Reader()
		if !g1.Has(exTriple("c", "p", "d")) || g1.Has(exTriple("a", "p", "e")) || g1.Len() != 2 {
			t.Fatal("old snapshot mutated by Apply")
		}
		if g2.Has(exTriple("c", "p", "d")) || !g2.Has(exTriple("a", "p", "e")) || g2.Len() != 2 {
			t.Fatal("new snapshot does not hold the delta")
		}
	})
}

func TestApplyIDsStableAcrossEpochs(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"))
		g1 := st.Current().Reader()
		idA := g1.LookupTerm(ex("a"))
		g2 := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("x", "q", "y")}}).Snapshot.Reader()
		if got := g2.LookupTerm(ex("a")); got != idA {
			t.Fatalf("ID of a changed across epochs: %d -> %d", idA, got)
		}
		if g2.Term(idA) != ex("a") {
			t.Fatalf("Term(%d) = %v in new epoch, want a", idA, g2.Term(idA))
		}
		// New terms resolve in the new epoch only.
		if g2.LookupTerm(ex("x")) == rdfgraph.NoID {
			t.Fatal("x not interned in new epoch")
		}
		if got := g1.LookupTerm(ex("x")); got != rdfgraph.NoID {
			t.Fatalf("old epoch resolves new term x to %d, want NoID", got)
		}
	})
}

func TestApplyNoOpDelta(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"))
		s1 := st.Current()
		res := st.Apply(rdfgraph.Delta{
			Add: []rdf.Triple{exTriple("a", "p", "b")},          // duplicate
			Del: []rdf.Triple{exTriple("nope", "nope", "nope")}, // absent
		})
		if res.Changed || res.Added != 0 || res.Deleted != 0 || res.Prev != 1 {
			t.Fatalf("no-op delta changed the store: %+v", res)
		}
		if res.Snapshot != s1 || st.Current() != s1 {
			t.Fatal("no-op delta republished a snapshot")
		}

		// A no-op is recognized on the current epoch, before a clone is
		// built: on a 5 001-node chain it allocates nothing, where
		// cloning the epoch first and discarding it costs hundreds of kB.
		chain := make([]rdf.Triple, 5000)
		for i := range chain {
			chain[i] = exTriple(fmt.Sprintf("n%d", i), "next", fmt.Sprintf("n%d", i+1))
		}
		big := from(chain...)
		if n := len(big.Current().Reader().NodeIDs()); n < 5000 {
			t.Fatalf("chain has %d nodes, want ≥ 5000", n)
		}
		noop := rdfgraph.Delta{Add: chain[:2], Del: []rdf.Triple{exTriple("n1", "next", "n0")}}
		const runs, boundBytes = 100, 256
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if big.Apply(noop).Changed {
				t.Fatal("no-op delta published an epoch")
			}
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > boundBytes {
			t.Fatalf("no-op Apply allocated %d B, bound %d", b, boundBytes)
		}
	})
}

func TestApplyDeleteThenAddSameTriple(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"))
		res := st.Apply(rdfgraph.Delta{
			Del: []rdf.Triple{exTriple("a", "p", "b")},
			Add: []rdf.Triple{exTriple("a", "p", "b")},
		})
		// Deletions run first, so the triple survives.
		if !res.Snapshot.Reader().Has(exTriple("a", "p", "b")) {
			t.Fatal("triple in both Add and Del must end up present")
		}
		if res.Added != 1 || res.Deleted != 1 {
			t.Fatalf("counts = %+v, want 1/1", res)
		}
	})
}

// TestApplyCOWLeavesOldEpochsIntact mutates through a long chain of epochs
// and checks epoch 1 — whose index submaps every later epoch started out
// sharing — still returns the pre-update answer from every accessor.
func TestApplyCOWLeavesOldEpochsIntact(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"), exTriple("c", "p", "d"), exTriple("c", "q", "a"))
		s1 := st.Current()
		want := s1.Reader().Triples()
		for i := 0; i < 10; i++ {
			st.Apply(rdfgraph.Delta{
				Add: []rdf.Triple{exTriple(fmt.Sprintf("n%d", i), "p", "b")},
				Del: []rdf.Triple{exTriple(fmt.Sprintf("n%d", i-1), "p", "b")},
			})
		}
		got := s1.Reader().Triples()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("old snapshot changed: %v, want %v", got, want)
		}
		if st.Current().Epoch() != 11 {
			t.Fatalf("epoch = %d, want 11", st.Current().Epoch())
		}
		// Deep chains flatten the dictionary; lookups must still agree.
		if id := st.Current().Reader().LookupTerm(ex("a")); id != s1.Reader().LookupTerm(ex("a")) {
			t.Fatal("dictionary flatten changed an ID")
		}
	})
}

func TestApplyRemoveCleansIndexes(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"))
		g := st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTriple("a", "p", "b")}}).Snapshot.Reader()
		if g.Len() != 0 {
			t.Fatalf("len = %d, want 0", g.Len())
		}
		if g.IsNode(g.LookupTerm(ex("a"))) || g.IsNode(g.LookupTerm(ex("b"))) {
			t.Fatal("removed triple left nodes behind in the indexes")
		}
		if n := len(g.NodeIDs()); n != 0 {
			t.Fatalf("NodeIDs() has %d entries, want 0", n)
		}
		if es := g.EdgesByPredicate(g.LookupTerm(ex("p"))); len(es) != 0 {
			t.Fatalf("%d edges kept for a fully deleted predicate", len(es))
		}
	})
}

func TestApplyConcurrentReaders(t *testing.T) {
	inOneStore(t, func(t *testing.T, from func(...rdf.Triple) store.Store) {
		st := from(exTriple("a", "p", "b"), exTriple("c", "p", "d"))
		const updates = 50
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// A snapshot must be internally consistent: size equals
					// what EachTriple visits, and every triple decodes
					// through the dictionary.
					g := st.Current().Reader()
					n := 0
					g.EachTriple(func(s, p, o rdfgraph.ID) {
						_, _, _ = g.Term(s), g.Term(p), g.Term(o)
						n++
					})
					if n != g.Len() {
						t.Errorf("snapshot inconsistent: visited %d, Len=%d", n, g.Len())
						return
					}
				}
			}()
		}
		deletes := 0
		for i := 0; i < updates; i++ {
			tr := exTriple(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
			st.Apply(rdfgraph.Delta{Add: []rdf.Triple{tr}})
			if i%3 == 0 {
				st.Apply(rdfgraph.Delta{Del: []rdf.Triple{tr}})
				deletes++
			}
		}
		close(stop)
		wg.Wait()
		if got, want := st.Current().Epoch(), uint64(1+updates+deletes); got != want {
			t.Fatalf("final epoch = %d, want %d", got, want)
		}
	})
}

// TestApplyRecordsEffectiveTriples: ApplyResult.Effective holds exactly the
// triples Apply deleted, then those it added, encoded in the new epoch's
// dictionary; a duplicate add and an absent delete leave no trace in it.
func TestApplyRecordsEffectiveTriples(t *testing.T) {
	st, err := store.New(rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "p", "b"), exTriple("c", "p", "d")}), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := st.Apply(rdfgraph.Delta{
		Add: []rdf.Triple{exTriple("a", "p", "b"), exTriple("x", "q", "y")},
		Del: []rdf.Triple{exTriple("c", "p", "d"), exTriple("a", "p", "zz")},
	})
	g := res.Snapshot.Reader()
	var got []rdf.Triple
	for _, tr := range res.Effective {
		got = append(got, g.Dict().Triple(tr))
	}
	want := []rdf.Triple{exTriple("c", "p", "d"), exTriple("x", "q", "y")}
	if fmt.Sprint(got) != fmt.Sprint(want) || res.Added != 1 || res.Deleted != 1 {
		t.Fatalf("Effective %v (added %d, deleted %d), want %v", got, res.Added, res.Deleted, want)
	}
	if noop := st.Apply(rdfgraph.Delta{Add: want[1:]}); noop.Changed || noop.Effective != nil {
		t.Fatalf("a no-op delta recorded %v", noop.Effective)
	}
}
