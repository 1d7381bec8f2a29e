package store_test

import (
	"fmt"
	"sort"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func exTriple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: ex(s), P: ex(p), O: ex(o)}
}

func TestConfigValidation(t *testing.T) {
	if _, err := store.New(rdfgraph.New(), store.Config{Shards: -1}); err == nil {
		t.Fatal("New accepted a negative shard count")
	}
	if _, err := store.NewLoader(store.Config{Shards: -1}); err == nil {
		t.Fatal("NewLoader accepted a negative shard count")
	}
	st, err := store.New(rdfgraph.New(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 1 {
		t.Fatalf("empty config has %d shards, want 1", st.NumShards())
	}
	loader, err := store.NewLoader(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := loader.Finish().NumShards(); n != 1 {
		t.Fatalf("empty loader config has %d shards, want 1", n)
	}
}

// testGraph returns a modest synthetic graph exercising every index shape:
// forward fans, reverse fans, literals, and multi-component topology.
func testGraph(t *testing.T) *rdfgraph.Graph {
	t.Helper()
	return datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 7})
}

// TestShardedReaderParity checks every Reader method of a store's snapshot
// against the graph it was built from.
func TestShardedReaderParity(t *testing.T) {
	g := testGraph(t)
	want := turtle.FormatNTriples(g.Triples())
	for _, n := range []int{1, 2, 3, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			st, err := store.New(g, store.Config{Shards: n})
			if err != nil {
				t.Fatal(err)
			}
			r := st.Current().Reader()
			if got := turtle.FormatNTriples(r.Triples()); got != want {
				t.Fatal("Triples() differs from the single graph")
			}
			if r.Len() != g.Len() {
				t.Fatalf("Len = %d, want %d", r.Len(), g.Len())
			}
			sum := 0
			for _, c := range st.ShardTriples() {
				sum += c
			}
			if sum != g.Len() {
				t.Fatalf("ShardTriples sums to %d, want %d", sum, g.Len())
			}
			if len(st.ShardTriples()) != n {
				t.Fatalf("len(ShardTriples) = %d, want %d", len(st.ShardTriples()), n)
			}

			gn, rn := g.NodeIDs(), r.NodeIDs()
			if len(gn) != len(rn) {
				t.Fatalf("NodeIDs length %d, want %d", len(rn), len(gn))
			}
			for i := range gn {
				if gn[i] != rn[i] {
					t.Fatalf("NodeIDs[%d] = %d, want %d", i, rn[i], gn[i])
				}
			}
			if rn := r.NumNodes(); rn != len(gn) {
				t.Fatalf("NumNodes = %d, want %d", rn, len(gn))
			}
			// One shard reads the adopted graph directly; several expose
			// the partition scatter-gather extraction schedules over.
			if sr, ok := r.(interface{ ShardNodeIDs() [][]rdfgraph.ID }); ok {
				var union []rdfgraph.ID
				for k, part := range sr.ShardNodeIDs() {
					for _, id := range part {
						if int(id)%n != k {
							t.Fatalf("node %d in part %d, want %d", id, k, int(id)%n)
						}
					}
					union = append(union, part...)
				}
				sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
				if len(union) != len(gn) {
					t.Fatalf("ShardNodeIDs union has %d nodes, want %d", len(union), len(gn))
				}
				for i := range gn {
					if union[i] != gn[i] {
						t.Fatalf("ShardNodeIDs union[%d] = %d, want %d", i, union[i], gn[i])
					}
				}
			} else if n > 1 {
				t.Fatal("sharded reader does not expose ShardNodeIDs")
			}

			// Per-node forward and reverse reads, across the whole node set.
			collect2 := func(scan func(func(a, b rdfgraph.ID))) [][2]rdfgraph.ID {
				var out [][2]rdfgraph.ID
				scan(func(a, b rdfgraph.ID) { out = append(out, [2]rdfgraph.ID{a, b}) })
				sort.Slice(out, func(i, j int) bool {
					if out[i][0] != out[j][0] {
						return out[i][0] < out[j][0]
					}
					return out[i][1] < out[j][1]
				})
				return out
			}
			for _, v := range gn {
				gf := collect2(func(fn func(a, b rdfgraph.ID)) { g.PredicatesFrom(v, fn) })
				rf := collect2(func(fn func(a, b rdfgraph.ID)) { r.PredicatesFrom(v, fn) })
				gt := collect2(func(fn func(a, b rdfgraph.ID)) { g.PredicatesTo(v, fn) })
				rt := collect2(func(fn func(a, b rdfgraph.ID)) { r.PredicatesTo(v, fn) })
				if fmt.Sprint(gf) != fmt.Sprint(rf) {
					t.Fatalf("PredicatesFrom(%d) differs", v)
				}
				if fmt.Sprint(gt) != fmt.Sprint(rt) {
					t.Fatalf("PredicatesTo(%d) differs", v)
				}
				if g.IsNode(v) != r.IsNode(v) {
					t.Fatalf("IsNode(%d) differs", v)
				}
			}

			// Per-predicate edge lists agree as sets (shard concatenation
			// may reorder them).
			g.Predicates(func(p rdfgraph.ID) {
				ge, re := g.EdgesByPredicate(p), r.EdgesByPredicate(p)
				if len(ge) != len(re) {
					t.Fatalf("EdgesByPredicate(%d): %d edges, want %d", p, len(re), len(ge))
				}
				set := make(map[rdfgraph.Edge]struct{}, len(ge))
				for _, e := range ge {
					set[e] = struct{}{}
				}
				for _, e := range re {
					if _, ok := set[e]; !ok {
						t.Fatalf("EdgesByPredicate(%d): unexpected edge %v", p, e)
					}
				}
				for _, e := range ge {
					if !r.HasIDs(e.S, p, e.O) {
						t.Fatalf("HasIDs(%d,%d,%d) = false", e.S, p, e.O)
					}
				}
			})
		})
	}
}

// TestLoaderMatchesBulk checks the streaming loader ends at the same graph
// as bulk construction plus repartitioning, on one shard and on several.
func TestLoaderMatchesBulk(t *testing.T) {
	cfg := datagen.TyrolConfig{Individuals: 300, Seed: 3}
	want := turtle.FormatNTriples(datagen.Tyrol(cfg).Triples())
	for _, shards := range []int{1, 3} {
		loader, err := store.NewLoader(store.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		datagen.TyrolStream(cfg, func(tr rdf.Triple) { loader.Add(tr) })
		st := loader.Finish()
		if got := turtle.FormatNTriples(st.Current().Reader().Triples()); got != want {
			t.Fatalf("shards=%d: loader output differs from bulk construction", shards)
		}
		if st.Current().Epoch() != 1 {
			t.Fatalf("fresh store epoch = %d, want 1", st.Current().Epoch())
		}
	}
}

// TestApplyParity applies the same delta sequence on one shard and on
// three and checks they publish identical graphs and epochs.
func TestApplyParity(t *testing.T) {
	base := []rdf.Triple{
		exTriple("a", "p", "b"),
		exTriple("c", "p", "d"),
		exTriple("e", "q", "f"),
	}
	deltas := []rdfgraph.Delta{
		{Add: []rdf.Triple{exTriple("a", "p", "x"), exTriple("x", "p", "y")}},
		{Del: []rdf.Triple{exTriple("c", "p", "d")}},
		{Add: []rdf.Triple{exTriple("c", "p", "d")}, Del: []rdf.Triple{exTriple("e", "q", "f")}},
		{Del: []rdf.Triple{exTriple("nope", "p", "gone")}}, // no-op
	}
	single, err := store.New(rdfgraph.FromTriples(base), store.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := store.New(rdfgraph.FromTriples(base), store.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		rs := single.Apply(d)
		rh := sharded.Apply(d)
		if rs.Changed != rh.Changed || rs.Added != rh.Added || rs.Deleted != rh.Deleted {
			t.Fatalf("delta %d: single (%v,%d,%d) vs sharded (%v,%d,%d)",
				i, rs.Changed, rs.Added, rs.Deleted, rh.Changed, rh.Added, rh.Deleted)
		}
		if rs.Snapshot.Epoch() != rh.Snapshot.Epoch() {
			t.Fatalf("delta %d: epochs %d vs %d", i, rs.Snapshot.Epoch(), rh.Snapshot.Epoch())
		}
		a := turtle.FormatNTriples(rs.Snapshot.Reader().Triples())
		b := turtle.FormatNTriples(rh.Snapshot.Reader().Triples())
		if a != b {
			t.Fatalf("delta %d: published graphs differ", i)
		}
	}
	if got := sharded.Current().Epoch(); got != 4 {
		t.Fatalf("final epoch = %d, want 4 (three effective deltas on epoch 1)", got)
	}
}

// TestUnaffectedSpansShards checks the component analysis behind
// Unaffected is global: b's component is dirtied by an update to a even
// when a and b live on different shards, while the untouched {c,d}
// component stays carryable.
func TestUnaffectedSpansShards(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		st, err := store.New(rdfgraph.FromTriples([]rdf.Triple{
			exTriple("a", "p", "b"),
			exTriple("c", "p", "d"),
		}), store.Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		res := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "p", "z")}})
		if !res.Changed {
			t.Fatal("effective delta reported unchanged")
		}
		r := res.Snapshot.Reader()
		for name, wantUnaffected := range map[string]bool{
			"a": false, "b": false, "z": false,
			"c": true, "d": true,
		} {
			id := r.LookupTerm(ex(name))
			if id == rdfgraph.NoID {
				t.Fatalf("%s not in dictionary", name)
			}
			if got := res.Unaffected(id); got != wantUnaffected {
				t.Errorf("shards=%d: Unaffected(%s) = %v, want %v", n, name, got, wantUnaffected)
			}
		}
	}
}

// TestCrossShardResolutions checks the counter advances exactly when a
// reverse read resolves results away from the queried node's home shard.
func TestCrossShardResolutions(t *testing.T) {
	st, err := store.New(testGraph(t), store.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.CrossShardResolutions(); got != 0 {
		t.Fatalf("fresh store counter = %d, want 0", got)
	}
	// Reverse-read every node: in a 400-individual tourism graph the
	// subjects pointing at shared hubs (places, orgs) are certain to span
	// both shards for some object.
	r := st.Current().Reader()
	for _, v := range r.NodeIDs() {
		r.PredicatesTo(v, func(s, p rdfgraph.ID) {})
	}
	if got := st.CrossShardResolutions(); got == 0 {
		t.Fatal("cross-shard counter did not advance after scattered reverse reads")
	}
	single, err := store.New(testGraph(t), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r = single.Current().Reader()
	for _, v := range r.NodeIDs() {
		r.PredicatesTo(v, func(s, p rdfgraph.ID) {})
	}
	if got := single.CrossShardResolutions(); got != 0 {
		t.Fatalf("one-shard counter = %d after reverse reads, want 0", got)
	}
}
