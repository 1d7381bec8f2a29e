package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// parityCase is one (data graph, schema) pair whose whole-schema fragment
// must come out byte-identical from every shard count and scheduling path.
type parityCase struct {
	name string
	g    *rdfgraph.Graph
	h    *schema.Schema
	// fresh is an update that grows N(G): triples over terms the loaded
	// graph never interned, next to some it did.
	fresh []rdf.Triple
}

// twin copies every triple of g onto renamed subjects ("…-twin"; objects
// that are subjects of g are renamed with them), so the copy has g's
// structure over nodes g has never seen.
func twin(g *rdfgraph.Graph) []rdf.Triple {
	subjects := map[rdf.Term]bool{}
	for _, tr := range g.Triples() {
		subjects[tr.S] = true
	}
	rename := func(t rdf.Term) rdf.Term {
		if t.IsIRI() && subjects[t] {
			return rdf.NewIRI(t.Value + "-twin")
		}
		return t
	}
	var out []rdf.Triple
	for _, tr := range g.Triples() {
		out = append(out, rdf.T(rename(tr.S), tr.P, rename(tr.O)))
	}
	return out
}

// exampleParityCases loads every schema under examples/shapes against the
// example tourism data, plus a synthetic graph under the benchmark shapes.
func exampleParityCases(t *testing.T) []parityCase {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "data", "tourism.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	shapeFiles, err := filepath.Glob(filepath.Join("..", "..", "examples", "shapes", "*.ttl"))
	if err != nil || len(shapeFiles) == 0 {
		t.Fatalf("no example schemas found: %v", err)
	}
	var cases []parityCase
	for _, sf := range shapeFiles {
		src, err := os.ReadFile(sf)
		if err != nil {
			t.Fatal(err)
		}
		h, err := shaclsyn.ParseSchema(string(src))
		if err != nil {
			t.Fatalf("%s: %v", sf, err)
		}
		g, err := turtle.Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, parityCase{name: filepath.Base(sf), g: g, h: h, fresh: twin(g)})
	}
	bench := schema.MustNew(datagen.BenchmarkShapes()...)
	cases = append(cases, parityCase{
		name: "datagen",
		g:    datagen.Tyrol(datagen.TyrolConfig{Individuals: 250, Seed: 11}),
		h:    bench,
		// Another seed's graph overlaps this one in vocabulary and low-numbered
		// nodes and differs in the rest.
		fresh: datagen.Tyrol(datagen.TyrolConfig{Individuals: 40, Seed: 99}).Triples()[:100],
	})
	return cases
}

// TestShardedFragmentParity is the acceptance gate for the store: Frag(G, H)
// computed through every shard count and scheduling path, cold and through
// a neighborhood cache, is byte-identical to serial extraction from one
// plain graph, for every example schema shipped in the repo — on the loaded
// graph and again after each of two updates (a deletion, then its
// re-add), with the cache carried across them the way the server carries
// it.
func TestShardedFragmentParity(t *testing.T) {
	for _, tc := range exampleParityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			requests := core.SchemaRequests(tc.h)
			var cut []rdf.Triple // every third triple, spread over all subjects
			for i, tr := range tc.g.Triples() {
				if i%3 == 0 {
					cut = append(cut, tr)
				}
			}
			deltas := []rdfgraph.Delta{{}, {Del: cut}, {Add: cut}, {Add: tc.fresh}}
			unseen := 0
			for _, tr := range tc.fresh {
				if tc.g.LookupTerm(tr.S) == rdfgraph.NoID || tc.g.LookupTerm(tr.O) == rdfgraph.NoID {
					unseen++
				}
			}
			if unseen == 0 {
				t.Fatal("the fresh delta interns no new term; the last round proves nothing")
			}

			// The reference replays the same deltas on a plain mutable graph.
			ref := tc.g.Clone()
			store.WarmDictionary(ref, tc.h)
			var want []string
			for _, d := range deltas {
				for _, tr := range d.Del {
					ref.Remove(tr)
				}
				for _, tr := range d.Add {
					ref.Add(tr)
				}
				want = append(want, turtle.FormatNTriples(core.FragmentSchema(ref, tc.h)))
			}
			// workshop.ttl targets nothing in the tourism data: its fragment
			// is empty throughout, which is still a parity to hold.
			if want[0] != "" && (want[0] == want[1] || want[1] == want[2] || want[2] == want[3]) {
				t.Fatal("the deltas do not move the fragment; the after-update rounds prove nothing")
			}

			for _, shards := range []int{1, 2, 4, 16} {
				for _, workers := range []int{1, 2, 4} {
					for _, cache := range []*core.NeighborhoodCache{nil, core.NewNeighborhoodCache(1 << 20)} {
						// A store owns its graph, and the fresh delta appends
						// to its dictionary: every store gets its own copy.
						g := tc.g.Clone()
						store.WarmDictionary(g, tc.h)
						st, err := store.New(g, store.Config{Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						for round, d := range deltas {
							if res := st.Apply(d); res.Changed && cache != nil {
								cache.Carry(res.Prev, res.Snapshot.Epoch(), res.Unaffected)
							}
							snap := st.Current()
							x := core.NewExtractor(snap.Reader(), tc.h)
							frag, err := x.FragmentParallel(requests, core.ParallelOptions{
								Workers: workers, Cache: cache, Epoch: snap.Epoch(),
							})
							if err != nil {
								t.Fatal(err)
							}
							if got := turtle.FormatNTriples(frag); got != want[round] {
								t.Fatalf("shards=%d workers=%d cache=%v after %d updates: fragment differs from serial extraction (%d vs %d bytes)",
									shards, workers, cache != nil, round, len(got), len(want[round]))
							}
						}
					}
				}
			}
		})
	}
}
