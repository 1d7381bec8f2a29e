package store_test

import (
	"os"
	"runtime"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/store"
)

// TestLoaderScale is the bounded-memory load smoke test: stream a sized
// synthetic graph into the sharded backend, then prove the result serves —
// a whole-graph extraction of one cheap request shape. Scale is 1M triples
// by default, 100K under -short, and the full 10M-triple acceptance run
// when SHACLFRAG_SCALE_10M=1 is set (scripts/check.sh runs the default;
// the 10M run backs the committed benchmark numbers).
func TestLoaderScale(t *testing.T) {
	target := 1_000_000
	if os.Getenv("SHACLFRAG_SCALE_10M") == "1" {
		target = 10_000_000
	} else if testing.Short() {
		target = 100_000
	}

	defs := datagen.BenchmarkShapes()[:1]
	h := schema.MustNew(defs...)
	loader, err := store.NewLoader(store.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	individuals := datagen.IndividualsForTriples(target)
	datagen.TyrolStream(datagen.TyrolConfig{Individuals: individuals, Seed: 1},
		func(tr rdf.Triple) { loader.Add(tr) })
	store.WarmDictionary(loader.Reader(), h)
	st := loader.Finish()

	got := st.Current().Reader().Len()
	if low, high := target*97/100, target*103/100; got < low || got > high {
		t.Fatalf("loaded %d triples for a %d target (outside ±3%%); recalibrate datagen.TriplesPerIndividual", got, target)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("loaded %d triples across %v shard sizes, %d MiB heap in use",
		got, st.ShardTriples(), ms.HeapInuse>>20)

	x := core.NewExtractor(st.Current().Reader(), h)
	frag, err := x.FragmentParallel(core.SchemaRequests(h), core.ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(frag) == 0 {
		t.Fatal("schema fragment of the loaded graph is empty")
	}
	t.Logf("extracted %d fragment triples for %q", len(frag), defs[0].Name)
}

// TestLoaderScaleRejectsFrozenInterning guards the WarmDictionary
// contract: warming must happen against the loader's reader before Finish
// freezes the dictionary, and extraction of a shape whose constants were
// never warmed must not be reachable without a panic we can document.
func TestLoaderScaleRejectsFrozenInterning(t *testing.T) {
	loader, err := store.NewLoader(store.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	loader.Add(rdf.Triple{S: ex("s"), P: ex("p"), O: ex("o")})
	st := loader.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("interning a new term into a frozen store did not panic")
		}
	}()
	st.Current().Reader().TermID(ex("never-seen"))
}
