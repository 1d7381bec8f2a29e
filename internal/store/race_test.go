package store_test

import (
	"sync"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// TestConcurrentScatterGather hammers one frozen sharded epoch with
// concurrent scatter-gather extractions. Under -race this exercises the
// lazily built node caches (nodeOnce), the memoized per-predicate edge
// slices (predCache) and the batched cross-shard counter, all racing on
// first use.
func TestConcurrentScatterGather(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 300, Seed: 2})
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	store.WarmDictionary(g, h)
	want := turtle.FormatNTriples(core.FragmentSchema(g, h))

	st, err := store.New(g, store.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	requests := core.SchemaRequests(h)
	r := st.Current().Reader()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := core.NewExtractor(r, h)
			frag, err := x.FragmentParallel(requests, core.ParallelOptions{Workers: 2})
			if err != nil {
				errs <- err.Error()
				return
			}
			if got := turtle.FormatNTriples(frag); got != want {
				errs <- "concurrent fragment differs from serial extraction"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentApplyAndExtract races a writer publishing epochs against
// readers extracting from whatever snapshot they pinned — the live-update
// serving pattern. Every reader must see an internally consistent frozen
// epoch; the race detector checks the copy-on-write plumbing.
func TestConcurrentApplyAndExtract(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 150, Seed: 4})
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	requests := core.SchemaRequests(h)

	const (
		readers = 4
		rounds  = 6
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Current()
				x := core.NewExtractor(snap.Reader(), h)
				if _, err := x.FragmentParallel(requests, core.ParallelOptions{Workers: 2, Epoch: snap.Epoch()}); err != nil {
					errs <- err.Error()
					return
				}
			}
		}()
	}
	base := ex("upd")
	for i := 0; i < rounds; i++ {
		d := rdfgraph.Delta{Add: []rdf.Triple{{
			S: base, P: ex("p"), O: rdf.NewInteger(int64(i)),
		}}}
		res := st.Apply(d)
		if !res.Changed {
			t.Errorf("round %d: effective delta reported unchanged", i)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, want := st.Current().Epoch(), uint64(1+rounds); got != want {
		t.Fatalf("final epoch = %d, want %d", got, want)
	}
}
