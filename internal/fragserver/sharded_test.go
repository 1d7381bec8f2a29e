package fragserver

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
)

// TestShardedServerParity checks a server on several shards answers
// /fragment byte-identically to one on a single shard, over a graph big
// enough that scatter-gather scheduling actually engages.
func TestShardedServerParity(t *testing.T) {
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	build := func(shards int) string {
		t.Helper()
		g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 250, Seed: 6})
		srv, err := New(Config{
			Graph: g, Schema: h, Logger: quietLogger(),
			Shards: shards, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + "/fragment")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/fragment on %d shards: status %d", srv.store.NumShards(), resp.StatusCode)
		}
		return readAll(t, resp)
	}
	want := build(1)
	for _, n := range []int{0, 4, 16} { // 0 is the default config: one shard
		if got := build(n); got != want {
			t.Fatalf("shards=%d: /fragment differs from shards=1 (%d vs %d bytes)",
				n, len(got), len(want))
		}
	}
}

// TestShardedUpdateStress is the sharded twin of TestUpdateEpochConsistency
// plus write contention: concurrent readers must always see a consistent
// epoch while POST /update swaps a triple back and forth, with every shard
// clone, the shared dictionary overlay, and the global component analysis
// racing under -race in scripts/check.sh.
func TestShardedUpdateStress(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{
		Graph:  rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "b"), exTriple("c", "d")}),
		Shards: 3,
	})
	if srv.store.NumShards() != 3 {
		t.Fatalf("server store has %d shards, want 3", srv.store.NumShards())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + nodeURL("a"))
				if err != nil {
					t.Error(err)
					return
				}
				body := readAll(t, resp)
				resp.Body.Close()
				// Each swap is two epochs (delete, then add), so an empty
				// neighborhood is a legitimate intermediate state; both
				// triples at once never is.
				if strings.Contains(body, lineAB) && strings.Contains(body, lineAE) {
					t.Errorf("torn sharded response at epoch %s:\n%q",
						resp.Header.Get("X-Epoch"), body)
					return
				}
			}
		}()
	}
	const swaps = 40
	for i := 0; i < swaps; i++ {
		var body, op string
		if i%2 == 0 {
			post(t, ts, "/update?op=delete", lineAB)
			body, op = lineAE, "/update"
		} else {
			post(t, ts, "/update?op=delete", lineAE)
			body, op = lineAB, "/update"
		}
		if resp, _ := post(t, ts, op, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	if epoch := srv.store.Current().Epoch(); epoch != 1+2*swaps {
		t.Fatalf("epoch = %d, want %d", epoch, 1+2*swaps)
	}
	// The untouched {c,d} component must have survived every carry sweep.
	resp, err := ts.Client().Get(ts.URL + nodeURL("c"))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, lineCD) {
		t.Fatalf("node c lost its component after sharded updates:\n%q", body)
	}
}
