package fragserver

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// TestUpdateCarryStormParity pins that no cache entry is served at an
// epoch it is not valid for under racing updates: whatever order
// concurrent handlers apply, invalidate, notify and sweep in, a read at the
// newest epoch never serves a neighborhood an update has changed since it
// was computed. Entries the updates cannot reach stay valid across epochs;
// the cache applies each update's invalidation in epoch order, holding
// back one whose predecessor's is still in flight, and a read at an epoch
// whose invalidation has not landed yet misses. (The name is from the race
// it first guarded: handlers that carried entries forward keyed on a
// pre-Apply epoch read and resurrected entries a concurrent delta had
// invalidated.)
//
// Each attempt stages that interleaving. The victim component {a,b} is
// freshly warmed in the cache; an in-flight reader stays pinned to that
// epoch for the whole burst, so the sweeper keeps the old-epoch entries
// alive while the updates land. Then one small update extending the victim
// races a burst of large updates to independent noise components: the
// large bodies make the serialized applies slow, so handlers finish out of
// apply order. Afterwards the served neighborhood of the victim must
// contain every triple ever added to it; a stale entry served at the new
// epoch is missing the newest one. Run with -race.
func TestUpdateCarryStormParity(t *testing.T) {
	const noise, attempts, noiseTriples = 6, 12, 200
	seed := []rdf.Triple{exTriple("a", "b")}
	for w := 0; w < noise; w++ {
		seed = append(seed, exTriple(fmt.Sprintf("n%d-a", w), fmt.Sprintf("n%d-b", w)))
	}
	srv, ts := newUpdateTestServer(t, Config{Graph: rdfgraph.FromTriples(seed)})

	noiseBody := func(w, attempt int) string {
		var sb strings.Builder
		for i := 0; i < noiseTriples; i++ {
			fmt.Fprintf(&sb, "<http://ex/n%d-a%d-%d> <http://ex/p> <http://ex/n%d-b%d-%d> .\n",
				w, attempt, i, w, attempt, i)
		}
		return sb.String()
	}

	for attempt := 0; attempt < attempts; attempt++ {
		// Warm the victim's neighborhood at the current epoch, so the
		// racing updates have a soon-stale entry to (mis)handle.
		if resp, _ := get(t, ts, nodeURL("a")); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming read failed at attempt %d", attempt)
		}
		// An in-flight reader keeps the pre-burst epoch pinned for the
		// whole burst, exactly like a long read racing the updates.
		base := srv.store.Current().Epoch()
		srv.pins.pin(base)

		start := make(chan struct{})
		var wg sync.WaitGroup
		post1 := func(body string) {
			defer wg.Done()
			<-start
			resp, out := post(t, ts, "/update", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("storm update: %d\n%s", resp.StatusCode, out)
			}
		}
		wg.Add(1 + noise)
		go post1(fmt.Sprintf("<http://ex/a> <http://ex/p> <http://ex/v%d> .", attempt))
		for w := 0; w < noise; w++ {
			go post1(noiseBody(w, attempt))
		}
		close(start)
		wg.Wait()
		srv.pins.unpin(base)

		// Every triple the victim has ever gained must be served; a stale
		// resurrected entry is missing the newest.
		_, body := get(t, ts, nodeURL("a"))
		if !strings.Contains(body, lineAB) {
			t.Fatalf("attempt %d: victim lost its seed triple:\n%s", attempt, body)
		}
		for i := 0; i <= attempt; i++ {
			want := fmt.Sprintf("<http://ex/a> <http://ex/p> <http://ex/v%d> .", i)
			if !strings.Contains(body, want) {
				t.Fatalf("attempt %d: served neighborhood is missing %s — a stale cache entry outlived the update that invalidated it:\n%s",
					attempt, want, body)
			}
		}
	}

	wantEpoch := uint64(1 + attempts*(1+noise))
	if got := srv.store.Current().Epoch(); got != wantEpoch {
		t.Fatalf("final epoch = %d, want %d", got, wantEpoch)
	}
}
