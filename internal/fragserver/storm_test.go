package fragserver

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// TestUpdateCarryStormParity pins that no cache entry is served at an
// epoch it is not valid for under racing updates: however concurrent
// handlers interleave with reads, a read at the newest epoch never serves a
// neighborhood an update has changed since it was computed. Entries the
// updates cannot reach stay valid across epochs; handlers take the
// server's write lock from apply through invalidate and notify, so the
// cache steps across every epoch in order. (The name is from the race it
// first guarded: handlers that carried entries forward keyed on a
// pre-Apply epoch read and resurrected entries a concurrent delta had
// invalidated.)
//
// Each attempt stages that interleaving. The victim component {a,b} is
// freshly warmed in the cache. Then one small update extending the victim
// races a burst of large updates to independent noise components. The
// served neighborhood of the victim must then contain every triple ever
// added to it; a stale entry served at the new epoch is missing the newest
// one. Run with -race.
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

// TestFragmentFocusRacesUpdates pins that a program's focus nodes, found
// once per snapshot and shared by every request on it, are read only and
// never served at another snapshot: readers GET /fragment of one shape
// while updates add and delete the triples that make its focus
// candidates, and every body must be the AST walker's cold fragment at
// the epoch its X-Epoch names. The shape asks for a p/q path of every
// subject of p, so each update moves the candidates. Run with -race.
func TestFragmentFocusRacesUpdates(t *testing.T) {
	const readers = 4
	updates := 40
	if testing.Short() {
		updates = 16
	}
	p, q := "http://ex/p", "http://ex/q"
	hasP := shape.Min(1, paths.P(p), shape.TrueShape())
	h := schema.MustNew(schema.Definition{
		Name:   ex("S"),
		Shape:  shape.Min(1, paths.Seq{Left: paths.P(p), Right: paths.P(q)}, shape.TrueShape()),
		Target: hasP,
	})
	g := rdfgraph.FromTriples([]rdf.Triple{
		exTriple("s0", "o0"), rdf.T(ex("o0"), ex("q"), ex("r0")),
	})
	srv, ts := newUpdateTestServer(t, Config{Graph: g, Schema: h})

	snaps := map[string]store.Snapshot{"1": srv.Store().Current()}
	type read struct{ epoch, body string }
	var reads [readers][]read
	// Each reader reads once before the first update and once after the
	// last, so the reads span at least two epochs however they are
	// scheduled.
	var done atomic.Bool
	var wg, started sync.WaitGroup
	for r := range reads {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if len(reads[r]) == 0 { // failed before its first read
					started.Done()
				}
			}()
			for {
				last := done.Load()
				resp, err := http.Get(ts.URL + "/fragment?shape=S")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET /fragment: %d %v", resp.StatusCode, err)
					return
				}
				if reads[r] = append(reads[r], read{resp.Header.Get("X-Epoch"), string(body)}); len(reads[r]) == 1 {
					started.Done()
				}
				if last {
					return
				}
			}
		}()
	}
	started.Wait()
	for i := 1; i <= updates; i++ {
		body, target := fmt.Sprintf("<http://ex/s%d> <%s> <http://ex/o%d> .\n<http://ex/o%d> <%s> <http://ex/r%d> .\n", i, p, i, i, q, i), "/update"
		if i%3 == 0 { // a subject of p leaves the candidates
			body, target = fmt.Sprintf("<http://ex/s%d> <%s> <http://ex/o%d> .\n", i-2, p, i-2), "/update?op=delete"
		}
		if resp, out := post(t, ts, target, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", target, resp.StatusCode, out)
		}
		snap := srv.Store().Current()
		snaps[strconv.FormatUint(snap.Epoch(), 10)] = snap
	}
	done.Store(true)
	wg.Wait()

	want := map[string]string{}
	n := 0
	for _, rs := range reads {
		for _, rd := range rs {
			w, ok := want[rd.epoch]
			if !ok {
				snap, known := snaps[rd.epoch]
				if !known {
					t.Fatalf("a read at epoch %q, which no update published", rd.epoch)
				}
				w = turtle.FormatNTriples(core.NewExtractor(snap.Reader(), h).Fragment(core.SchemaRequests(h)))
				want[rd.epoch] = w
			}
			if rd.body != w {
				t.Fatalf("/fragment at epoch %s differs from cold AST extraction there:\n%s\nwant:\n%s", rd.epoch, rd.body, w)
			}
			n++
		}
	}
	t.Logf("%d reads over %d of %d epochs", n, len(want), len(snaps))
	if len(want) < 2 {
		t.Errorf("reads saw %d epochs: the updates never raced them", len(want))
	}
}
