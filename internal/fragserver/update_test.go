package fragserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func exTriple(s, o string) rdf.Triple {
	return rdf.Triple{S: ex(s), P: ex("p"), O: ex(o)}
}

// newUpdateTestServer serves a two-component graph ({a,b} and {c,d}, both
// via p-edges) under one definition whose shape and target are ≥1 p.⊤ —
// small enough that every response is predictable triple by triple.
func newUpdateTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph = rdfgraph.FromTriples([]rdf.Triple{
			exTriple("a", "b"),
			exTriple("c", "d"),
		})
	}
	if cfg.Schema == nil {
		hasP := shape.Min(1, paths.P("http://ex/p"), shape.TrueShape())
		cfg.Schema = schema.MustNew(schema.Definition{Name: ex("S"), Shape: hasP, Target: hasP})
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/turtle", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func nodeURL(name string) string {
	return "/node?iri=" + url.QueryEscape("<http://ex/"+name+">")
}

const (
	lineAB = "<http://ex/a> <http://ex/p> <http://ex/b> ."
	lineAE = "<http://ex/a> <http://ex/p> <http://ex/e> ."
	lineCD = "<http://ex/c> <http://ex/p> <http://ex/d> ."
)

// TestUpdateEndToEnd is the acceptance path: a delta lands between two
// reads of the same focus node. Each response carries exactly one epoch,
// the post-update read reflects the delta, nothing is copied, and the
// component the delta did not touch serves the same bytes from its cache
// entry, kept valid at the new epoch.
func TestUpdateEndToEnd(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{})

	// Epoch 1: both reads see the initial state.
	resp, body := get(t, ts, nodeURL("a"))
	if got := resp.Header.Get("X-Epoch"); got != "1" {
		t.Fatalf("pre-update X-Epoch = %q, want 1", got)
	}
	if !strings.Contains(body, lineAB) || strings.Contains(body, lineAE) {
		t.Fatalf("pre-update /node?a:\n%s", body)
	}
	_, bodyC := get(t, ts, nodeURL("c"))
	if !strings.Contains(bodyC, lineCD) {
		t.Fatalf("pre-update /node?c:\n%s", bodyC)
	}
	if resp, body := get(t, ts, "/fragment"); resp.Header.Get("X-Epoch") != "1" ||
		!strings.Contains(body, lineAB) || !strings.Contains(body, lineCD) {
		t.Fatalf("pre-update /fragment (epoch %s):\n%s", resp.Header.Get("X-Epoch"), body)
	}

	// The delta touches only the {a,b} component.
	resp, body = post(t, ts, "/update", "<http://ex/a> <http://ex/p> <http://ex/e> .")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update: %d\n%s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal([]byte(body), &ur); err != nil {
		t.Fatalf("update response not JSON: %v\n%s", err, body)
	}
	if !ur.Changed || ur.Epoch != 2 || ur.Added != 1 || ur.Deleted != 0 || ur.Triples != 3 {
		t.Fatalf("update response: %+v", ur)
	}
	if ur.Carried != 0 {
		t.Fatalf("update carried %d cache entries; entries stay valid in place, nothing is copied", ur.Carried)
	}
	if got := resp.Header.Get("X-Epoch"); got != "2" {
		t.Fatalf("update X-Epoch = %q, want 2", got)
	}

	// Post-update: the same focus reflects the delta under the new epoch.
	resp, body = get(t, ts, nodeURL("a"))
	if got := resp.Header.Get("X-Epoch"); got != "2" {
		t.Fatalf("post-update X-Epoch = %q, want 2", got)
	}
	if !strings.Contains(body, lineAB) || !strings.Contains(body, lineAE) {
		t.Fatalf("post-update /node?a missing the delta:\n%s", body)
	}

	// The untouched component serves the same bytes at epoch 2 from its
	// epoch-1 entry: the delta cannot reach c, so the read hits.
	before := srv.cache.Stats()
	resp, body = get(t, ts, nodeURL("c"))
	if got := resp.Header.Get("X-Epoch"); got != "2" {
		t.Fatalf("post-update /node?c X-Epoch = %q, want 2", got)
	}
	if body != bodyC {
		t.Fatalf("post-update /node?c differs from the pre-update bytes:\n%s\nwant:\n%s", body, bodyC)
	}
	if after := srv.cache.Stats(); after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("/node?c at epoch 2 was not served from the cache: hits %d → %d, misses %d → %d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}

	// The whole fragment under epoch 2 contains exactly the new state.
	if _, body := get(t, ts, "/fragment"); !strings.Contains(body, lineAB) ||
		!strings.Contains(body, lineAE) || !strings.Contains(body, lineCD) {
		t.Fatalf("post-update /fragment:\n%s", body)
	}
}

// TestEpochPublishedOutsideUpdate: an epoch published through Store()
// directly reaches neither the cache nor live maintenance, and the next
// POST /update steps both past it. The subscriber's next delta carries the
// directly applied triple too, the deltas fold to the cold fragment, live
// ends at the store's epoch, and /node is served from the cache again.
func TestEpochPublishedOutsideUpdate(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{})
	stream := openStream(t, ts, "/subscribe?shape=S", "")
	ev, _ := stream.next(t)
	if ev.event != "snapshot" || ev.id != "1" {
		t.Fatalf("first event: %+v", ev)
	}
	held := ssePayloadOf(t, ev).Added
	get(t, ts, nodeURL("a"))
	get(t, ts, nodeURL("a"))

	srv.Store().Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "e")}})
	const lineAG = "<http://ex/a> <http://ex/p> <http://ex/g> ."
	for _, body := range []string{lineCF, lineAG} {
		if resp, out := post(t, ts, "/update", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /update: %d\n%s", resp.StatusCode, out)
		}
		// The update touched c only, but a's epoch-1 entry predates the
		// directly published epoch 2 and must not be served.
		if _, node := get(t, ts, nodeURL("a")); !strings.Contains(node, lineAE) {
			t.Fatalf("/node?a after POST %s lacks %s:\n%s", body, lineAE, node)
		}
	}
	if got, want := srv.Live().Epoch(), srv.Store().Current().Epoch(); got != want || want != 4 {
		t.Fatalf("live is at epoch %d, the store at %d; want both 4", got, want)
	}

	// The events must be the epoch-3 and epoch-4 deltas, the first carrying
	// epoch 2's triple, and fold the epoch-1 snapshot into the cold fragment.
	folded := make(map[string]bool)
	for _, l := range held {
		folded[l] = true
	}
	for _, id := range []string{"3", "4"} {
		ev, _ := stream.next(t)
		if ev.event != "delta" || ev.id != id {
			t.Fatalf("event %+v, want the epoch-%s delta", ev, id)
		}
		p := ssePayloadOf(t, ev)
		if id == "3" && !slices.Contains(p.Added, lineAE) {
			t.Fatalf("the first delta after the gap lacks the directly applied %s: %+v", lineAE, p)
		}
		for _, l := range p.Added {
			folded[l] = true
		}
		for _, l := range p.Removed {
			delete(folded, l)
		}
	}
	_, cold := get(t, ts, "/fragment?shape=S")
	want := strings.Split(strings.TrimSpace(cold), "\n")
	if len(folded) != len(want) {
		t.Fatalf("folded %d lines, the cold fragment has %d:\n%s", len(folded), len(want), cold)
	}
	for _, l := range want {
		if !folded[l] {
			t.Fatalf("folded stream lacks %s", l)
		}
	}

	get(t, ts, nodeURL("a"))
	before := srv.cache.Stats()
	_, body := get(t, ts, nodeURL("a"))
	if after := srv.cache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("a repeated /node was not a cache hit: hits %d → %d, misses %d → %d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	for _, l := range []string{lineAB, lineAE, lineAG} {
		if !strings.Contains(body, l) {
			t.Errorf("/node?a at epoch 4 lacks %s:\n%s", l, body)
		}
	}
}

// TestUpdateDeleteOp covers op=delete end to end, including the node index
// cleanup: a node whose last triple is gone serves an empty neighborhood.
func TestUpdateDeleteOp(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{})
	resp, body := post(t, ts, "/update?op=delete", "<http://ex/c> <http://ex/p> <http://ex/d> .")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update?op=delete: %d\n%s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal([]byte(body), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Deleted != 1 || ur.Added != 0 || ur.Triples != 1 {
		t.Fatalf("delete response: %+v", ur)
	}
	if resp, body := get(t, ts, nodeURL("c")); resp.StatusCode != 200 || strings.Contains(body, lineCD) {
		t.Fatalf("deleted triple still served:\n%s", body)
	}
}

// TestUpdateValidation covers the rejection paths: bad op, bad syntax,
// empty delta, oversized body, wrong method.
func TestUpdateValidation(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{MaxUpdateBytes: 64})
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"bad op", "/update?op=replace", "<http://ex/a> <http://ex/p> <http://ex/z> .", http.StatusBadRequest},
		{"bad syntax", "/update", "this is not turtle", http.StatusBadRequest},
		{"empty", "/update", "# only a comment\n", http.StatusBadRequest},
		{"oversized", "/update", strings.Repeat("<http://ex/a> <http://ex/p> <http://ex/z> .\n", 10), http.StatusRequestEntityTooLarge},
	} {
		resp, body := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d, want %d\n%s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	resp, _ := get(t, ts, "/update")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /update: got %d, want 405", resp.StatusCode)
	}
}

// TestUpdateNoop: a duplicate add publishes no epoch and reports noop.
func TestUpdateNoop(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{})
	_, body := post(t, ts, "/update", "<http://ex/a> <http://ex/p> <http://ex/b> .")
	var ur updateResponse
	if err := json.Unmarshal([]byte(body), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Changed || ur.Epoch != 1 {
		t.Fatalf("duplicate add changed the store: %+v", ur)
	}
}

// TestUpdateRejectedWhileDraining: satellites of graceful shutdown — an
// update during drain is answered 503 immediately, never queued or hung.
func TestUpdateRejectedWhileDraining(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{})
	srv.draining.Store(true)
	done := make(chan struct{})
	var status int
	var body string
	go func() {
		defer close(done)
		var resp *http.Response
		resp, body = post(t, ts, "/update", "<http://ex/a> <http://ex/p> <http://ex/z> .")
		status = resp.StatusCode
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("update during drain hung")
	}
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("update during drain: %d %q, want 503 draining", status, body)
	}
	// The graph must be untouched.
	if srv.store.Current().Epoch() != 1 {
		t.Fatal("drained server applied an update")
	}
}

// TestUpdateEpochConsistency swaps the graph between two one-triple states
// while readers hammer the focus node: every response must be internally
// consistent with exactly one epoch — exactly one of the two states, never
// a blend, never empty. The swap must be atomic (delete+add in one Delta),
// which HTTP exposes only as two separate ops, so the writer drives the
// Store directly; the readers still go through HTTP, which is where the
// per-request snapshot pinning under test lives.
func TestUpdateEpochConsistency(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{
		Graph: rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "b")}),
	})
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
				hasAB := strings.Contains(body, lineAB)
				hasAE := strings.Contains(body, lineAE)
				if hasAB == hasAE { // both or neither: a torn read
					t.Errorf("inconsistent response at epoch %s:\n%q", resp.Header.Get("X-Epoch"), body)
					return
				}
			}
		}()
	}
	ab, ae := exTriple("a", "b"), exTriple("a", "e")
	st := srv.Store()
	const swaps = 60
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			st.Apply(rdfgraph.Delta{Del: []rdf.Triple{ab}, Add: []rdf.Triple{ae}})
		} else {
			st.Apply(rdfgraph.Delta{Del: []rdf.Triple{ae}, Add: []rdf.Triple{ab}})
		}
	}
	close(stop)
	wg.Wait()
	if epoch := srv.store.Current().Epoch(); epoch != 1+swaps {
		t.Fatalf("epoch = %d, want %d", epoch, 1+swaps)
	}
}

// TestNodeUnknownIRIRace is the frozen-dictionary regression: concurrent
// /node lookups of IRIs the graph has never seen, racing live updates,
// must neither intern into a shared frozen dictionary (a panic under the
// Freeze contract, a data race without it) nor blow up the extractor pool.
// Run with -race to get the full guarantee.
func TestNodeUnknownIRIRace(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < 40; i++ {
				u := nodeURL(fmt.Sprintf("unknown-%d-%d", w, i))
				resp, err := client.Get(ts.URL + u)
				if err != nil {
					t.Error(err)
					return
				}
				body := readAll(t, resp)
				resp.Body.Close()
				if resp.StatusCode != 200 || strings.TrimSpace(body) != "" {
					t.Errorf("unknown IRI: %d %q", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	// Updates churn epochs (and dictionary overlays) underneath the
	// unknown-term lookups.
	for i := 0; i < 20; i++ {
		post(t, ts, "/update", fmt.Sprintf("<http://ex/s%d> <http://ex/p> <http://ex/o%d> .", i, i))
	}
	wg.Wait()
}

// TestTimeoutReleasesLimiterSlot is the limiter regression: a request that
// burns its whole RequestTimeout while holding the only MaxInflight slot
// must still release it, so later requests are served rather than shed.
func TestTimeoutReleasesLimiterSlot(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 2000, Seed: 3})
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	srv, err := New(Config{
		Graph: g, Schema: h, Logger: quietLogger(),
		MaxInflight:    1,
		Workers:        1,
		RequestTimeout: time.Millisecond,
		CacheTriples:   -1, // no cache: every request must grind and time out
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 4; i++ {
		resp, body := get(t, ts, "/fragment")
		// Sequential requests: nothing else holds the slot, so capacity
		// shedding here can only mean the previous timeout leaked it.
		if strings.Contains(body, "server at capacity") {
			t.Fatalf("request %d shed: the timed-out predecessor leaked its slot", i)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: got %d, want 503 (timeout)", i, resp.StatusCode)
		}
	}
	// And the slot is actually free: a cheap route sails through.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatalf("post-timeout /healthz: %d", resp.StatusCode)
	}
}

// TestUpdateSwapStress is TestUpdateEpochConsistency plus a second
// component no update touches: concurrent readers must always see a
// consistent epoch while POST /update swaps a triple back and forth, with
// the copy-on-write clone, the dictionary overlay and stale-epoch eviction
// racing under -race in scripts/check.sh.
func TestUpdateSwapStress(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{
		Graph: rdfgraph.FromTriples([]rdf.Triple{exTriple("a", "b"), exTriple("c", "d")}),
	})

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
					t.Errorf("torn response at epoch %s:\n%q",
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
	// The untouched {c,d} component must have survived every update.
	resp, err := ts.Client().Get(ts.URL + nodeURL("c"))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, lineCD) {
		t.Fatalf("node c lost its component after the updates:\n%q", body)
	}
}
