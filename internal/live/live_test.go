package live_test

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/live"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func exTriple(s, o string) rdf.Triple {
	return rdf.Triple{S: ex(s), P: ex("p"), O: ex(o)}
}

func line(s, o string) string {
	return "<http://ex/" + s + "> <http://ex/p> <http://ex/" + o + "> ."
}

// newMaintainer builds a single-definition maintainer (shape and target
// ≥1 p.⊤) over the two-component graph {a,b} | {c,d}.
func newMaintainer(t *testing.T, cfg live.Config, triples ...rdf.Triple) (*live.Maintainer, store.Store, *schema.Schema) {
	t.Helper()
	if triples == nil {
		triples = []rdf.Triple{exTriple("a", "b"), exTriple("c", "d")}
	}
	hasP := shape.Min(1, paths.P("http://ex/p"), shape.TrueShape())
	h := schema.MustNew(schema.Definition{Name: ex("S"), Shape: hasP, Target: hasP})
	g := rdfgraph.FromTriples(triples)
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schema = h
	cfg.Requests = core.SchemaRequests(h)
	return live.NewMaintainer(cfg, st.Current()), st, h
}

type eventBody struct {
	Epoch   uint64   `json:"epoch"`
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

func decode(t *testing.T, ev live.Event) eventBody {
	t.Helper()
	var b eventBody
	if err := json.Unmarshal(ev.Data, &b); err != nil {
		t.Fatalf("event payload %q: %v", ev.Data, err)
	}
	if b.Epoch != ev.Epoch {
		t.Fatalf("payload epoch %d != event epoch %d", b.Epoch, ev.Epoch)
	}
	if b.Added == nil || b.Removed == nil {
		t.Fatalf("payload arrays must never be null: %s", ev.Data)
	}
	return b
}

func recv(t *testing.T, sub *live.Subscription) (live.Event, bool) {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		return ev, ok
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an event")
		return live.Event{}, false
	}
}

// coldLines extracts the first definition's fragment from scratch and
// renders it the way the maintainer does — the parity oracle.
func coldLines(h *schema.Schema, g rdfgraph.Reader) []string { return coldLinesOf(h, g, 0) }

// coldLinesOf is coldLines for definition def. The AST walker scans all of
// N(G), so it is independent of the focus enumeration it checks.
func coldLinesOf(h *schema.Schema, g rdfgraph.Reader, def int) []string {
	requests := core.SchemaRequests(h)
	ts := core.NewExtractor(g, h).Fragment(requests[def : def+1])
	sort.Slice(ts, func(i, j int) bool { return rdf.CompareTriples(ts[i], ts[j]) < 0 })
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.String()+" .")
	}
	return out
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotThenDelta is the core contract: a fresh subscriber gets the
// full fragment as a snapshot event, and an update re-extracts every focus
// candidate but emits only the triples that changed.
func TestSnapshotThenDelta(t *testing.T) {
	m, st, h := newMaintainer(t, live.Config{})
	sub, initial, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(sub)
	if len(initial) != 1 || initial[0].Type != live.EventSnapshot || initial[0].Epoch != 1 {
		t.Fatalf("initial events: %+v", initial)
	}
	snap := decode(t, initial[0])
	if !equalLines(snap.Added, coldLines(h, st.Current().Reader())) || len(snap.Removed) != 0 {
		t.Fatalf("snapshot != cold extraction:\n%v", snap)
	}

	res := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "e")}})
	ns := m.Notify(res, nil)
	if ns.Steps != 1 || ns.Added != 1 || ns.Removed != 0 {
		t.Fatalf("notify stats: %+v", ns)
	}
	// Every focus candidate is re-extracted — a and c, the subjects of
	// p-edges — including c, whose component the delta did not touch.
	if ns.Reextracted != 2 {
		t.Errorf("reextracted = %d, want 2 (a and c)", ns.Reextracted)
	}
	ev, ok := recv(t, sub)
	if !ok || ev.Type != live.EventDelta || ev.Epoch != 2 {
		t.Fatalf("delta event: %+v ok=%v", ev, ok)
	}
	body := decode(t, ev)
	if !equalLines(body.Added, []string{line("a", "e")}) || len(body.Removed) != 0 {
		t.Fatalf("delta body: %+v", body)
	}
	if !equalLines(m.FragmentLines(0), coldLines(h, st.Current().Reader())) {
		t.Fatal("maintained fragment diverged from cold extraction")
	}
}

// TestDeleteEmitsRemovals: deleting a component's only triple removes it
// from the fragment and drops the node's contribution entirely.
func TestDeleteEmitsRemovals(t *testing.T) {
	m, st, h := newMaintainer(t, live.Config{})
	sub, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(sub)
	res := st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTriple("c", "d")}})
	m.Notify(res, nil)
	ev, _ := recv(t, sub)
	body := decode(t, ev)
	if len(body.Added) != 0 || !equalLines(body.Removed, []string{line("c", "d")}) {
		t.Fatalf("delete delta: %+v", body)
	}
	if !equalLines(m.FragmentLines(0), coldLines(h, st.Current().Reader())) {
		t.Fatal("maintained fragment diverged after delete")
	}
}

// TestOutOfOrderNotify pins the epoch-ordering discipline: when the
// handler for epoch 3 notifies before the handler for epoch 2 (handlers
// notify after the store's lock is released), the maintainer must stash it
// and emit both deltas in epoch order.
func TestOutOfOrderNotify(t *testing.T) {
	m, st, _ := newMaintainer(t, live.Config{})
	sub, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(sub)
	res2 := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "e")}})
	res3 := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("c", "f")}})
	if ns := m.Notify(res3, nil); ns.Steps != 0 {
		t.Fatalf("out-of-order notify ran %d steps, want 0 (stashed)", ns.Steps)
	}
	if ns := m.Notify(res2, nil); ns.Steps != 2 {
		t.Fatalf("closing notify ran %d steps, want 2 (own + stashed)", ns.Steps)
	}
	ev1, _ := recv(t, sub)
	ev2, _ := recv(t, sub)
	if ev1.Epoch != 2 || ev2.Epoch != 3 {
		t.Fatalf("events out of order: %d then %d", ev1.Epoch, ev2.Epoch)
	}
	if m.Epoch() != 3 {
		t.Fatalf("maintainer epoch = %d, want 3", m.Epoch())
	}
}

// TestResumeFromRing: a subscriber resuming with a Last-Event-ID epoch the
// ring still covers gets exactly the missed deltas; one too far behind
// gets a full snapshot.
func TestResumeFromRing(t *testing.T) {
	m, st, _ := newMaintainer(t, live.Config{Replay: 2})
	sub, _, err := m.Subscribe(0, 0) // materialize at epoch 1
	if err != nil {
		t.Fatal(err)
	}
	m.Unsubscribe(sub)
	for i := 0; i < 3; i++ { // epochs 2, 3, 4; ring keeps 3 and 4
		m.Notify(st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", fmt.Sprintf("e%d", i))}}), nil)
	}

	sub2, initial, err := m.Subscribe(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Unsubscribe(sub2)
	if len(initial) != 2 || initial[0].Type != live.EventDelta ||
		initial[0].Epoch != 3 || initial[1].Epoch != 4 {
		t.Fatalf("resume from 2: %+v", initial)
	}
	if got := decode(t, initial[0]).Added; !equalLines(got, []string{line("a", "e1")}) {
		t.Fatalf("replayed delta 3: %v", got)
	}

	// Epoch 1 fell off the ring (floor is 2): full snapshot instead.
	sub3, initial, err := m.Subscribe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Unsubscribe(sub3)
	if len(initial) != 1 || initial[0].Type != live.EventSnapshot || initial[0].Epoch != 4 {
		t.Fatalf("resume from below the floor: %+v", initial)
	}

	// A current subscriber has nothing to replay.
	sub4, initial, err := m.Subscribe(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Unsubscribe(sub4)
	if len(initial) != 0 {
		t.Fatalf("current resume replayed %d events", len(initial))
	}
	if st := m.Stats(); st.Resumed != 1 {
		t.Errorf("resumed = %d, want 1 (only the ring-covered resume)", st.Resumed)
	}
}

// TestSlowSubscriberEviction: a subscriber that stops draining its bounded
// queue is evicted — channel closed, reason recorded, queue freed — while
// a keeping-up subscriber is unaffected.
func TestSlowSubscriberEviction(t *testing.T) {
	m, st, _ := newMaintainer(t, live.Config{Queue: 1})
	slow, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(fast)
	// First delta fills slow's queue (nobody reads); second finds it full.
	m.Notify(st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "e0")}}), nil)
	<-fast.Events()
	m.Notify(st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "e1")}}), nil)
	<-fast.Events()

	if ev, ok := recv(t, slow); !ok || ev.Epoch != 2 {
		t.Fatalf("buffered event before close: %+v ok=%v", ev, ok)
	}
	if _, ok := recv(t, slow); ok {
		t.Fatal("evicted subscription still open")
	}
	if slow.Reason() != live.ReasonEvicted {
		t.Fatalf("reason = %q, want %q", slow.Reason(), live.ReasonEvicted)
	}
	stats := m.Stats()
	if stats.Evicted != 1 || stats.Subscribers != 1 {
		t.Fatalf("stats after eviction: %+v", stats)
	}
}

// TestDrain closes every stream with ReasonDrain and refuses newcomers.
func TestDrain(t *testing.T) {
	m, _, _ := newMaintainer(t, live.Config{})
	sub, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Drain()
	if _, ok := recv(t, sub); ok {
		t.Fatal("drained subscription still open")
	}
	if sub.Reason() != live.ReasonDrain {
		t.Fatalf("reason = %q, want %q", sub.Reason(), live.ReasonDrain)
	}
	if _, _, err := m.Subscribe(0, 0); err != live.ErrDraining {
		t.Fatalf("subscribe during drain: %v", err)
	}
}

// TestSubscriberLimit: the MaxSubscribers bound rejects the overflowing
// subscriber and admits again after one leaves.
func TestSubscriberLimit(t *testing.T) {
	m, _, _ := newMaintainer(t, live.Config{MaxSubscribers: 2})
	a, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Subscribe(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Subscribe(0, 0); err != live.ErrSubscriberLimit {
		t.Fatalf("third subscribe: %v, want ErrSubscriberLimit", err)
	}
	m.Unsubscribe(a)
	if _, _, err := m.Subscribe(0, 0); err != nil {
		t.Fatalf("subscribe after a slot freed: %v", err)
	}
}

// TestStormParity is the incremental-maintenance soundness storm (run with
// -race): concurrent writers race Apply+Notify, so notifications arrive in
// scrambled order, while a subscriber folds the event stream into its own
// copy of the fragment. At the end, maintained state, the subscriber's
// folded state, and a cold extraction must agree line for line.
func TestStormParity(t *testing.T) {
	const writers, perWriter = 4, 20
	var seed []rdf.Triple
	for w := 0; w < writers; w++ {
		seed = append(seed, exTriple(fmt.Sprintf("w%d-a", w), fmt.Sprintf("w%d-b", w)))
	}
	m, st, h := newMaintainer(t, live.Config{Queue: 1024, Replay: 1024}, seed...)
	sub, initial, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(sub)

	folded := make(map[string]struct{})
	for _, l := range decode(t, initial[0]).Added {
		folded[l] = struct{}{}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Every add is fresh, so every epoch moves the fragment and
				// emits exactly one event — the subscriber can tell when it
				// has seen everything by the final epoch number.
				delta := rdfgraph.Delta{Add: []rdf.Triple{
					exTriple(fmt.Sprintf("w%d-a", w), fmt.Sprintf("w%d-o%d", w, i)),
				}}
				m.Notify(st.Apply(delta), nil)
			}
		}(w)
	}
	wg.Wait()

	final := uint64(1 + writers*perWriter)
	if m.Epoch() != final {
		t.Fatalf("maintainer epoch = %d, want %d", m.Epoch(), final)
	}
	var last uint64
	for last < final {
		ev, ok := recv(t, sub)
		if !ok {
			t.Fatal("subscription closed mid-storm (evicted?)")
		}
		if ev.Epoch <= last {
			t.Fatalf("event epochs not increasing: %d after %d", ev.Epoch, last)
		}
		last = ev.Epoch
		body := decode(t, ev)
		for _, l := range body.Added {
			folded[l] = struct{}{}
		}
		for _, l := range body.Removed {
			delete(folded, l)
		}
	}

	cold := coldLines(h, st.Current().Reader())
	if got := m.FragmentLines(0); !equalLines(got, cold) {
		t.Fatalf("maintained fragment diverged from cold extraction:\ngot  %d lines\nwant %d lines", len(got), len(cold))
	}
	if len(folded) != len(cold) {
		t.Fatalf("subscriber folded %d lines, cold extraction has %d", len(folded), len(cold))
	}
	for _, l := range cold {
		if _, ok := folded[l]; !ok {
			t.Fatalf("subscriber state missing %s", l)
		}
	}
}

// TestStormParityTypedGraph is the storm on a typed, connected graph — the
// case the detached fixtures above cannot reach: every rdf:type edge joins
// its instances through the class node, so datagen.Tyrol is one component
// and every delta can reach all of it. Writers race reviews into the graph
// and take them out again in two steps (first the type edge, so the review
// stays in N(G) but stops being a class-target candidate; then the rest, so
// it leaves N(G)), while one subscriber per definition folds its event
// stream. Maintenance re-extracts the candidates through compiled plans
// and the write-through cache; the oracle is the AST walker over all
// of N(G). One definition has no candidate set and takes the N(G) fallback.
func TestStormParityTypedGraph(t *testing.T) {
	const writers, perWriter, individuals = 4, 12, 120
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 5})
	bench := datagen.BenchmarkShapes()
	noName := shape.Neg(shape.Min(1, paths.P(datagen.PropName), shape.TrueShape()))
	h := schema.MustNew(
		bench[5],  // ≥1 rating.⊤ on reviews
		bench[46], // ≥1 review.(≥1 author.⊤) on lodgings
		bench[48], // ∀review.(…) on lodgings
		bench[50], // ≥1 review⁻.⊤ on reviews
		schema.Definition{Name: ex("Unnamed"), Target: noName,
			Shape: shape.All(paths.P(datagen.PropRating), shape.NodeTestShape(shape.IsLiteral{}))},
	)
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	requests := core.SchemaRequests(h)
	progs := make([]*plan.Program, len(requests))
	for i, r := range requests {
		progs[i] = plan.Compile(r, h)
	}
	m := live.NewMaintainer(live.Config{
		Schema: h, Requests: requests, Queue: 4096, Replay: 4096,
		Cache: core.NewNeighborhoodCache(1 << 20),
		Plans: func(def int) *plan.Program { return progs[def] },
	}, st.Current())

	subs := make([]*live.Subscription, len(requests))
	folded := make([]map[string]struct{}, len(requests))
	for def := range requests {
		sub, initial, err := m.Subscribe(def, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Unsubscribe(sub)
		subs[def] = sub
		folded[def] = make(map[string]struct{})
		for _, l := range decode(t, initial[0]).Added {
			folded[def][l] = struct{}{}
		}
	}

	node := func(kind string, k int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("%s%s/%d", datagen.NS, kind, k))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := i - i%3 // the step that added this review
				r := node("review", 1000+w*perWriter+k)
				typed := rdf.T(r, rdf.NewIRI(rdf.RDFType), datagen.ClassReview)
				rest := []rdf.Triple{
					rdf.T(r, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(int64(1+k%5))),
					rdf.T(r, rdf.NewIRI(datagen.PropAuthor), node("person", (w+k)%(individuals*15/100))),
					rdf.T(r, rdf.NewIRI(datagen.PropText), rdf.NewLangString("storm", "en")),
					rdf.T(node("lodging", (w*7+k)%(individuals*20/100)), rdf.NewIRI(datagen.PropReview), r),
				}
				var delta rdfgraph.Delta
				switch i % 3 {
				case 0:
					delta.Add = append(rest, typed)
				case 1:
					delta.Del = []rdf.Triple{typed}
				case 2:
					delta.Del = rest
				}
				res := st.Apply(delta)
				if res.Added != len(delta.Add) || res.Deleted != len(delta.Del) {
					t.Errorf("writer %d step %d: delta only partly effective: %+v", w, i, res)
				}
				m.Notify(res, nil)
			}
		}(w)
	}
	wg.Wait()

	final := uint64(1 + writers*perWriter)
	if m.Epoch() != final {
		t.Fatalf("maintainer epoch = %d, want %d", m.Epoch(), final)
	}
	// Notify fans out synchronously, so every event is queued by now; not
	// every epoch moves every fragment, so drain rather than count.
	for def, sub := range subs {
		var last uint64
		for drained := false; !drained; {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					t.Fatalf("definition %d: subscription closed mid-storm (%s)", def, sub.Reason())
				}
				if ev.Epoch <= last {
					t.Fatalf("definition %d: event epochs not increasing: %d after %d", def, ev.Epoch, last)
				}
				last = ev.Epoch
				body := decode(t, ev)
				for _, l := range body.Added {
					folded[def][l] = struct{}{}
				}
				for _, l := range body.Removed {
					delete(folded[def], l)
				}
			default:
				drained = true
			}
		}
		if last == 0 {
			t.Errorf("definition %d: the storm never moved its fragment", def)
		}
		cold := strings.Join(coldLinesOf(h, st.Current().Reader(), def), "\n")
		if got := strings.Join(m.FragmentLines(def), "\n"); got != cold {
			t.Errorf("definition %d: maintained fragment diverged from cold AST extraction (%d vs %d bytes)", def, len(got), len(cold))
		}
		lines := make([]string, 0, len(folded[def]))
		for l := range folded[def] {
			lines = append(lines, l)
		}
		sort.Strings(lines)
		coldSorted := strings.Split(cold, "\n")
		sort.Strings(coldSorted)
		if got := strings.Join(lines, "\n"); got != strings.Join(coldSorted, "\n") {
			t.Errorf("definition %d: folded event stream diverged from cold AST extraction (%d vs %d bytes)", def, len(got), len(cold))
		}
	}
}
