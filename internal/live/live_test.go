package live_test

import (
	"encoding/json"
	"errors"
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
// full fragment as a snapshot event, and an update re-extracts only the
// foci its delta reaches and emits only the triples that changed.
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
	if m.Epoch() != 2 || ns.Added != 1 || ns.Removed != 0 {
		t.Fatalf("notify stats: %+v (epoch %d)", ns, m.Epoch())
	}
	// Of the focus candidates a and c, the subjects of p-edges, only a
	// reads the row Objects(a, p) the delta changed.
	if ns.Reextracted != 1 {
		t.Errorf("reextracted = %d, want 1 (a)", ns.Reextracted)
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

// TestNotifyAcrossGap pins what Notify does with a result that does not
// leave the maintained epoch. One whose Prev is ahead (epoch 2 was
// published without a Notify) rebuilds the fragment at its epoch, and its
// event is the exact delta from the fragment the subscriber holds, epoch
// 2's change included. One at or below the maintained epoch is a no-op.
func TestNotifyAcrossGap(t *testing.T) {
	m, st, h := newMaintainer(t, live.Config{})
	sub, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(sub)
	res2 := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("a", "e")}})
	res3 := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("c", "f")}})
	// Rebuilding visits every focus candidate: a and c.
	if ns := m.Notify(res3, nil); ns.Added != 2 || ns.Removed != 0 || ns.Reextracted != 2 {
		t.Fatalf("notify across the gap: %+v, want 2 added by rebuilding both foci", ns)
	}
	ev, _ := recv(t, sub)
	if body := decode(t, ev); ev.Epoch != 3 || !equalLines(body.Added, []string{line("a", "e"), line("c", "f")}) || len(body.Removed) != 0 {
		t.Fatalf("event across the gap: epoch %d, %+v", ev.Epoch, body)
	}
	for _, res := range []store.ApplyResult{res2, res3} {
		if ns := m.Notify(res, nil); ns != (live.NotifyStats{}) || m.Epoch() != 3 {
			t.Fatalf("notify of epoch %d at 3 did %+v, epoch %d; want a no-op", res.Snapshot.Epoch(), ns, m.Epoch())
		}
	}
	if !equalLines(m.FragmentLines(0), coldLines(h, st.Current().Reader())) {
		t.Fatal("maintained fragment diverged from cold extraction")
	}

	// The next transition leaves the maintained epoch and is patched again.
	ns := m.Notify(st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTriple("c", "d")}}), nil)
	if ns.Removed != 1 || ns.Reextracted != 1 || m.Epoch() != 4 {
		t.Fatalf("notify after the gap: %+v, epoch %d", ns, m.Epoch())
	}
	if ev, _ := recv(t, sub); ev.Epoch != 4 || !equalLines(decode(t, ev).Removed, []string{line("c", "d")}) {
		t.Fatalf("event after the gap: %+v", ev)
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("a no-op notify emitted %+v", ev)
	default:
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
// scrambled order — a late one is a no-op, an early one rebuilds — while a
// subscriber folds the event stream into its own copy of the fragment. At the end, maintained state, the subscriber's
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
// stream. Maintenance re-extracts the candidates through compiled plans;
// the oracle is the AST walker over all of N(G). One definition has no
// candidate set and takes the N(G) fallback.
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

// faultySnap is a snapshot whose reader's indexes panic, a stand-in for a
// bug in an extraction rule or a corrupt index reached by maintenance.
type faultySnap struct{ store.Snapshot }

func (s faultySnap) Reader() rdfgraph.Reader { return faultyReader{s.Snapshot.Reader()} }

type faultyReader struct{ rdfgraph.Reader }

func (faultyReader) EdgesByPredicate(rdfgraph.ID) []rdfgraph.Edge { panic("index corrupted") }
func (faultyReader) Endpoints(rdfgraph.ID, bool) []rdfgraph.ID    { panic("index corrupted") }
func (faultyReader) Objects(rdfgraph.ID, rdfgraph.ID, func(rdfgraph.ID)) {
	panic("index corrupted")
}

// TestPanickingNotifyEvictsShape: an extraction that panics at one epoch
// costs the shape's subscribers their stream and nothing else. Notify
// reports the panic, the shape is dropped and its subscriber closed with
// ReasonEvicted, the epoch advances and later updates keep being applied
// rather than stashed behind the failed one, and a new subscriber gets a
// snapshot of the current epoch followed by deltas.
func TestPanickingNotifyEvictsShape(t *testing.T) {
	m, st, h := newMaintainer(t, live.Config{})
	sub, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	res := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("e", "f")}})
	res.Snapshot = faultySnap{res.Snapshot}
	stats := m.Notify(res, nil)
	var pe *core.PanicError
	if !errors.As(stats.Err, &pe) || pe.Value != "index corrupted" {
		t.Fatalf("Notify over a panicking reader: Err = %v, want the *core.PanicError", stats.Err)
	}
	if ev, ok := recv(t, sub); ok || sub.Reason() != live.ReasonEvicted {
		t.Fatalf("subscriber got %+v (open %v, reason %q), want its stream closed as evicted", ev, ok, sub.Reason())
	}
	if got := m.Stats(); got.Shapes != 0 || got.Subscribers != 0 {
		t.Fatalf("after the panic: %d shapes, %d subscribers maintained, want none", got.Shapes, got.Subscribers)
	}

	for i := 0; i < 5; i++ {
		res := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple(fmt.Sprintf("n%d", i), "x")}})
		if stats := m.Notify(res, nil); m.Epoch() != res.Snapshot.Epoch() || stats.Err != nil {
			t.Fatalf("update %d after the panic: %+v (epoch %d)", i, stats, m.Epoch())
		}
	}
	if got, want := m.Epoch(), st.Current().Epoch(); got != want || want != 7 {
		t.Fatalf("maintainer epoch %d, store epoch %d, want both 7", got, want)
	}

	sub, initial, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(sub)
	if len(initial) != 1 || initial[0].Type != live.EventSnapshot || initial[0].Epoch != 7 {
		t.Fatalf("resubscription initial events %+v, want one snapshot at epoch 7", initial)
	}
	if got, want := decode(t, initial[0]).Added, coldLines(h, st.Current().Reader()); !equalLines(got, want) {
		t.Fatalf("snapshot after the panic:\ngot  %q\nwant %q", got, want)
	}
	m.Notify(st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTriple("g", "h")}}), nil)
	ev, ok := recv(t, sub)
	if !ok || ev.Type != live.EventDelta || ev.Epoch != 8 {
		t.Fatalf("after resubscribing: event %+v (open %v), want the epoch 8 delta", ev, ok)
	}
	if body := decode(t, ev); !equalLines(body.Added, []string{line("g", "h")}) || len(body.Removed) != 0 {
		t.Fatalf("epoch 8 delta %+v", body)
	}
}
