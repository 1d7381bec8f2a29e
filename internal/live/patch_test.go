package live_test

import (
	"fmt"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/live"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

func exTripleP(s, p, o string) rdf.Triple { return rdf.T(ex(s), ex(p), ex(o)) }

func lineP(s, p, o string) string { return exTripleP(s, p, o).String() + " ." }

// nested is ≥1 p.(≥1 q.⊤).
var nested = shape.Min(1, paths.P("http://ex/p"), shape.Min(1, paths.P("http://ex/q"), shape.TrueShape()))

// nestedMaintainer maintains the one definition nested, shape and target
// alike, over triples, with a subscriber draining nothing.
func nestedMaintainer(t *testing.T, triples ...rdf.Triple) (*live.Maintainer, store.Store, *schema.Schema, *live.Subscription) {
	t.Helper()
	return maintainerOf(t, nested, triples...)
}

// maintainerOf is nestedMaintainer for the definition phi.
func maintainerOf(t *testing.T, phi shape.Shape, triples ...rdf.Triple) (*live.Maintainer, store.Store, *schema.Schema, *live.Subscription) {
	t.Helper()
	h := schema.MustNew(schema.Definition{Name: ex("S"), Shape: phi, Target: phi})
	g := rdfgraph.FromTriples(triples)
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := live.NewMaintainer(live.Config{Schema: h, Requests: core.SchemaRequests(h)}, st.Current())
	sub, _, err := m.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Unsubscribe(sub) })
	return m, st, h, sub
}

// candidates counts the focus nodes a whole-fragment extraction of h's
// first definition visits on g: what a step that falls back re-extracts.
func candidates(h *schema.Schema, g rdfgraph.Reader) int {
	var all []rdfgraph.ID
	x := core.NewExtractor(g, h)
	return len(x.Evaluator().FocusNodes(shape.NNF(core.SchemaRequests(h)[0]), &all))
}

// expectDelta receives one event and checks it is exactly the cold
// difference between the fragments before and after.
func expectDelta(t *testing.T, sub *live.Subscription, before, after []string) {
	t.Helper()
	ev, ok := recv(t, sub)
	if !ok {
		t.Fatalf("subscription closed (%s)", sub.Reason())
	}
	body := decode(t, ev)
	if want := minus(after, before); !equalLines(body.Added, want) {
		t.Errorf("added %q, want %q", body.Added, want)
	}
	if want := minus(before, after); !equalLines(body.Removed, want) {
		t.Errorf("removed %q, want %q", body.Removed, want)
	}
}

// TestSupportCountsKeepSharedTriples: two foci share the triple c q d
// through a nested path. Deleting a's edge re-extracts a alone, and c q d
// stays because b still supports it; deleting b's edge then takes it out.
func TestSupportCountsKeepSharedTriples(t *testing.T) {
	m, st, h, sub := nestedMaintainer(t, exTripleP("a", "p", "c"), exTripleP("b", "p", "c"), exTripleP("c", "q", "d"))

	ns := m.Notify(st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTripleP("a", "p", "c")}}), nil)
	if ns.Reextracted != 1 || ns.Err != nil {
		t.Fatalf("deleting a p c: %+v, want one focus (a) re-extracted", ns)
	}
	ev, _ := recv(t, sub)
	if body := decode(t, ev); len(body.Added) != 0 || !equalLines(body.Removed, []string{lineP("a", "p", "c")}) {
		t.Fatalf("deleting a p c: event %+v, want only that edge removed", body)
	}
	if got, want := m.FragmentLines(0), coldLines(h, st.Current().Reader()); !equalLines(got, want) {
		t.Fatalf("after deleting a p c:\ngot  %q\nwant %q", got, want)
	}

	m.Notify(st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTripleP("b", "p", "c")}}), nil)
	ev, _ = recv(t, sub)
	if body := decode(t, ev); len(body.Added) != 0 || !equalLines(body.Removed, []string{lineP("b", "p", "c"), lineP("c", "q", "d")}) {
		t.Fatalf("deleting b p c: event %+v, want b p c and c q d removed", body)
	}
	if got := m.FragmentLines(0); len(got) != 0 {
		t.Fatalf("after deleting both edges the fragment is %q, want empty", got)
	}

	// Re-adding one edge counts c q d once more.
	m.Notify(st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTripleP("b", "p", "c")}}), nil)
	ev, _ = recv(t, sub)
	if body := decode(t, ev); !equalLines(body.Added, []string{lineP("b", "p", "c"), lineP("c", "q", "d")}) || len(body.Removed) != 0 {
		t.Fatalf("re-adding b p c: event %+v", body)
	}
}

// TestFallbackPastWalkCap: a q-edge on a hub with more p-predecessors
// than shape.MaxFootprintWalk sends the footprint walk past its cap, so
// the step rebuilds the counts from every focus candidate, and its event
// is still exactly the cold difference.
func TestFallbackPastWalkCap(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i <= shape.MaxFootprintWalk; i++ {
		triples = append(triples, exTripleP(fmt.Sprintf("v%d", i), "p", "hub"))
	}
	m, st, h, sub := nestedMaintainer(t, append(triples, exTripleP("x", "p", "y"), exTripleP("y", "q", "w"))...)

	before := coldLines(h, st.Current().Reader())
	res := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTripleP("hub", "q", "z")}})
	fp := shape.NewFootprint(core.SchemaRequests(h)[0], h)
	if _, ok := core.Reach(fp, shape.NewFocusWalker(res.Base.Reader()), res.Snapshot.Reader(), res.Effective, nil); ok {
		t.Fatal("the walk stayed under its cap: the fixture does not exercise the fallback")
	}
	ns := m.Notify(res, nil)
	if want := candidates(h, res.Snapshot.Reader()); ns.Reextracted != want || ns.Err != nil || ns.WalkErr != nil {
		t.Fatalf("notify %+v, want the fallback's %d candidates re-extracted", ns, want)
	}
	after := coldLines(h, res.Snapshot.Reader())
	expectDelta(t, sub, before, after)
	if got := m.FragmentLines(0); !equalLines(got, after) {
		t.Fatal("the rebuilt fragment differs from cold extraction")
	}
}

// TestStarShapeKeepsNoCounts: a shape that reads a path under a Kleene
// star keeps no support counts. Every update re-extracts its whole
// fragment, so Reextracted is every candidate and the footprint is never
// walked (a base epoch that panics when read goes unnoticed), and every
// event is the cold difference.
func TestStarShapeKeepsNoCounts(t *testing.T) {
	star := shape.Min(1, paths.Star{X: paths.P("http://ex/p")}, shape.Min(1, paths.P("http://ex/q"), shape.TrueShape()))
	m, st, h, sub := maintainerOf(t, star,
		exTripleP("a", "p", "b"), exTripleP("b", "p", "c"), exTripleP("c", "q", "d"), exTripleP("e", "p", "a"))
	for i, d := range []rdfgraph.Delta{
		{Del: []rdf.Triple{exTripleP("c", "q", "d")}},
		{Add: []rdf.Triple{exTripleP("b", "q", "f")}},
		{Add: []rdf.Triple{exTripleP("f", "p", "e")}}, // closes a cycle
		{Del: []rdf.Triple{exTripleP("a", "p", "b")}},
	} {
		before := coldLines(h, st.Current().Reader())
		res := st.Apply(d)
		res.Base = panickySnap{res.Base}
		ns := m.Notify(res, nil)
		if want := candidates(h, res.Snapshot.Reader()); ns.Reextracted != want || ns.Err != nil || ns.WalkErr != nil {
			t.Fatalf("update %d: notify %+v, want all %d candidates re-extracted and no walk", i, ns, want)
		}
		after := coldLines(h, res.Snapshot.Reader())
		expectDelta(t, sub, before, after)
		if got := m.FragmentLines(0); !slices.Equal(got, after) {
			t.Fatalf("update %d: maintained %q, cold %q", i, got, after)
		}
	}
}

// panickySnap is a snapshot whose reader panics on Subjects: a backward
// footprint walk over a forward step calls it, extraction of ≥1 p.… does
// not.
type panickySnap struct{ store.Snapshot }

func (s panickySnap) Reader() rdfgraph.Reader { return panickyReader{s.Snapshot.Reader()} }

type panickyReader struct{ rdfgraph.Reader }

func (panickyReader) Subjects(rdfgraph.ID, rdfgraph.ID, func(rdfgraph.ID)) { panic("walk corrupted") }

// TestFallbackOnPanickingWalk: a walk that panics on the base epoch makes
// the step rebuild from the new epoch, which it reads correctly, so the
// shape stays maintained and its event is the cold difference. Then a
// result that records no delta rebuilds too.
func TestFallbackOnPanickingWalk(t *testing.T) {
	m, st, h, sub := nestedMaintainer(t, exTripleP("a", "p", "c"), exTripleP("b", "p", "e"), exTripleP("c", "q", "d"))

	before := coldLines(h, st.Current().Reader())
	res := st.Apply(rdfgraph.Delta{Add: []rdf.Triple{exTripleP("e", "q", "f")}})
	res.Base = panickySnap{res.Base}
	ns := m.Notify(res, nil)
	if want := candidates(h, res.Snapshot.Reader()); ns.Reextracted != want || ns.Err != nil || ns.WalkErr == nil {
		t.Fatalf("notify over a panicking walk: %+v, want the walk's panic and the fallback's %d candidates re-extracted", ns, want)
	}
	after := coldLines(h, res.Snapshot.Reader())
	expectDelta(t, sub, before, after)
	if got := m.Stats().Shapes; got != 1 {
		t.Fatalf("%d shapes maintained after the fallback, want 1", got)
	}

	before = after
	res = st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTripleP("c", "q", "d")}})
	res.Effective = nil // as a hand-built result carries none
	ns = m.Notify(res, nil)
	if want := candidates(h, res.Snapshot.Reader()); ns.Reextracted != want || ns.Err != nil || ns.WalkErr != nil {
		t.Fatalf("notify without a recorded delta: %+v, want the fallback's %d candidates re-extracted", ns, want)
	}
	after = coldLines(h, res.Snapshot.Reader())
	expectDelta(t, sub, before, after)

	// Counts rebuilt by the fallback keep later patches exact.
	before = after
	ns = m.Notify(st.Apply(rdfgraph.Delta{Del: []rdf.Triple{exTripleP("e", "q", "f")}}), nil)
	if ns.Reextracted != 1 {
		t.Fatalf("patch after the fallbacks: %+v, want one focus (b) re-extracted", ns)
	}
	after = coldLines(h, st.Current().Reader())
	expectDelta(t, sub, before, after)
	if got := m.FragmentLines(0); !slices.Equal(got, after) {
		t.Fatalf("maintained %q, cold %q", got, after)
	}
}
