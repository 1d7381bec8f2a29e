package live_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

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

// TestDeltaHistoryExact checks every delta of a seeded 100-update history,
// not only the folded end state: after each step, for every definition,
// the event's "added" lines are exactly cold Frag(e+1) \ Frag(e) and its
// "removed" lines exactly Frag(e) \ Frag(e+1), both in canonical order, and
// a step that leaves a fragment unchanged emits no event for it. The graph
// is a typed Tyrol graph maintained through compiled plans; the updates add
// reviews, strip a review's type (it stays in N(G) but stops being a
// class-target candidate), delete every triple of a review or a person (the
// node leaves N(G)), and toggle a lodging's name (the unnamed definition has
// no candidate set and takes the N(G) fallback). The oracle is the AST
// walker over all of N(G). Each step must also re-extract exactly the
// distinct foci the definitions' footprint walks reach (NotifyStats
// .Reextracted), and at least nine steps in ten fewer foci than a
// whole-fragment extraction visits.
func TestDeltaHistoryExact(t *testing.T) {
	const steps, individuals = 100, 120
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 7})
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
		Schema: h, Requests: requests, Queue: 4, Replay: 4,
		Plans: func(def int) *plan.Program { return progs[def] },
	}, st.Current())

	subs := make([]*live.Subscription, len(requests))
	prev := make([][]string, len(requests))
	for def := range requests {
		sub, initial, err := m.Subscribe(def, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Unsubscribe(sub)
		subs[def] = sub
		prev[def] = coldLinesOf(h, st.Current().Reader(), def)
		if got := decode(t, initial[0]).Added; !slices.Equal(got, prev[def]) {
			t.Fatalf("definition %d: snapshot differs from cold extraction", def)
		}
		// Materialized focus by focus, the fragment is FragmentParallelIDs'.
		g := st.Current().Reader()
		ids, _, err := core.NewExtractor(g, h).FragmentParallelIDs(requests[def:def+1], core.ParallelOptions{
			Workers: 1, Plans: &plan.Set{Programs: progs[def : def+1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(ids))
		for i, tr := range ids {
			want[i] = g.Dict().Triple(tr).String() + " ."
		}
		if got := m.FragmentLines(def); !slices.Equal(got, want) {
			t.Fatalf("definition %d: materialized %d lines, FragmentParallelIDs %d", def, len(got), len(want))
		}
	}

	rng := rand.New(rand.NewSource(42))
	typ := rdf.NewIRI(rdf.RDFType)
	node := func(kind string, k int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("%s%s/%d", datagen.NS, kind, k))
	}
	// instances lists the current epoch's instances of class c.
	instances := func(g rdfgraph.Reader, c rdf.Term) []rdf.Term {
		var out []rdf.Term
		if p, o := g.LookupTerm(typ), g.LookupTerm(c); p != rdfgraph.NoID && o != rdfgraph.NoID {
			g.Subjects(p, o, func(s rdfgraph.ID) { out = append(out, g.Term(s)) })
		}
		slices.SortFunc(out, rdf.Compare)
		return out
	}
	// touching lists every triple v is the subject or object of.
	touching := func(g rdfgraph.Reader, v rdf.Term) []rdf.Triple {
		id := g.LookupTerm(v)
		var out []rdf.Triple
		g.PredicatesFrom(id, func(p, o rdfgraph.ID) { out = append(out, rdf.T(v, g.Term(p), g.Term(o))) })
		g.PredicatesTo(id, func(s, p rdfgraph.ID) { out = append(out, rdf.T(g.Term(s), g.Term(p), v)) })
		return out
	}
	var kinds [5]int
	var events, added, removed int // over all steps and definitions
	var fallbacks, narrowed int    // steps
	footprints := make([]*shape.Footprint, len(requests))
	for def, r := range requests {
		footprints[def] = shape.NewFootprint(r, h)
	}
	for step := 0; step < steps; step++ {
		g := st.Current().Reader()
		reviews, persons := instances(g, datagen.ClassReview), instances(g, datagen.ClassPerson)
		lodging := node("lodging", rng.Intn(individuals*20/100)) // lodgings never leave
		kind := rng.Intn(5)
		if (kind == 1 || kind == 2) && len(reviews) == 0 || kind == 3 && len(persons) < 2 {
			kind = 0 // nothing left to delete: add a review instead
		}
		kinds[kind]++
		var delta rdfgraph.Delta
		switch kind {
		case 0: // a fresh review, typed and wired into a lodging
			r := node("review", 5000+step)
			delta.Add = []rdf.Triple{
				rdf.T(r, typ, datagen.ClassReview),
				rdf.T(r, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(int64(1+rng.Intn(5)))),
				rdf.T(r, rdf.NewIRI(datagen.PropAuthor), persons[rng.Intn(len(persons))]),
				rdf.T(lodging, rdf.NewIRI(datagen.PropReview), r),
			}
		case 1: // a review loses its type: still in N(G), no longer a candidate
			delta.Del = []rdf.Triple{rdf.T(reviews[rng.Intn(len(reviews))], typ, datagen.ClassReview)}
		case 2: // a review leaves N(G)
			delta.Del = touching(g, reviews[rng.Intn(len(reviews))])
		case 3: // a person leaves N(G): reviews lose their author
			delta.Del = touching(g, persons[rng.Intn(len(persons))])
		case 4: // a lodging's name comes or goes
			name := rdf.NewIRI(datagen.PropName)
			for _, tr := range touching(g, lodging) {
				if tr.S == lodging && tr.P == name {
					delta.Del = append(delta.Del, tr)
				}
			}
			if delta.Del == nil {
				delta.Add = []rdf.Triple{rdf.T(lodging, name, rdf.NewLangString("renamed", "en"))}
			}
		}
		res := st.Apply(delta)
		if !res.Changed {
			t.Fatalf("step %d: delta %+v was a no-op", step, delta)
		}
		stats := m.Notify(res, nil)
		if got := m.Epoch(); got != res.Snapshot.Epoch() {
			t.Fatalf("step %d: Notify left the maintainer at epoch %d, want %d", step, got, res.Snapshot.Epoch())
		}
		// Reextracted is |R|: per definition, the distinct foci its
		// footprint walk reaches from the effective delta on the base epoch
		// — unless a walk passed its cap and that definition fell back to
		// every candidate.
		reached, candidates, fellBack := 0, 0, false
		w := shape.NewFocusWalker(res.Base.Reader())
		x := core.NewExtractor(res.Snapshot.Reader(), h)
		for def, fp := range footprints {
			foci, ok := core.Reach(fp, w, res.Snapshot.Reader(), res.Effective, nil)
			slices.Sort(foci)
			reached += len(slices.Compact(foci))
			fellBack = fellBack || !ok
			var all []rdfgraph.ID
			candidates += len(x.Evaluator().FocusNodes(shape.NNF(requests[def]), &all))
		}
		switch {
		case fellBack:
			fallbacks++
		case stats.Reextracted != reached:
			t.Fatalf("step %d: re-extracted %d foci, the footprint walks reach %d", step, stats.Reextracted, reached)
		}
		if stats.Reextracted < candidates {
			narrowed++
		}
		epoch := res.Snapshot.Epoch()
		for def, sub := range subs {
			cur := coldLinesOf(h, res.Snapshot.Reader(), def)
			wantAdded, wantRemoved := minus(cur, prev[def]), minus(prev[def], cur)
			prev[def] = cur
			var got eventBody
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					t.Fatalf("step %d, definition %d: subscription closed (%s)", step, def, sub.Reason())
				}
				if ev.Epoch != epoch {
					t.Fatalf("step %d, definition %d: event for epoch %d, want %d", step, def, ev.Epoch, epoch)
				}
				got = decode(t, ev)
				if len(got.Added) == 0 && len(got.Removed) == 0 {
					t.Fatalf("step %d, definition %d: empty delta event", step, def)
				}
				events, added, removed = events+1, added+len(got.Added), removed+len(got.Removed)
			default: // no event: the fragment must not have moved
			}
			if !slices.Equal(got.Added, wantAdded) || !slices.Equal(got.Removed, wantRemoved) {
				t.Fatalf("step %d, definition %d: delta +%d -%d lines, cold difference +%d -%d\ngot added   %q\nwant added  %q\ngot removed  %q\nwant removed %q",
					step, def, len(got.Added), len(got.Removed), len(wantAdded), len(wantRemoved),
					got.Added, wantAdded, got.Removed, wantRemoved)
			}
			for _, l := range got.Added {
				if slices.Contains(got.Removed, l) {
					t.Fatalf("step %d, definition %d: %s both added and removed", step, def, l)
				}
			}
		}
	}
	for kind, n := range kinds {
		if n == 0 {
			t.Errorf("update kind %d never drawn in %d steps", kind, steps)
		}
	}
	t.Logf("update kinds %v: %d delta events, +%d -%d lines; %d steps re-extracted fewer foci than the candidates, %d fell back",
		kinds, events, added, removed, narrowed, fallbacks)
	if narrowed < steps*9/10 {
		t.Errorf("only %d of %d steps re-extracted fewer foci than the candidates", narrowed, steps)
	}
	if added == 0 || removed == 0 {
		t.Errorf("the history never added (%d) or never removed (%d) a fragment line", added, removed)
	}
}

// minus returns the lines of a not in b, keeping a's order.
func minus(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}
