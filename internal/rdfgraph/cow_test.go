package rdfgraph_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// model is the plain-map reference of one epoch: its triple set, encoded
// (IDs are stable across CloneCOW epochs).
type model map[rdfgraph.IDTriple]struct{}

// TestCOWEpochsIsolatedProperty replays seeded add/delete histories as a
// chain of CloneCOW epochs over 1 100 initial nodes — five node-index
// pages — with deltas that intern unseen terms and remove every triple of
// some nodes. Two hubs, a subject and an object with a few hundred pairs
// under two predicates each, span many chunks of their rows: every epoch
// adds pairs at random places in them, which splits chunks, and deletes a
// run of half of one hub predicate's pairs, which empties whole chunks;
// halfway, the object hub loses every triple and its row, and the hubs
// gain no pair in that epoch. After every step, every retained epoch must
// still answer every accessor exactly as its reference model does, the
// per-predicate edge scans and posting lists included. The concurrent
// variant reads epoch n while epoch n+1 is being written, which the race
// detector turns into a failure if a write lands on a shared page, row
// directory or chunk.
func TestCOWEpochsIsolatedProperty(t *testing.T) {
	steps := 16
	if testing.Short() {
		steps = 8
	}
	for _, concurrent := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("concurrent=%v/seed=%d", concurrent, seed), func(t *testing.T) {
				cowHistory(t, rand.New(rand.NewSource(seed)), steps, concurrent)
			})
		}
	}
}

func cowHistory(t *testing.T, rng *rand.Rand, steps int, concurrent bool) {
	const nodes = 1100
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://x/n%d", i)) }
	pred := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://x/p%d", i)) }
	random := func(fresh *int) rdf.Triple {
		o := node(rng.Intn(nodes))
		switch rng.Intn(6) {
		case 0:
			o = rdf.NewString(fmt.Sprintf("lit %d", rng.Intn(50)))
		case 1:
			*fresh++
			o = rdf.NewIRI(fmt.Sprintf("http://x/unseen%d", *fresh))
		}
		return rdf.Triple{S: node(rng.Intn(nodes)), P: pred(rng.Intn(4)), O: o}
	}
	hubS, hubO := rdf.NewIRI("http://x/hubS"), rdf.NewIRI("http://x/hubO")
	hub := func() rdf.Triple { // hubS under p0 or p1, hubO under p2 or p3
		n, k := node(rng.Intn(nodes)), rng.Intn(2)
		if rng.Intn(2) == 0 {
			return rdf.Triple{S: hubS, P: pred(k), O: n}
		}
		return rdf.Triple{S: n, P: pred(2 + k), O: hubO}
	}

	g := rdfgraph.New()
	// Terms no triple uses push the nodes' IDs across the first posting
	// bitmap page boundary, at 4 096.
	for i := 0; i < 3500; i++ {
		g.TermID(rdf.NewIRI(fmt.Sprintf("http://x/unused%d", i)))
	}
	cur := model{}
	add := func(g *rdfgraph.Graph, m model, tr rdf.Triple) {
		g.Add(tr)
		m[rdfgraph.IDTriple{S: g.LookupTerm(tr.S), P: g.LookupTerm(tr.P), O: g.LookupTerm(tr.O)}] = struct{}{}
	}
	for i := 0; i < nodes; i++ {
		add(g, cur, rdf.Triple{S: node(i), P: pred(i % 4), O: node((i*7 + 1) % nodes)})
	}
	fresh := 0
	for i := 0; i < nodes; i++ {
		add(g, cur, random(&fresh))
	}
	for i := 0; i < 1400; i++ {
		add(g, cur, hub())
	}
	g.Freeze()
	epochs, models := []*rdfgraph.Graph{g}, []model{cur}

	for step := 0; step < steps; step++ {
		prev := epochs[len(epochs)-1]
		next := make(model, len(cur))
		for tr := range cur {
			next[tr] = struct{}{}
		}
		var del []rdfgraph.IDTriple
		for tr := range cur {
			if rng.Intn(20) == 0 {
				del = append(del, tr)
			}
		}
		// A run of half the pairs of one hub predicate, in row order: the
		// hub is one end of every triple, so (S, O) order is that order.
		var run []rdfgraph.IDTriple
		sp, hs, ho := prev.LookupTerm(pred(rng.Intn(4))), prev.LookupTerm(hubS), prev.LookupTerm(hubO)
		for tr := range cur {
			if tr.P == sp && (tr.S == hs || tr.O == ho) {
				run = append(run, tr)
			}
		}
		slices.SortFunc(run, func(a, b rdfgraph.IDTriple) int {
			return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
		})
		if len(run) > 1 {
			start := rng.Intn(len(run) / 2)
			del = append(del, run[start:start+len(run)/2]...)
		}
		// Two nodes lose every triple, and with them their rows; halfway,
		// one of them is the object hub.
		for k := 0; k < 2; k++ {
			gone := prev.LookupTerm(node(rng.Intn(nodes)))
			if k == 0 && step == steps/2 {
				gone = prev.LookupTerm(hubO)
			}
			for tr := range cur {
				if tr.S == gone || tr.O == gone {
					del = append(del, tr)
				}
			}
		}

		var wg sync.WaitGroup
		if concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checkEpoch(t, prev, models[len(models)-1])
			}()
		}
		ng := prev.CloneCOW()
		for _, tr := range del {
			ng.RemoveIDs(tr.S, tr.P, tr.O)
			delete(next, tr)
		}
		for k := 0; k < 60; k++ {
			add(ng, next, random(&fresh))
			if step != steps/2 {
				add(ng, next, hub())
			}
		}
		ng.Freeze()
		wg.Wait()
		epochs, models, cur = append(epochs, ng), append(models, next), next
		for i := range epochs {
			if !checkEpoch(t, epochs[i], models[i]) {
				t.Fatalf("step %d: epoch %d diverged from its model", step, i)
			}
		}
	}
}

// checkEpoch compares every read accessor of g against m, reporting
// whether all agree.
func checkEpoch(t *testing.T, g *rdfgraph.Graph, m model) bool {
	ok := true
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		ok = false
	}
	nodes := map[rdfgraph.ID]bool{}
	for tr := range m {
		nodes[tr.S], nodes[tr.O] = true, true
	}
	got := g.Triples()
	if len(got) != len(m) || g.Len() != len(m) || !slices.IsSortedFunc(got, rdf.CompareTriples) {
		fail("Triples: %d triples (sorted %v), Len %d, model %d",
			len(got), slices.IsSortedFunc(got, rdf.CompareTriples), g.Len(), len(m))
	}
	for _, tr := range got {
		if _, in := m[rdfgraph.IDTriple{S: g.LookupTerm(tr.S), P: g.LookupTerm(tr.P), O: g.LookupTerm(tr.O)}]; !in {
			fail("Triples yields %v, absent from the model", tr)
		}
	}
	ids := g.NodeIDs()
	if len(ids) != len(nodes) || !slices.IsSorted(ids) {
		fail("NodeIDs: %d ids (sorted %v), model %d nodes", len(ids), slices.IsSorted(ids), len(nodes))
	}
	for _, id := range ids {
		if !nodes[id] {
			fail("NodeIDs lists %v, not a node of the model", g.Term(id))
		}
	}
	for id := rdfgraph.ID(-1); int(id) <= g.Dict().Len()+300; id++ {
		if g.IsNode(id) != nodes[id] {
			fail("IsNode(%d) = %v, model %v", id, g.IsNode(id), nodes[id])
		}
	}

	// Each accessor rebuilds the triple set from its own direction.
	from, to, objs, subs := model{}, model{}, model{}, model{}
	for id := range rdfgraph.ID(g.Dict().Len()) {
		g.PredicatesFrom(id, func(p, o rdfgraph.ID) { from[rdfgraph.IDTriple{S: id, P: p, O: o}] = struct{}{} })
		g.PredicatesTo(id, func(s, p rdfgraph.ID) { to[rdfgraph.IDTriple{S: s, P: p, O: id}] = struct{}{} })
	}
	for tr := range m {
		if !g.HasIDs(tr.S, tr.P, tr.O) {
			fail("HasIDs misses %v", g.Dict().Triple(tr))
		}
		g.Objects(tr.S, tr.P, func(o rdfgraph.ID) { objs[rdfgraph.IDTriple{S: tr.S, P: tr.P, O: o}] = struct{}{} })
		g.Subjects(tr.P, tr.O, func(s rdfgraph.ID) { subs[rdfgraph.IDTriple{S: s, P: tr.P, O: tr.O}] = struct{}{} })
	}
	for name, got := range map[string]model{"PredicatesFrom": from, "PredicatesTo": to, "Objects": objs, "Subjects": subs} {
		if len(got) != len(m) {
			fail("%s yields %d triples, model %d", name, len(got), len(m))
			continue
		}
		for tr := range got {
			if _, in := m[tr]; !in {
				fail("%s yields %v, absent from the model", name, g.Dict().Triple(tr))
			}
		}
	}

	// Per predicate: its edges in (S, O) order, and its posting lists.
	edges := map[rdfgraph.ID][]rdfgraph.Edge{}
	for tr := range m {
		edges[tr.P] = append(edges[tr.P], rdfgraph.Edge{S: tr.S, O: tr.O})
	}
	for i := 0; i < 5; i++ { // p4 is never used: an absent predicate
		p := g.LookupTerm(rdf.NewIRI(fmt.Sprintf("http://x/p%d", i)))
		want := edges[p]
		slices.SortFunc(want, func(a, b rdfgraph.Edge) int {
			return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
		})
		if got := g.EdgesByPredicate(p); !slices.Equal(got, want) {
			fail("EdgesByPredicate(p%d): %d edges, model %d (or out of (S, O) order)", i, len(got), len(want))
		}
		var wantSubs, wantObjs []rdfgraph.ID
		for _, e := range want {
			wantSubs, wantObjs = append(wantSubs, e.S), append(wantObjs, e.O)
		}
		for _, c := range []struct {
			inverse bool
			want    []rdfgraph.ID
		}{{false, wantSubs}, {true, wantObjs}} {
			slices.Sort(c.want)
			c.want = slices.Compact(c.want)
			got := g.Endpoints(p, c.inverse)
			if !slices.Equal(got, c.want) || cap(got) != len(got) {
				fail("Endpoints(p%d, %v): %d ids (capacity %d), model %d", i, c.inverse, len(got), cap(got), len(c.want))
			}
		}
	}
	return ok
}
