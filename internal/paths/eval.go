package paths

import (
	"cmp"
	"errors"
	"math/bits"
	"slices"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// productState is a node of the product of the NFA with the graph.
type productState struct {
	node  rdfgraph.ID
	state int
}

// key packs ps into one word, exactly for the whole ID range: a focus node
// may be any interned term, and NoID is -1.
func (ps productState) key() uint64 {
	return uint64(uint32(ps.node))<<32 | uint64(uint32(ps.state))
}

// stateTable numbers the product states of one search 0, 1, 2, … in order of
// discovery: an open-addressed table from a state's key to that id, probed
// linearly, with no deletion. A slot belongs to the current search iff its
// gen is the table's, so reset is one increment; the table doubles when half
// full and never shrinks: the largest search sizes it, not the dictionary.
type stateTable struct {
	slots []stateSlot // a power of two long, or empty
	shift uint        // 64 - log2(len(slots)): a hash's top bits index slots
	gen   uint32
	n     int32 // ids handed out since reset
}

type stateSlot struct {
	key uint64
	id  int32
	gen uint32
}

// reset empties the table. Fresh slots carry gen 0, which is never current;
// when the increment wraps, old stamps would come round again, so they go.
func (t *stateTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// slot returns key's slot, or the free one an insert of key would fill; add
// keeps one free in a table that is not empty.
func (t *stateTable) slot(key uint64) *stateSlot {
	mask := len(t.slots) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen || s.key == key {
			return s
		}
	}
}

// find returns key's id, or -1 if it was not added since reset.
func (t *stateTable) find(key uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	if s := t.slot(key); s.gen == t.gen {
		return s.id
	}
	return -1
}

// add returns key's id, handing out the next one if key is new.
func (t *stateTable) add(key uint64) (id int32, added bool) {
	if 2*(int(t.n)+1) > len(t.slots) {
		t.grow()
	}
	s := t.slot(key)
	if s.gen == t.gen {
		return s.id, false
	}
	*s = stateSlot{key: key, id: t.n, gen: t.gen}
	t.n++
	return s.id, true
}

// grow doubles the table, keeping the ids of the current search.
func (t *stateTable) grow() {
	old := t.slots
	t.slots = make([]stateSlot, max(2*len(old), 16))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		if s.gen == t.gen {
			*t.slot(s.key) = s
		}
	}
}

// ErrStopped is the value a search panics with when the stop function
// installed by SetStop reports true. Only a caller that installed one sees
// it, and that caller recovers it.
var ErrStopped = errors.New("paths: search stopped")

// stopEvery is how many product states a search expands between two polls
// of the stop function.
const stopEvery = 4096

// Evaluator evaluates one compiled path expression against one graph. It is
// cheap to construct; reuse one per (expression, graph) pair when evaluating
// many source nodes, as fragment computation does.
//
// An Evaluator is single-goroutine state that owns every buffer a search
// needs: the sets, stacks and edge lists below are cleared and refilled, not
// re-made, so a search allocates nothing once they have grown. What the
// methods return is never that scratch: Eval results are owned slices
// memoized per source (callers hold them across later calls), and
// TraceUnionIDs returns a fresh slice.
type Evaluator struct {
	g   rdfgraph.Reader
	nfa *NFA
	// memo caches per-source result node sets for repeated evaluation.
	memo map[rdfgraph.ID][]rdfgraph.ID
	// atomic short-circuits the product-automaton machinery for the two
	// overwhelmingly common cases, a property p and its inverse p⁻, whose
	// evaluation and tracing are single index lookups.
	atomic    bool
	atomicFwd bool
	atomicID  rdfgraph.ID

	// stop, when non-nil, is polled every stopEvery expanded product states;
	// ticks counts them across searches.
	stop  func() bool
	ticks int

	// The most recent forward search: order lists the product states
	// reachable from (reachSrc, start) as discovered, reach maps each to its
	// index there — its name in everything below, so only discovery hashes —
	// and ids holds the nodes among them in the accepting state. Kept
	// because extraction asks for the same source back to back — conformance
	// evaluates ⟦E⟧G(v), then the neighborhood traces from v — and for little
	// else: one search bounds the memory. reachOK is false while a search
	// runs, so one that a stop unwinds is never taken for complete.
	reach    stateTable
	order    []productState
	reachSrc rdfgraph.ID
	reachOK  bool
	ids      []rdfgraph.ID

	// Scratch of one trace, indexed like order where it is per state: the
	// product edges inside reach, chained per head state through heads and
	// productEdge.next (both index+1, 0 ends a chain), whether the backward
	// search has reached a state, its stack, and the indices of the edges it
	// crossed.
	edges []productEdge
	heads []int32
	back  []bool
	hits  []int32
	stack []int32

	// cur, curID and curT are the product state being expanded, its index in
	// order, and the NFA transition. The graph callbacks read them from here
	// and are bound once, below: a func literal in the search loops would
	// escape through the Reader interface and be heap-allocated per state.
	cur      productState
	curID    int32
	curT     transition
	visit    func(rdfgraph.ID)
	addEdge  func(rdfgraph.ID)
	appendID func(rdfgraph.ID)
}

// NewEvaluator compiles e against g.
func NewEvaluator(e Expr, g rdfgraph.Reader) *Evaluator {
	ev := &Evaluator{g: g, memo: make(map[rdfgraph.ID][]rdfgraph.ID)}
	ev.visit, ev.addEdge, ev.appendID = ev.visitNode, ev.addProductEdge, ev.appendNode
	switch x := e.(type) {
	case Prop:
		ev.atomic, ev.atomicFwd = true, true
		ev.atomicID = g.LookupTerm(rdf.NewIRI(x.IRI))
	case Inverse:
		if p, ok := x.X.(Prop); ok {
			ev.atomic, ev.atomicFwd = true, false
			ev.atomicID = g.LookupTerm(rdf.NewIRI(p.IRI))
		}
	}
	if !ev.atomic {
		ev.nfa = Compile(e, g)
	}
	return ev
}

// SetStop installs a function the searches poll every stopEvery product
// states; once it reports true the running search panics with ErrStopped,
// leaving nothing partial behind: no memo entry, no kept search. The caller
// must recover that panic — core's FragmentParallel and NeighborhoodsCached
// do, mapping it to their context's error — so every other caller leaves
// stop nil.
func (ev *Evaluator) SetStop(stop func() bool) { ev.stop = stop }

// tick counts one expanded product state and polls stop on every
// stopEvery-th.
func (ev *Evaluator) tick() {
	ev.ticks++
	if ev.ticks%stopEvery == 0 && ev.stop != nil && ev.stop() {
		panic(ErrStopped)
	}
}

// Eval returns ⟦E⟧G(a): the sorted set of nodes b with (a, b) ∈ ⟦E⟧G.
// Results are memoized per source node; the slice is the evaluator's and
// stays valid, unchanged, across later calls.
func (ev *Evaluator) Eval(a rdfgraph.ID) []rdfgraph.ID {
	if res, ok := ev.memo[a]; ok {
		return res
	}
	if !ev.atomic {
		ev.forward(a)
	} else {
		ev.ids = ev.ids[:0]
		if ev.atomicID != rdfgraph.NoID {
			if ev.atomicFwd {
				ev.g.Objects(a, ev.atomicID, ev.appendID)
			} else {
				ev.g.Subjects(ev.atomicID, a, ev.appendID)
			}
		}
	}
	// A product state is in reach once, so ids has no duplicate.
	var out []rdfgraph.ID
	if len(ev.ids) > 0 {
		out = slices.Clone(ev.ids)
		slices.Sort(out)
	}
	ev.memo[a] = out
	return out
}

func (ev *Evaluator) appendNode(n rdfgraph.ID) { ev.ids = append(ev.ids, n) }

// Holds reports whether (a, b) ∈ ⟦E⟧G.
func (ev *Evaluator) Holds(a, b rdfgraph.ID) bool {
	_, found := slices.BinarySearch(ev.Eval(a), b)
	return found
}

// forward makes reach, order and ids those of source a: the product states
// reachable from (a, start). The search just before is kept, so asking for
// the same source again costs nothing.
func (ev *Evaluator) forward(a rdfgraph.ID) {
	if ev.reachOK && ev.reachSrc == a {
		return
	}
	ev.reachOK = false
	ev.reach.reset()
	ev.order = ev.order[:0]
	ev.ids = ev.ids[:0]
	n := ev.nfa
	ev.push(productState{node: a, state: n.start})
	for i := 0; i < len(ev.order); i++ { // order is the queue: push appends to it
		ev.tick()
		ps := ev.order[i]
		for _, q := range n.eps[ps.state] {
			ev.push(productState{node: ps.node, state: q})
		}
		for _, t := range n.trans[ps.state] {
			if t.pred == rdfgraph.NoID {
				continue
			}
			ev.curT = t
			if t.fwd {
				ev.g.Objects(ps.node, t.pred, ev.visit)
			} else {
				ev.g.Subjects(t.pred, ps.node, ev.visit)
			}
		}
	}
	ev.reachSrc, ev.reachOK = a, true
}

// push adds ps to the forward search unless it is there already.
func (ev *Evaluator) push(ps productState) {
	if _, added := ev.reach.add(ps.key()); !added {
		return
	}
	ev.order = append(ev.order, ps)
	if ps.state == ev.nfa.accept {
		ev.ids = append(ev.ids, ps.node)
	}
}

// visitNode is forward's graph callback: n is one step along curT away.
func (ev *Evaluator) visitNode(n rdfgraph.ID) {
	ev.push(productState{node: n, state: ev.curT.to})
}

// productEdge is one edge of the product of the NFA with the graph,
// restricted to a forward-reachable set, remembering the graph triple it
// rides on and the step direction of the NFA transition it instantiates.
// from and to index order.
type productEdge struct {
	from, to int32
	triple   rdfgraph.IDTriple
	fwd      bool
	next     int32 // the next edge into the same head state, index+1
}

// Step identifies one product-automaton transition a traced triple rides
// on: the NFA states it connects, the predicate consumed, and the step
// direction (forward subject→object, or backward through an inverse).
// The atomic fast path (a bare property or its inverse) reports the
// two-state automaton {0 → 1} it is equivalent to.
type Step struct {
	From, To int
	Pred     rdfgraph.ID
	Fwd      bool
}

// addProductEdge is trace's graph callback: n is one step along curT away
// from cur, and the product edge between them is kept if it stays inside
// the forward set.
func (ev *Evaluator) addProductEdge(n rdfgraph.ID) {
	head := ev.reach.find(productState{node: n, state: ev.curT.to}.key())
	if head < 0 {
		return
	}
	e := productEdge{
		from: ev.curID, to: head,
		triple: rdfgraph.IDTriple{S: ev.cur.node, P: ev.curT.pred, O: n},
		fwd:    ev.curT.fwd,
		next:   ev.heads[head],
	}
	if !e.fwd { // the edge consumes an inverse step: the triple points back
		e.triple.S, e.triple.O = n, ev.cur.node
	}
	ev.edges = append(ev.edges, e)
	ev.heads[head] = int32(len(ev.edges))
}

// pushBack adds the state order[id] to the backward search if it is new;
// id < 0 stands for a state that is not forward-reachable.
func (ev *Evaluator) pushBack(id int32) {
	if id < 0 || ev.back[id] {
		return
	}
	ev.back[id] = true
	ev.stack = append(ev.stack, id)
}

// trace finds every product edge that lies on an accepting walk from a to
// one of the target nodes, returning their indices in ev.edges; both are
// scratch, valid until the next call. It first materializes the product
// edges *within* the (small) forward-reachable set — enumerating only the
// local out-edges of nodes in that set, never the global fan-in of a hub
// node — and then runs a backward search from the accepting target states
// over the chains of edges into each state. An edge is crossed at most
// once, and no two edges share both triple and Step.
func (ev *Evaluator) trace(a rdfgraph.ID, targets []rdfgraph.ID) []int32 {
	ev.edges, ev.hits = ev.edges[:0], ev.hits[:0]
	if len(targets) == 0 {
		return nil
	}
	if ev.atomic {
		if ev.atomicID == rdfgraph.NoID {
			return nil
		}
		for _, b := range targets {
			t := rdfgraph.IDTriple{S: a, P: ev.atomicID, O: b}
			if !ev.atomicFwd {
				t.S, t.O = b, a
			}
			if ev.g.HasIDs(t.S, t.P, t.O) {
				ev.hits = append(ev.hits, int32(len(ev.edges)))
				ev.edges = append(ev.edges, productEdge{triple: t, fwd: ev.atomicFwd})
			}
		}
		return ev.hits
	}
	ev.forward(a)
	n := ev.nfa
	ev.heads = append(ev.heads[:0], make([]int32, len(ev.order))...) // zeroed in place: no allocation
	for id, ps := range ev.order {
		ev.tick()
		ev.cur, ev.curID = ps, int32(id)
		for _, t := range n.trans[ps.state] {
			if t.pred == rdfgraph.NoID {
				continue
			}
			ev.curT = t
			if t.fwd {
				ev.g.Objects(ps.node, t.pred, ev.addEdge)
			} else {
				ev.g.Subjects(t.pred, ps.node, ev.addEdge)
			}
		}
	}

	ev.back = append(ev.back[:0], make([]bool, len(ev.order))...)
	ev.stack = ev.stack[:0]
	for _, b := range targets {
		ev.pushBack(ev.reach.find(productState{node: b, state: n.accept}.key()))
	}
	for len(ev.stack) > 0 {
		ev.tick()
		id := ev.stack[len(ev.stack)-1]
		ev.stack = ev.stack[:len(ev.stack)-1]
		ps := ev.order[id]
		for _, q := range n.repsilon[ps.state] {
			ev.pushBack(ev.reach.find(productState{node: ps.node, state: q}.key()))
		}
		for i := ev.heads[id]; i != 0; i = ev.edges[i-1].next {
			ev.hits = append(ev.hits, i-1)
			ev.pushBack(ev.edges[i-1].from)
		}
	}
	return ev.hits
}

// TraceInto adds ⋃{graph(paths(E, G, a, b)) | b ∈ targets} to out: every
// triple of G lying on some E-path from a to one of the target nodes.
// Neighborhood computation (Table 2) always needs exactly such unions.
func (ev *Evaluator) TraceInto(a rdfgraph.ID, targets []rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	for _, i := range ev.trace(a, targets) {
		out.Add(ev.edges[i].triple)
	}
}

// TraceUnionIDs is TraceInto as a fresh slice: each traced triple once, in
// ID order.
func (ev *Evaluator) TraceUnionIDs(a rdfgraph.ID, targets []rdfgraph.ID) []rdfgraph.IDTriple {
	hits := ev.trace(a, targets)
	if len(hits) == 0 {
		return nil
	}
	ts := make([]rdfgraph.IDTriple, len(hits))
	for k, i := range hits {
		ts[k] = ev.edges[i].triple
	}
	slices.SortFunc(ts, compareTriples)
	return slices.Compact(ts)
}

// compareTriples orders triples by their IDs.
func compareTriples(x, y rdfgraph.IDTriple) int {
	return cmp.Or(cmp.Compare(x.S, y.S), cmp.Compare(x.P, y.P), cmp.Compare(x.O, y.O))
}

// step is the product-automaton transition edge e instantiates; the atomic
// fast path has no automaton and reports {0 → 1}.
func (ev *Evaluator) step(e *productEdge) Step {
	s := Step{From: 0, To: 1, Pred: e.triple.P, Fwd: e.fwd}
	if !ev.atomic {
		s.From, s.To = ev.order[e.from].state, ev.order[e.to].state
	}
	return s
}

// TraceEdges is TraceInto with attribution: fn receives every traced triple
// together with the product-automaton Step it rides on. A triple on several
// accepting walks is reported once per distinct step; dedup across steps is
// the caller's concern. The triple set visited is exactly the one TraceInto
// adds for the same (a, targets), reported in (triple, From, To) order, which
// no two share: the order of discovery follows the graph's adjacency maps
// and differs from run to run. fn must not call into the evaluator.
func (ev *Evaluator) TraceEdges(a rdfgraph.ID, targets []rdfgraph.ID, fn func(t rdfgraph.IDTriple, step Step)) {
	hits := ev.trace(a, targets)
	slices.SortFunc(hits, func(i, j int32) int {
		x, y := ev.step(&ev.edges[i]), ev.step(&ev.edges[j])
		return cmp.Or(compareTriples(ev.edges[i].triple, ev.edges[j].triple),
			cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	for _, i := range hits {
		fn(ev.edges[i].triple, ev.step(&ev.edges[i]))
	}
}

// TraceUnion is TraceUnionIDs decoded to terms and canonically sorted.
func (ev *Evaluator) TraceUnion(a rdfgraph.ID, targets []rdfgraph.ID) []rdf.Triple {
	ids := ev.TraceUnionIDs(a, targets)
	rdfgraph.SortIDTriples(ev.g.Dict(), ids)
	return ev.g.Dict().DecodeTriples(ids)
}

// Trace computes graph(paths(E, G, a, b)) for a single target b.
func (ev *Evaluator) Trace(a, b rdfgraph.ID) []rdf.Triple {
	return ev.TraceUnion(a, []rdfgraph.ID{b})
}

// Eval evaluates ⟦E⟧G(a) for a single source term, returning result terms.
// It interns a into g's dictionary if needed (the focus node may be any
// node of N). Convenience wrapper for one-shot use.
func Eval(e Expr, g rdfgraph.Reader, a rdf.Term) []rdf.Term {
	ev := NewEvaluator(e, g)
	ids := ev.Eval(g.TermID(a))
	out := make([]rdf.Term, len(ids))
	for i, id := range ids {
		out[i] = g.Term(id)
	}
	return out
}

// Trace computes graph(paths(E, G, a, b)) for terms; one-shot wrapper.
func Trace(e Expr, g rdfgraph.Reader, a, b rdf.Term) []rdf.Triple {
	ev := NewEvaluator(e, g)
	return ev.Trace(g.TermID(a), g.TermID(b))
}

// AllPairs enumerates ⟦E⟧G restricted to N(G) ∪ {extra sources}: it calls
// fn(a, b) for every pair with a ∈ N(G) and (a, b) ∈ ⟦E⟧G. Used by the
// SPARQL engine for path patterns with an unbound subject.
func (ev *Evaluator) AllPairs(fn func(a, b rdfgraph.ID)) {
	for _, a := range ev.g.NodeIDs() {
		for _, b := range ev.Eval(a) {
			fn(a, b)
		}
	}
}
