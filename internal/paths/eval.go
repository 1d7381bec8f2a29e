package paths

import (
	"cmp"
	"errors"
	"math/bits"
	"slices"
	"sync"

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

// stopEvery is how many product states expanded plus edges crossed a
// search counts between two polls of the stop function. Both count: a dense
// hub's few states carry tens of thousands of edges, and a search from
// thousands of sources along a rare predicate expands states but crosses
// almost no edges.
const stopEvery = 4096

// search is the scratch product searches run on. An Evaluator borrows one
// from searchPool: growing it from nothing was most of a request's allocation.
type search struct {
	// The most recent forward search: order lists the product states
	// reachable from the start states of srcs as discovered, reach maps each
	// to its index there — its name everywhere else, so only discovery hashes
	// — ids holds the nodes among them in the accepting state, and edges the
	// product edges among them, chained per head state through heads and
	// productEdge.next (both index+1, 0 ends a chain). Kept because extraction
	// asks for the same sources back to back — ⟦E⟧G, then the trace — and for
	// little else. ok is false while a search runs, so one that a stop unwinds
	// is never taken for complete.
	reach stateTable
	order []productState
	srcs  []rdfgraph.ID
	ok    bool
	ids   []rdfgraph.ID
	edges []productEdge
	heads []int32

	// One trace: whether the backward search has reached a state (indexed
	// like order), its stack, the indices of the edges it crossed, and per
	// source whether it came back to the source's start state. traced is
	// true while hits and marks are the trace from srcs to tgts over the
	// kept search: a new search, Reset, Release or an atomic trace drops it.
	back   []bool
	hits   []int32
	stack  []int32
	marks  []bool
	tgts   []rdfgraph.ID
	traced bool
}

// maxPooledScratch is the ceiling, in bytes, on what one search — a star path
// over a hub — can pin beyond its request: Trim and Release drop what is over.
const maxPooledScratch = 4 << 20

var searchPool = sync.Pool{New: func() any { return new(search) }}

// Trim drops scratch grown past maxPooledScratch: for an evaluator that
// outlives its request, as a pooled extractor's do, and keeps the rest warm.
func (ev *Evaluator) Trim() {
	if s := ev.search; s != nil && 16*(cap(s.reach.slots)+cap(s.order))+28*cap(s.edges)+4*cap(s.heads) > maxPooledScratch {
		ev.search = nil
	}
}

// Release is Trim for an evaluator whose request is over: the scratch left
// goes back for a later evaluator to take. ev stays usable, memos and all.
func (ev *Evaluator) Release() {
	if ev.Trim(); ev.search != nil {
		ev.ok, ev.traced = false, false
		searchPool.Put(ev.search)
		ev.search = nil
	}
}

func (ev *Evaluator) acquire() {
	if ev.search == nil {
		ev.search = searchPool.Get().(*search)
	}
}

// Evaluator evaluates one compiled path expression against one graph. It is
// cheap to construct; reuse one per (expression, graph) pair when evaluating
// many source nodes, as fragment computation does. It is single-goroutine
// state; the package comment says what its searches run on and what of it
// callers may hold.
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

	// stop, when non-nil, is polled every stopEvery expanded product states
	// and crossed product edges; ticks counts them across searches.
	stop  func() bool
	ticks int

	// Searches counts the forward searches run: one per source set that was
	// not the set searched just before.
	Searches int

	*search // taken by the first search, handed back by Release

	// cur, curID and curT are the product state being expanded, its index in
	// order, and the NFA transition. The graph callbacks read them from here
	// and are bound once, below: a func literal in the search loops would
	// escape through the Reader interface and be heap-allocated per state.
	cur      productState
	curID    int32
	curT     transition
	visit    func(rdfgraph.ID)
	appendID func(rdfgraph.ID)
}

// NewEvaluator compiles e against g.
func NewEvaluator(e Expr, g rdfgraph.Reader) *Evaluator {
	ev := newEvaluator(g)
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

// NewNFAEvaluator returns an evaluator of n, compiled against g's dictionary
// (or one that resolves its IRIs alike): an automaton is read-only, so any
// number of evaluators may share one.
func NewNFAEvaluator(n *NFA, g rdfgraph.Reader) *Evaluator {
	ev := newEvaluator(g)
	ev.nfa = n
	return ev
}

func newEvaluator(g rdfgraph.Reader) *Evaluator {
	ev := &Evaluator{g: g, memo: make(map[rdfgraph.ID][]rdfgraph.ID)}
	ev.visit, ev.appendID = ev.visitNode, ev.appendNode
	return ev
}

// Reset makes ev as new over g, which must resolve the IRIs of ev's path as
// the graph ev was built over did — the same dictionary at the same length:
// memo, Searches and stop are cleared and the kept search forgotten, while
// the scratch stays. A nil g leaves ev holding no graph until the next Reset.
func (ev *Evaluator) Reset(g rdfgraph.Reader) {
	ev.g = g
	if 32*len(ev.memo) > maxPooledScratch { // a map keeps its buckets across clear
		ev.memo = make(map[rdfgraph.ID][]rdfgraph.ID)
	} else {
		clear(ev.memo)
	}
	ev.stop, ev.ticks, ev.Searches = nil, 0, 0
	if ev.search != nil {
		ev.ok, ev.traced = false, false
	}
}

// SetStop installs a function the searches poll every stopEvery product
// states and edges; once it reports true the running search panics with
// ErrStopped, leaving nothing partial behind: no memo entry, no kept
// search. The caller must recover that panic, as core does wherever it
// installs one, mapping it to its context's error; every other caller
// leaves stop nil.
func (ev *Evaluator) SetStop(stop func() bool) { ev.stop = stop }

// tick counts one expanded product state or crossed product edge and
// polls stop on every stopEvery-th.
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
	out := ev.EvalSet([]rdfgraph.ID{a}, nil)
	slices.Sort(out)
	ev.memo[a] = out
	return out
}

// EvalSet appends ⋃{⟦E⟧G(a) | a ∈ sources} to dst, each node once, in no
// particular order: one search, whatever the number of sources.
func (ev *Evaluator) EvalSet(sources, dst []rdfgraph.ID) []rdfgraph.ID {
	ev.acquire()
	if !ev.atomic {
		ev.forward(sources)
		return append(dst, ev.ids...) // a product state is reached once: no duplicate
	}
	ev.ids = ev.ids[:0]
	if ev.atomicID != rdfgraph.NoID {
		for _, a := range sources {
			if ev.atomicFwd {
				ev.g.Objects(a, ev.atomicID, ev.appendID)
			} else {
				ev.g.Subjects(ev.atomicID, a, ev.appendID)
			}
		}
	}
	if len(sources) > 1 { // two sources may share a value
		slices.Sort(ev.ids)
		ev.ids = slices.Compact(ev.ids)
	}
	return append(dst, ev.ids...)
}

func (ev *Evaluator) appendNode(n rdfgraph.ID) { ev.ids = append(ev.ids, n) }

// Holds reports whether (a, b) ∈ ⟦E⟧G.
func (ev *Evaluator) Holds(a, b rdfgraph.ID) bool {
	_, found := slices.BinarySearch(ev.Eval(a), b)
	return found
}

// forward makes the kept search that of sources: the product states
// reachable from their start states and the product edges among them.
// Asking for the sources of the search just before costs nothing.
func (ev *Evaluator) forward(sources []rdfgraph.ID) {
	if ev.ok && slices.Equal(ev.srcs, sources) {
		return
	}
	ev.Searches++
	ev.ok, ev.traced = false, false
	ev.reach.reset()
	ev.order, ev.heads, ev.edges, ev.ids = ev.order[:0], ev.heads[:0], ev.edges[:0], ev.ids[:0]
	n := ev.nfa
	for _, a := range sources {
		ev.push(productState{node: a, state: n.start})
	}
	for i := 0; i < len(ev.order); i++ { // order is the queue: push appends to it
		ev.tick()
		ev.cur, ev.curID = ev.order[i], int32(i)
		for _, q := range n.eps[ev.cur.state] {
			ev.push(productState{node: ev.cur.node, state: q})
		}
		for _, t := range n.trans[ev.cur.state] {
			if t.pred == rdfgraph.NoID {
				continue
			}
			ev.curT = t
			if t.fwd {
				ev.g.Objects(ev.cur.node, t.pred, ev.visit)
			} else {
				ev.g.Subjects(t.pred, ev.cur.node, ev.visit)
			}
		}
	}
	ev.srcs = append(ev.srcs[:0], sources...)
	ev.ok = true
}

// push adds ps to the forward search unless it is there already, and
// returns its index in order.
func (ev *Evaluator) push(ps productState) int32 {
	id, added := ev.reach.add(ps.key())
	if added {
		ev.order = append(ev.order, ps)
		ev.heads = append(ev.heads, 0)
		if ps.state == ev.nfa.accept {
			ev.ids = append(ev.ids, ps.node)
		}
	}
	return id
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

// visitNode is forward's graph callback: n is one step along curT away from
// cur. The state there joins the search, and the product edge to it is
// recorded at the head of the chain into that state.
func (ev *Evaluator) visitNode(n rdfgraph.ID) {
	ev.tick()
	head := ev.push(productState{node: n, state: ev.curT.to})
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

// trace finds every product edge that lies on an accepting walk from one of
// the sources to one of the target nodes, returning their indices in
// ev.edges, and leaves in ev.marks, per source, whether it reaches a target
// at all; all scratch, valid until the next call. The forward search has
// recorded the product edges *within* the (small) reachable set — never the
// global fan-in of a hub node — so what is left is a backward search from the
// accepting target states over the chains of edges into each state. A state
// it reaches lies behind some source, so every edge it crosses is on a walk
// from one; none is crossed twice, and no two share both triple and Step.
// Over an automaton the trace is kept beside the search: asking again for the
// same sources and targets costs nothing.
func (ev *Evaluator) trace(sources, targets []rdfgraph.ID) []int32 {
	ev.acquire()
	if !ev.atomic && len(targets) > 0 {
		if ev.forward(sources); ev.traced && slices.Equal(ev.tgts, targets) {
			return ev.hits
		}
	}
	ev.traced = false
	ev.hits = ev.hits[:0]
	ev.marks = append(ev.marks[:0], make([]bool, len(sources))...) // zeroed in place: no allocation
	if len(targets) == 0 {
		return nil
	}
	if ev.atomic {
		ev.edges = ev.edges[:0]
		if ev.atomicID == rdfgraph.NoID {
			return nil
		}
		for j, a := range sources {
			for _, b := range targets {
				t := rdfgraph.IDTriple{S: a, P: ev.atomicID, O: b}
				if !ev.atomicFwd {
					t.S, t.O = b, a
				}
				if ev.g.HasIDs(t.S, t.P, t.O) {
					ev.marks[j] = true
					ev.hits = append(ev.hits, int32(len(ev.edges)))
					ev.edges = append(ev.edges, productEdge{triple: t, fwd: ev.atomicFwd})
				}
			}
		}
		return ev.hits
	}
	n := ev.nfa
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
			ev.tick()
			ev.hits = append(ev.hits, i-1)
			ev.pushBack(ev.edges[i-1].from)
		}
	}
	for j, a := range sources {
		ev.marks[j] = ev.back[ev.reach.find(productState{node: a, state: n.start}.key())]
	}
	ev.tgts = append(ev.tgts[:0], targets...)
	ev.traced = true
	return ev.hits
}

// TraceSetInto adds ⋃{graph(paths(E, G, a, b)) | a ∈ sources, b ∈ targets}
// to out — every triple of G lying on some E-path from a source to a target
// — and reports, per source, whether it reaches a target at all: scratch,
// valid until the next call. A nil out asks for the report alone.
func (ev *Evaluator) TraceSetInto(sources, targets []rdfgraph.ID, out *rdfgraph.IDTripleSet) []bool {
	hits := ev.trace(sources, targets)
	if out != nil {
		for _, i := range hits {
			out.Add(ev.edges[i].triple)
		}
	}
	return ev.marks
}

// TraceInto is TraceSetInto from the single source a. Neighborhood
// computation (Table 2) always needs exactly such unions over targets.
func (ev *Evaluator) TraceInto(a rdfgraph.ID, targets []rdfgraph.ID, out *rdfgraph.IDTripleSet) {
	ev.TraceSetInto([]rdfgraph.ID{a}, targets, out)
}

// TraceUnionIDs is TraceInto as a fresh slice: each traced triple once, in
// ID order.
func (ev *Evaluator) TraceUnionIDs(a rdfgraph.ID, targets []rdfgraph.ID) []rdfgraph.IDTriple {
	hits := ev.trace([]rdfgraph.ID{a}, targets)
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
// no two share, not in the order of discovery: that follows the order in
// which the graph lists a node's edges, which a Reader does not promise.
// fn must not call into the evaluator.
func (ev *Evaluator) TraceEdges(a rdfgraph.ID, targets []rdfgraph.ID, fn func(t rdfgraph.IDTriple, step Step)) {
	hits := ev.trace([]rdfgraph.ID{a}, targets)
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
