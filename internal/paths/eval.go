package paths

import (
	"slices"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// productState is a node of the product of the NFA with the graph.
type productState struct {
	node  rdfgraph.ID
	state int
}

// Evaluator evaluates one compiled path expression against one graph. It is
// cheap to construct; reuse one per (expression, graph) pair when evaluating
// many source nodes, as fragment computation does.
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
	// fwdCache memoizes forward product searches per source node, so that
	// tracing a neighborhood reuses the search its conformance evaluation
	// already ran. The cache is budgeted: star-heavy expressions on large
	// graphs can have per-source reaches near the whole graph, in which
	// case caching stops and searches are recomputed.
	fwdCache    map[rdfgraph.ID]map[productState]struct{}
	cachedState int
	// scratch buffers reused across backwardTrace calls.
	bwdReach    map[productState]struct{}
	bwdStack    []productState
	edgeScratch []productEdge
}

// maxCachedStates bounds the total product states retained across all
// cached forward searches of one evaluator.
const maxCachedStates = 1 << 20

// NewEvaluator compiles e against g.
func NewEvaluator(e Expr, g rdfgraph.Reader) *Evaluator {
	ev := &Evaluator{g: g, memo: make(map[rdfgraph.ID][]rdfgraph.ID)}
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

// Eval returns ⟦E⟧G(a): the sorted set of nodes b with (a, b) ∈ ⟦E⟧G.
// Results are memoized per source node.
func (ev *Evaluator) Eval(a rdfgraph.ID) []rdfgraph.ID {
	if res, ok := ev.memo[a]; ok {
		return res
	}
	if ev.atomic {
		var out []rdfgraph.ID
		if ev.atomicID != rdfgraph.NoID {
			if ev.atomicFwd {
				ev.g.Objects(a, ev.atomicID, func(o rdfgraph.ID) { out = append(out, o) })
			} else {
				ev.g.Subjects(ev.atomicID, a, func(s rdfgraph.ID) { out = append(out, s) })
			}
		}
		slices.Sort(out)
		ev.memo[a] = out
		return out
	}
	reach := ev.cachedForward(a)
	seen := make(map[rdfgraph.ID]struct{})
	var out []rdfgraph.ID
	for ps := range reach {
		if ps.state == ev.nfa.accept {
			if _, dup := seen[ps.node]; !dup {
				seen[ps.node] = struct{}{}
				out = append(out, ps.node)
			}
		}
	}
	slices.Sort(out)
	ev.memo[a] = out
	return out
}

// Holds reports whether (a, b) ∈ ⟦E⟧G.
func (ev *Evaluator) Holds(a, b rdfgraph.ID) bool {
	for _, x := range ev.Eval(a) {
		if x == b {
			return true
		}
	}
	return false
}

// cachedForward returns the forward product reach of a, reusing or filling
// the per-source cache within its state budget.
func (ev *Evaluator) cachedForward(a rdfgraph.ID) map[productState]struct{} {
	if reach, ok := ev.fwdCache[a]; ok {
		return reach
	}
	reach := ev.forward(a)
	if ev.cachedState+len(reach) <= maxCachedStates {
		if ev.fwdCache == nil {
			ev.fwdCache = make(map[rdfgraph.ID]map[productState]struct{})
		}
		ev.fwdCache[a] = reach
		ev.cachedState += len(reach)
	}
	return reach
}

// forward computes the product states reachable from (a, start).
func (ev *Evaluator) forward(a rdfgraph.ID) map[productState]struct{} {
	n := ev.nfa
	reach := make(map[productState]struct{})
	var stack []productState
	push := func(ps productState) {
		if _, ok := reach[ps]; !ok {
			reach[ps] = struct{}{}
			stack = append(stack, ps)
		}
	}
	push(productState{node: a, state: n.start})
	for len(stack) > 0 {
		ps := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range n.eps[ps.state] {
			push(productState{node: ps.node, state: q})
		}
		for _, t := range n.trans[ps.state] {
			if t.pred == rdfgraph.NoID {
				continue
			}
			if t.fwd {
				ev.g.Objects(ps.node, t.pred, func(o rdfgraph.ID) {
					push(productState{node: o, state: t.to})
				})
			} else {
				ev.g.Subjects(t.pred, ps.node, func(s rdfgraph.ID) {
					push(productState{node: s, state: t.to})
				})
			}
		}
	}
	return reach
}

// productEdge is one edge of the product of the NFA with the graph,
// restricted to a forward-reachable set, remembering the graph triple it
// rides on and the step direction of the NFA transition it instantiates.
type productEdge struct {
	from, to productState
	triple   rdfgraph.IDTriple
	fwd      bool
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

// backwardTrace emits the graph triple underlying every product edge that
// lies on an accepting walk from the forward source to one of the target
// nodes. It first materializes the product edges *within* the (small)
// forward-reachable set — enumerating only the local out-edges of nodes in
// that set, never the global fan-in of a hub node — and then runs a
// backward search from the accepting target states over the materialized
// reverse adjacency.
func (ev *Evaluator) backwardTrace(targets []rdfgraph.ID, within map[productState]struct{}, emit func(productEdge)) {
	n := ev.nfa
	// Materialize product edges inside the forward set.
	edges := ev.edgeScratch[:0]
	revAdj := make(map[productState][]int32, len(within))
	for ps := range within {
		for _, t := range n.trans[ps.state] {
			if t.pred == rdfgraph.NoID {
				continue
			}
			if t.fwd {
				ev.g.Objects(ps.node, t.pred, func(o rdfgraph.ID) {
					head := productState{node: o, state: t.to}
					if _, ok := within[head]; ok {
						revAdj[head] = append(revAdj[head], int32(len(edges)))
						edges = append(edges, productEdge{
							from: ps, to: head,
							triple: rdfgraph.IDTriple{S: ps.node, P: t.pred, O: o},
							fwd:    true,
						})
					}
				})
			} else {
				ev.g.Subjects(t.pred, ps.node, func(s rdfgraph.ID) {
					head := productState{node: s, state: t.to}
					if _, ok := within[head]; ok {
						revAdj[head] = append(revAdj[head], int32(len(edges)))
						edges = append(edges, productEdge{
							from: ps, to: head,
							triple: rdfgraph.IDTriple{S: s, P: t.pred, O: ps.node},
						})
						// fwd stays false: the edge consumes an inverse step.
					}
				})
			}
		}
	}
	ev.edgeScratch = edges

	// Backward search from the accepting target states.
	if ev.bwdReach == nil {
		ev.bwdReach = make(map[productState]struct{})
	} else {
		clear(ev.bwdReach)
	}
	reach := ev.bwdReach
	stack := ev.bwdStack[:0]
	push := func(ps productState) {
		if _, ok := within[ps]; !ok {
			return
		}
		if _, ok := reach[ps]; !ok {
			reach[ps] = struct{}{}
			stack = append(stack, ps)
		}
	}
	for _, b := range targets {
		push(productState{node: b, state: n.accept})
	}
	for len(stack) > 0 {
		ps := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range n.repsilon[ps.state] {
			push(productState{node: ps.node, state: q})
		}
		for _, ei := range revAdj[ps] {
			e := edges[ei]
			emit(e)
			push(e.from)
		}
	}
	ev.bwdStack = stack
}

// TraceUnionIDs computes ⋃{graph(paths(E, G, a, b)) | b ∈ targets} as
// dictionary-encoded triples: every triple of G lying on some E-path from a
// to one of the target nodes. Neighborhood computation (Table 2) always
// needs exactly such unions.
func (ev *Evaluator) TraceUnionIDs(a rdfgraph.ID, targets []rdfgraph.ID) []rdfgraph.IDTriple {
	if len(targets) == 0 {
		return nil
	}
	if ev.atomic {
		if ev.atomicID == rdfgraph.NoID {
			return nil
		}
		var out []rdfgraph.IDTriple
		for _, b := range targets {
			if ev.atomicFwd {
				if ev.g.HasIDs(a, ev.atomicID, b) {
					out = append(out, rdfgraph.IDTriple{S: a, P: ev.atomicID, O: b})
				}
			} else if ev.g.HasIDs(b, ev.atomicID, a) {
				out = append(out, rdfgraph.IDTriple{S: b, P: ev.atomicID, O: a})
			}
		}
		return out
	}
	fwd := ev.cachedForward(a)
	set := make(map[rdfgraph.IDTriple]struct{})
	ev.backwardTrace(targets, fwd, func(e productEdge) {
		set[e.triple] = struct{}{}
	})
	out := make([]rdfgraph.IDTriple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	return out
}

// TraceEdges is TraceUnionIDs with attribution: fn receives every traced
// triple together with the product-automaton Step it rides on. A triple on
// several accepting walks is reported once per distinct step; dedup across
// steps is the caller's concern. The triple set visited is exactly the one
// TraceUnionIDs returns for the same (a, targets).
func (ev *Evaluator) TraceEdges(a rdfgraph.ID, targets []rdfgraph.ID, fn func(t rdfgraph.IDTriple, step Step)) {
	if len(targets) == 0 {
		return
	}
	if ev.atomic {
		if ev.atomicID == rdfgraph.NoID {
			return
		}
		step := Step{From: 0, To: 1, Pred: ev.atomicID, Fwd: ev.atomicFwd}
		for _, b := range targets {
			if ev.atomicFwd {
				if ev.g.HasIDs(a, ev.atomicID, b) {
					fn(rdfgraph.IDTriple{S: a, P: ev.atomicID, O: b}, step)
				}
			} else if ev.g.HasIDs(b, ev.atomicID, a) {
				fn(rdfgraph.IDTriple{S: b, P: ev.atomicID, O: a}, step)
			}
		}
		return
	}
	fwd := ev.cachedForward(a)
	type edgeKey struct {
		t rdfgraph.IDTriple
		s Step
	}
	seen := make(map[edgeKey]struct{})
	ev.backwardTrace(targets, fwd, func(e productEdge) {
		step := Step{From: e.from.state, To: e.to.state, Pred: e.triple.P, Fwd: e.fwd}
		k := edgeKey{t: e.triple, s: step}
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		fn(e.triple, step)
	})
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
