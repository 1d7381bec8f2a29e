// Package core implements the paper's primary contribution: the provenance
// semantics for SHACL. It computes the neighborhood B(v, G, φ) of a node v
// for a shape φ in a graph G (Definition 3.2 / Table 2) and shape fragments
// Frag(G, S) and Frag(G, H) (Section 4).
//
// The neighborhood of a conforming node is the subgraph of G that shows the
// node conforms; it satisfies the Sufficiency property (Theorem 3.4): v
// still conforms to φ in every G' with B(v,G,φ) ⊆ G' ⊆ G. For
// non-conforming nodes the neighborhood is empty; the neighborhood for ¬φ
// then provides why-not provenance (Remark 3.7).
//
// # Concurrency
//
// An Extractor is single-goroutine state (its evaluator and NNF caches
// are unsynchronized); use one per goroutine. All extraction is strictly
// read-only on the graph, so any number of extractors may share one
// graph concurrently once it is frozen (rdfgraph.Graph.Freeze) — that is
// the contract FragmentParallel builds on: it spawns one private
// extractor per worker and unions their results, and internal/fragserver
// pools extractors across requests. Extraction records its sub-stage
// timings as children of ParallelOptions.Span; workers grow the one tree
// concurrently.
//
// # Cache bounds
//
// NeighborhoodCache is the one shared-mutable structure here; it is
// mutex-guarded and safe for concurrent use. Its bound is a triple
// budget, not an entry count: entries cost max(1, len(triples)) units
// and a second-chance sweep evicts the oldest entries not hit since it
// last passed them until a new entry fits, so resident memory is O(budget) regardless of how skewed neighborhood
// sizes are. Neighborhoods larger than the whole budget are returned but
// never cached. Cached slices are shared with callers and must be
// treated as immutable. Stats exposes hit/miss/eviction/occupancy
// counters for the serving layer's metrics endpoint.
package core

import (
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Extractor computes neighborhoods and fragments over one graph in the
// context of one schema. It shares the conformance evaluator's caches and
// memoizes which (node, shape) neighborhoods have already been emitted, so
// computing a fragment is little more expensive than validating.
// An Extractor is not safe for concurrent use.
type Extractor struct {
	ev *shape.Evaluator

	// rec, when non-nil, receives a Justification for every triple a
	// Table 2 rule emits. Only the Explain methods set it, for the length
	// of one call; nil keeps the hot path free of attribution work.
	rec *Explanation
	// curName is the innermost named shape definition currently being
	// collected, stamped into justifications while rec is attached.
	curName rdf.Term
}

// NewExtractor returns an extractor for g in the context of defs (which may
// be nil). The provided evaluator caches are reused across all neighborhood
// and fragment computations done through this extractor.
func NewExtractor(g rdfgraph.Reader, defs shape.Defs) *Extractor {
	return &Extractor{ev: shape.NewEvaluator(g, defs)}
}

// NewExtractorWith wraps an existing evaluator, sharing its caches.
func NewExtractorWith(ev *shape.Evaluator) *Extractor {
	return &Extractor{ev: ev}
}

// Evaluator exposes the underlying conformance evaluator.
func (x *Extractor) Evaluator() *shape.Evaluator { return x.ev }

// Graph returns the data graph.
func (x *Extractor) Graph() rdfgraph.Reader { return x.ev.G }

// VisitKey marks a (node, NNF shape) pair whose neighborhood has already
// been added to the current accumulation set.
type VisitKey struct {
	node  rdfgraph.ID
	shape shape.Shape
}

// Neighborhood computes B(v, G, φ). The shape is normalized to NNF
// internally; the result is a subgraph of G returned as a sorted triple
// list. If v does not conform to φ, the result is empty.
func (x *Extractor) Neighborhood(v rdf.Term, phi shape.Shape) []rdf.Triple {
	out := rdfgraph.NewIDTripleSet()
	if id, ok := x.FocusID(v); ok {
		x.NeighborhoodInto(id, phi, out, make(map[VisitKey]struct{}))
	}
	return out.Triples(x.ev.G.Dict())
}

// FocusID resolves a focus term to a dictionary ID, interning it while the
// graph is still mutable. On a frozen graph an unseen term reports ok =
// false: such a node touches no triple of G, so every neighborhood of it is
// empty and extraction can be skipped entirely.
func (x *Extractor) FocusID(v rdf.Term) (rdfgraph.ID, bool) {
	g := x.ev.G
	if id := g.LookupTerm(v); id != rdfgraph.NoID {
		return id, true
	}
	if g.Frozen() {
		return rdfgraph.NoID, false
	}
	return g.TermID(v), true
}

// WhyNot computes B(v, G, ¬φ), the why-not provenance for a node that does
// not conform to φ (Remark 3.7). Empty if v does conform.
func (x *Extractor) WhyNot(v rdf.Term, phi shape.Shape) []rdf.Triple {
	return x.Neighborhood(v, shape.Neg(phi))
}

// NeighborhoodInto accumulates B(v, G, φ) into out, sharing the visited set
// across calls; fragments use this to merge all neighborhoods cheaply.
func (x *Extractor) NeighborhoodInto(v rdfgraph.ID, phi shape.Shape, out *rdfgraph.IDTripleSet, visited map[VisitKey]struct{}) {
	x.collect(v, shape.NNF(phi), out, visited)
}

// put adds t to out; with a recorder attached it also records which
// constraint emitted the triple at which focus node.
func (x *Extractor) put(out *rdfgraph.IDTripleSet, t rdfgraph.IDTriple, v rdfgraph.ID, constraint shape.Shape, negated bool) {
	out.Add(t)
	if x.rec != nil {
		x.rec.Record(t, Justification{
			Shape: x.curName, Constraint: constraint, Negated: negated, Focus: v,
		})
	}
}

// addTrace unions graph(paths(E, G, v, targets)) into out. Without a
// recorder this is TraceInto; with one it switches to TraceEdges, so every
// traced triple carries the product-automaton step it rides on. Both visit
// exactly the same triple set.
func (x *Extractor) addTrace(pe *paths.Evaluator, v rdfgraph.ID, targets []rdfgraph.ID, constraint shape.Shape, negated bool, out *rdfgraph.IDTripleSet) {
	if x.rec == nil {
		pe.TraceInto(v, targets, out)
		return
	}
	pe.TraceEdges(v, targets, func(t rdfgraph.IDTriple, step paths.Step) {
		out.Add(t)
		x.rec.Record(t, Justification{
			Shape: x.curName, Constraint: constraint, Negated: negated,
			Focus: v, Step: step, HasStep: true,
		})
	})
}

// collect implements Table 2. phi must be in NNF; v must be interned.
func (x *Extractor) collect(v rdfgraph.ID, phi shape.Shape, out *rdfgraph.IDTripleSet, visited map[VisitKey]struct{}) {
	key := VisitKey{node: v, shape: phi}
	if _, done := visited[key]; done {
		return
	}
	visited[key] = struct{}{}

	if !x.ev.Conforms(v, phi) {
		return // B(v, G, φ) = ∅ when v does not conform
	}

	g := x.ev.G
	switch s := phi.(type) {
	case *shape.True, *shape.False, *shape.Test, *shape.HasValue,
		*shape.Closed, *shape.Disj, *shape.LessThan, *shape.LessThanEq,
		*shape.MoreThan, *shape.MoreThanEq, *shape.UniqueLang:
		// Minimal neighborhoods: these shapes need no triples as evidence
		// (Section 3.1), except positive eq which is handled below.
		return

	case *shape.HasShape:
		x.collectDef(v, s.Name, shape.NNF(x.ev.Def(s.Name)), out, visited)

	case *shape.And:
		for _, c := range s.Xs {
			x.collect(v, c, out, visited)
		}

	case *shape.Or:
		// Deterministic union over all (conforming) disjuncts; collect
		// itself skips non-conforming ones.
		for _, c := range s.Xs {
			x.collect(v, c, out, visited)
		}

	case *shape.MinCount:
		// ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,ψ) | x ∈ ⟦E⟧G(v), G,x ⊨ ψ }
		pe := x.ev.PathEval(s.Path)
		var witnesses []rdfgraph.ID
		for _, b := range pe.Eval(v) {
			if x.ev.Conforms(b, s.X) {
				witnesses = append(witnesses, b)
			}
		}
		x.addTrace(pe, v, witnesses, phi, false, out)
		for _, b := range witnesses {
			x.collect(b, s.X, out, visited)
		}

	case *shape.MaxCount:
		// ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,¬ψ) | x ∈ ⟦E⟧G(v), G,x ⊨ ¬ψ }
		pe := x.ev.PathEval(s.Path)
		neg := shape.NegNNF(s.X)
		var counterexamples []rdfgraph.ID
		for _, b := range pe.Eval(v) {
			if !x.ev.Conforms(b, s.X) {
				counterexamples = append(counterexamples, b)
			}
		}
		x.addTrace(pe, v, counterexamples, phi, false, out)
		for _, b := range counterexamples {
			x.collect(b, neg, out, visited)
		}

	case *shape.Forall:
		// ⋃ { graph(paths(E,G,v,x)) ∪ B(x,G,ψ) | x ∈ ⟦E⟧G(v) }
		pe := x.ev.PathEval(s.Path)
		all := pe.Eval(v)
		x.addTrace(pe, v, all, phi, false, out)
		for _, b := range all {
			x.collect(b, s.X, out, visited)
		}

	case *shape.Eq:
		if s.Path == nil {
			// eq(id, p): {(v, p, v)}. Conformance requires (v, p, v) ∈ G,
			// so p is always interned; the lookup keeps extraction free of
			// dictionary writes (needed for concurrent workers).
			if pid := g.LookupTerm(rdf.NewIRI(s.P)); pid != rdfgraph.NoID {
				x.put(out, rdfgraph.IDTriple{S: v, P: pid, O: v}, v, phi, false)
			}
			return
		}
		// eq(E, p): ⋃ { graph(paths(E ∪ p, G, v, x)) | x ∈ ⟦E ∪ p⟧G(v) }
		union := paths.Alt{Left: s.Path, Right: paths.P(s.P)}
		pe := x.ev.PathEval(union)
		x.addTrace(pe, v, pe.Eval(v), phi, false, out)

	case *shape.Not:
		x.collectNegatedAtom(v, s.X, out, visited)

	default:
		panic("core: shape not in NNF: " + phi.String())
	}
}

// collectDef collects body, the normal form of the definition named name
// or of its negation, attributing what it emits to name.
func (x *Extractor) collectDef(v rdfgraph.ID, name rdf.Term, body shape.Shape, out *rdfgraph.IDTripleSet, visited map[VisitKey]struct{}) {
	prev := x.curName
	x.curName = name
	x.collect(v, body, out, visited)
	x.curName = prev
}

// collectNegatedAtom handles Table 2's negated-atom rows. atom is the shape
// under the negation; the focus node is known to conform to ¬atom.
func (x *Extractor) collectNegatedAtom(v rdfgraph.ID, atom shape.Shape, out *rdfgraph.IDTripleSet, visited map[VisitKey]struct{}) {
	g := x.ev.G
	switch s := atom.(type) {
	case *shape.HasShape:
		// ¬hasShape(s) → B(v, G, nnf(¬def(s, H)))
		x.collectDef(v, s.Name, shape.NegNNF(x.ev.Def(s.Name)), out, visited)

	case *shape.Eq:
		// A predicate absent from the dictionary has no triples, so every
		// (v, p, x) emission below is vacuous; LookupTerm (not TermID)
		// keeps negated-atom extraction read-only on the graph.
		pid := g.LookupTerm(rdf.NewIRI(s.P))
		if s.Path == nil {
			if pid == rdfgraph.NoID {
				return // no p-triples: nothing to witness
			}
			// ¬eq(id, p): {(v, p, x) ∈ G | x ≠ v}
			for _, o := range x.ev.PropValues(v, s.P) {
				if o != v {
					x.put(out, rdfgraph.IDTriple{S: v, P: pid, O: o}, v, atom, true)
				}
			}
			return
		}
		// ¬eq(E, p): E-paths to x with (v,p,x) ∉ G, plus p-triples to x
		// outside ⟦E⟧G(v).
		pe := x.ev.PathEval(s.Path)
		eValues := pe.Eval(v)
		eSet := make(map[rdfgraph.ID]struct{}, len(eValues))
		for _, b := range eValues {
			eSet[b] = struct{}{}
		}
		pValues := x.ev.PropValues(v, s.P)
		pSet := make(map[rdfgraph.ID]struct{}, len(pValues))
		for _, o := range pValues {
			pSet[o] = struct{}{}
		}
		var witnesses []rdfgraph.ID
		for _, b := range eValues {
			if _, inP := pSet[b]; !inP {
				witnesses = append(witnesses, b)
			}
		}
		x.addTrace(pe, v, witnesses, atom, true, out)
		for _, o := range pValues {
			if _, inE := eSet[o]; !inE {
				x.put(out, rdfgraph.IDTriple{S: v, P: pid, O: o}, v, atom, true)
			}
		}

	case *shape.Disj:
		pid := g.LookupTerm(rdf.NewIRI(s.P))
		if pid == rdfgraph.NoID {
			return // ¬disj needs a shared p-value, so p occurs in G
		}
		if s.Path == nil {
			// ¬disj(id, p): {(v, p, v)}
			x.put(out, rdfgraph.IDTriple{S: v, P: pid, O: v}, v, atom, true)
			return
		}
		// ¬disj(E, p): E-paths to common values x, plus the (v, p, x) edges.
		pe := x.ev.PathEval(s.Path)
		pValues := x.ev.PropValues(v, s.P)
		pSet := make(map[rdfgraph.ID]struct{}, len(pValues))
		for _, o := range pValues {
			pSet[o] = struct{}{}
		}
		var common []rdfgraph.ID
		for _, b := range pe.Eval(v) {
			if _, ok := pSet[b]; ok {
				common = append(common, b)
			}
		}
		x.addTrace(pe, v, common, atom, true, out)
		for _, b := range common {
			x.put(out, rdfgraph.IDTriple{S: v, P: pid, O: b}, v, atom, true)
		}

	case *shape.LessThan:
		x.collectNegatedOrder(v, s.Path, s.P, rdf.Less, atom, out)

	case *shape.LessThanEq:
		x.collectNegatedOrder(v, s.Path, s.P, rdf.LessEq, atom, out)

	case *shape.MoreThan:
		// ¬moreThan: witness pairs (x, y) with ¬(y < x).
		x.collectNegatedOrder(v, s.Path, s.P, func(b, y rdf.Term) bool { return rdf.Less(y, b) }, atom, out)

	case *shape.MoreThanEq:
		x.collectNegatedOrder(v, s.Path, s.P, func(b, y rdf.Term) bool { return rdf.LessEq(y, b) }, atom, out)

	case *shape.UniqueLang:
		// ¬uniqueLang(E): E-paths to every x that clashes with some y ≠ x.
		pe := x.ev.PathEval(s.Path)
		values := pe.Eval(v)
		byLang := make(map[string][]rdfgraph.ID)
		for _, b := range values {
			t := x.ev.G.Term(b)
			if t.IsLiteral() && t.Lang != "" {
				byLang[t.Lang] = append(byLang[t.Lang], b)
			}
		}
		var clashing []rdfgraph.ID
		for _, group := range byLang {
			if len(group) > 1 {
				clashing = append(clashing, group...)
			}
		}
		x.addTrace(pe, v, clashing, atom, true, out)

	case *shape.Closed:
		// ¬closed(P): {(v, p, x) ∈ G | p ∉ P}
		g.PredicatesFrom(v, func(p, o rdfgraph.ID) {
			iri := g.Term(p).Value
			if !containsString(s.Allowed, iri) {
				x.put(out, rdfgraph.IDTriple{S: v, P: p, O: o}, v, atom, true)
			}
		})

	case *shape.True, *shape.False, *shape.Test, *shape.HasValue:
		// Negated node-level atoms involve no triples: empty neighborhood.
		return

	default:
		panic("core: negation not in NNF over " + atom.String())
	}
}

// collectNegatedOrder handles ¬lessThan (cmp = Less) and ¬lessThanEq
// (cmp = LessEq): E-paths to x plus p-edges (v,p,y) with ¬cmp(x, y).
// atom is the order shape under the negation, for attribution.
func (x *Extractor) collectNegatedOrder(v rdfgraph.ID, path paths.Expr, p string, cmp func(a, b rdf.Term) bool, atom shape.Shape, out *rdfgraph.IDTripleSet) {
	g := x.ev.G
	pid := g.LookupTerm(rdf.NewIRI(p))
	if pid == rdfgraph.NoID {
		return // no p-values means no order violation to witness
	}
	pe := x.ev.PathEval(path)
	pValues := x.ev.PropValues(v, p)
	var witnesses []rdfgraph.ID
	for _, b := range pe.Eval(v) {
		bt := g.Term(b)
		witness := false
		for _, y := range pValues {
			if !cmp(bt, g.Term(y)) {
				x.put(out, rdfgraph.IDTriple{S: v, P: pid, O: y}, v, atom, true)
				witness = true
			}
		}
		if witness {
			witnesses = append(witnesses, b)
		}
	}
	x.addTrace(pe, v, witnesses, atom, true, out)
}

func containsString(sorted []string, s string) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == s
}
