package shape

import (
	"slices"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// FocusCandidates derives from φ's syntax, using index reads only, a subset
// of N(G) that contains every node of N(G) conforming to φ. ok = false means
// no such set is cheaper to enumerate than N(G) itself, and the caller
// visits all of N(G). Since B(v, G, φ) = ∅ whenever v does not conform,
// extracting or validating φ over the candidates alone loses nothing.
//
//	⊥            → ∅
//	hasValue(c)  → {c}
//	hasShape(s)  → the candidates of def(s, H)
//	φ1 ∧ … ∧ φk  → the smallest candidate set among the conjuncts having one
//	φ1 ∨ … ∨ φk  → the union, when every disjunct has a candidate set
//	≥n p.⊤       → the subjects of p; ≥n p⁻.⊤ → its objects      (n ≥ 1)
//	≥n E.ψ       → ⟦E⁻⟧G over the candidates of ψ, zero-length
//	               paths included                                 (n ≥ 1)
//
// Every other shape (¬, ≤n, ∀, closed, node tests, pair constraints, ⊤, ≥0)
// can hold of a node no index points at. The result is sorted and owned by
// the caller.
func (ev *Evaluator) FocusCandidates(phi Shape) (ids []rdfgraph.ID, ok bool) {
	ids, ok = ev.candidates(phi)
	if !ok {
		return nil, false
	}
	// A constant of φ is interned but need not occur in a triple.
	nodes := ids[:0]
	for _, id := range ids {
		if ev.G.IsNode(id) {
			nodes = append(nodes, id)
		}
	}
	return nodes, true
}

// FocusNodes is the node list a focus-node loop over φ visits: φ's
// candidates, or N(G) when it has none — the same loop either way. N(G) is
// listed (and sorted) into *all on first need only, so one caller-held
// slice serves any number of requests over the same graph.
func (ev *Evaluator) FocusNodes(phi Shape, all *[]rdfgraph.ID) []rdfgraph.ID {
	if nodes, ok := ev.FocusCandidates(phi); ok {
		return nodes
	}
	if *all == nil {
		*all = ev.G.NodeIDs()
	}
	return *all
}

// candidates is FocusCandidates before the restriction to N(G).
func (ev *Evaluator) candidates(phi Shape) ([]rdfgraph.ID, bool) {
	switch x := phi.(type) {
	case *False:
		return nil, true
	case *HasValue:
		if id := ev.G.LookupTerm(x.C); id != rdfgraph.NoID {
			return []rdfgraph.ID{id}, true
		}
		return nil, true
	case *HasShape:
		return ev.candidates(ev.Def(x.Name))
	case *And:
		var best []rdfgraph.ID
		found := false
		for _, c := range x.Xs {
			if ids, ok := ev.candidates(c); ok && (!found || len(ids) < len(best)) {
				best, found = ids, true
			}
		}
		return best, found
	case *Or:
		var all []rdfgraph.ID
		for _, c := range x.Xs {
			ids, ok := ev.candidates(c)
			if !ok {
				return nil, false
			}
			all = append(all, ids...)
		}
		return sortedSet(all), true
	case *MinCount:
		if x.N < 1 {
			return nil, false
		}
		if _, top := x.X.(*True); top {
			return ev.endpoints(x.Path)
		}
		ends, ok := ev.candidates(x.X)
		if !ok {
			return nil, false
		}
		back := ev.PathEval(paths.Inv(x.Path))
		var all []rdfgraph.ID
		for _, b := range ends {
			all = append(all, back.Eval(b)...)
		}
		return sortedSet(all), true
	}
	return nil, false
}

// endpoints returns the subjects of p for E = p and its objects for E = p⁻:
// the nodes with at least one E-successor. Longer paths have no posting
// list to read these from.
func (ev *Evaluator) endpoints(e paths.Expr) ([]rdfgraph.ID, bool) {
	inv, backward := e.(paths.Inverse)
	if backward {
		e = inv.X
	}
	p, atomic := e.(paths.Prop)
	if !atomic {
		return nil, false
	}
	pid := ev.G.LookupTerm(rdf.NewIRI(p.IRI))
	if pid == rdfgraph.NoID {
		return nil, true
	}
	edges := ev.G.EdgesByPredicate(pid)
	ids := make([]rdfgraph.ID, len(edges))
	for i, edge := range edges {
		if backward {
			ids[i] = edge.O
		} else {
			ids[i] = edge.S
		}
	}
	return sortedSet(ids), true
}

// sortedSet sorts ids in place and drops duplicates.
func sortedSet(ids []rdfgraph.ID) []rdfgraph.ID {
	slices.Sort(ids)
	return slices.Compact(ids)
}
