package core

import (
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// Fragment computes the shape fragment Frag(G, S) for a set of request
// shapes: the union of the neighborhoods of all nodes of G for all shapes
// in S. The result is a subgraph of G, returned in canonical triple order.
//
// Although the definition ranges v over the infinite universe N, only
// nodes occurring in G — plus the hasValue constants of the shapes, whose
// neighborhoods are always subgraphs anyway — can contribute triples, so
// the computation ranges over N(G).
func (x *Extractor) Fragment(requests []shape.Shape) []rdf.Triple {
	out := rdfgraph.NewIDTripleSet()
	visited := make(map[VisitKey]struct{})
	for _, phi := range requests {
		nnf := shape.NNF(phi)
		for _, v := range x.ev.G.NodeIDs() {
			x.collect(v, nnf, out, visited)
		}
	}
	return out.Triples(x.ev.G.Dict())
}

// SchemaRequests derives the request shapes for a schema fragment:
// {φ ∧ τ | (s, φ, τ) ∈ H}.
func SchemaRequests(h *schema.Schema) []shape.Shape {
	var out []shape.Shape
	for _, d := range h.Definitions() {
		out = append(out, shape.AndOf(d.Shape, d.Target))
	}
	return out
}

// FragmentSchema computes Frag(G, H): the shape fragment for a schema,
// requesting the conjunction of each shape with its target. By the
// Conformance theorem (4.1), if G conforms to H and H has monotone
// targets, the result conforms to H as well.
func (x *Extractor) FragmentSchema(h *schema.Schema) []rdf.Triple {
	return x.Fragment(SchemaRequests(h))
}

// Neighborhood is a convenience wrapper: B(v, G, φ) in the context of defs
// (which may be nil).
func Neighborhood(g rdfgraph.Reader, defs shape.Defs, v rdf.Term, phi shape.Shape) []rdf.Triple {
	return NewExtractor(g, defs).Neighborhood(v, phi)
}

// Fragment is a convenience wrapper: Frag(G, S) in the context of defs.
func Fragment(g rdfgraph.Reader, defs shape.Defs, requests ...shape.Shape) []rdf.Triple {
	return NewExtractor(g, defs).Fragment(requests)
}

// FragmentSchema is a convenience wrapper: Frag(G, H).
func FragmentSchema(g rdfgraph.Reader, h *schema.Schema) []rdf.Triple {
	return NewExtractor(g, h).FragmentSchema(h)
}
