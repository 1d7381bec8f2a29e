package rdfgraph

import "shaclfrag/internal/rdf"

// Reader is the read-only surface of a dictionary-encoded graph: everything
// shape evaluation, path evaluation, neighborhood extraction and serving
// need, and nothing that mutates triples. *Graph implements it natively;
// internal/store's ShardedGraph implements it over a set of
// subject-partitioned shard graphs sharing one dictionary, which is what
// lets every layer above the storage tier — evaluators, extractors, the
// TPF engine, the SPARQL engine, the HTTP server — run unchanged against
// any shard count.
//
// The mutating exceptions are deliberate: TermID interns into the
// dictionary (shape constants need IDs comparable against graph nodes) and
// follows the dictionary's freeze discipline — on a frozen reader it is a
// pure lookup for known terms and panics for unseen ones, exactly like
// Dict.Intern. All other methods never write.
//
// A frozen Reader (Frozen() == true) is safe for any number of concurrent
// readers; that is the contract the serving stack fans out on.
type Reader interface {
	// Dict exposes the term dictionary all IDs resolve against.
	Dict() *Dict
	// Len returns the number of triples.
	Len() int
	// Frozen reports whether the graph is immutable.
	Frozen() bool
	// Term resolves an ID via the dictionary.
	Term(id ID) rdf.Term
	// TermID interns a term, subject to the freeze discipline above.
	TermID(t rdf.Term) ID
	// LookupTerm returns the ID of t if interned, else NoID.
	LookupTerm(t rdf.Term) ID
	// Has reports whether the triple is present.
	Has(t rdf.Triple) bool
	// HasIDs reports whether the dictionary-encoded triple is present.
	HasIDs(s, p, o ID) bool
	// Objects calls fn for every o with (s, p, o) ∈ G.
	Objects(s, p ID, fn func(o ID))
	// Subjects calls fn for every s with (s, p, o) ∈ G.
	Subjects(p, o ID, fn func(s ID))
	// PredicatesFrom calls fn for every (p, o) with (s, p, o) ∈ G.
	PredicatesFrom(s ID, fn func(p, o ID))
	// PredicatesTo calls fn for every (s, p) with (s, p, o) ∈ G.
	PredicatesTo(o ID, fn func(s, p ID))
	// EdgesByPredicate returns the (s, o) edge list of predicate p. The
	// returned slice must not be modified.
	EdgesByPredicate(p ID) []Edge
	// Predicates calls fn for every distinct predicate.
	Predicates(fn func(p ID))
	// EachTriple calls fn for every triple (unspecified order).
	EachTriple(fn func(s, p, o ID))
	// Nodes calls fn once per node of N(G).
	Nodes(fn func(n ID))
	// NodeIDs returns N(G) as a sorted slice.
	NodeIDs() []ID
	// NumNodes returns the size of N(G).
	NumNodes() int
	// IsNode reports whether id occurs as a subject or object.
	IsNode(id ID) bool
	// Triples returns all triples in canonical order.
	Triples() []rdf.Triple
}

var _ Reader = (*Graph)(nil)
