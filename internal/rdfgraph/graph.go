// Package rdfgraph implements an in-memory, dictionary-encoded RDF triple
// store. Terms are interned into dense integer IDs; triples are kept in
// three indexes (subject→predicate→objects, object→predicate→subjects, and
// a per-predicate edge list) so that the access patterns of shape
// evaluation — forward steps, backward steps, and property scans — are all
// constant-time per edge.
//
// # Concurrency
//
// A Graph is not safe for concurrent mutation, but it is immutable and safe
// for any number of concurrent readers once construction is complete: every
// read accessor (Objects, Subjects, HasIDs, EachTriple, Nodes, Triples,
// Lookup, Term, …) only reads the index maps and the dictionary. Call
// Freeze after loading to enforce this contract — a frozen graph panics on
// Add/AddIDs and on interning a previously unseen term, turning would-be
// data races into deterministic failures. Concurrent serving subsystems
// (internal/fragserver, core.FragmentParallel) rely on this: they warm the
// dictionary with every term they may need, freeze the graph, and then fan
// readers out across goroutines without locking.
//
// Dictionary-encoded triples (IDTriple, 12 bytes each) are also the
// currency of the serving stack's data structures: IDTripleSet
// accumulates extraction results without term churn, and
// core.NeighborhoodCache stores neighborhoods in encoded form, which is
// what makes its triple-denominated memory bound meaningful. Canonical
// output order is decided on IDs too: SortIDTriples (and with it
// IDTripleSet.Sorted and Triples) orders encoded triples exactly as
// rdf.CompareTriples orders their decoded terms, so a route can sort, then
// stream term by term, without ever materializing []rdf.Triple.
package rdfgraph

import (
	"slices"
	"sort"

	"shaclfrag/internal/rdf"
)

// ID is a dense identifier for an interned term. IDs are only meaningful
// relative to the Dict that produced them.
type ID int32

// NoID is returned by lookups for terms that were never interned.
const NoID ID = -1

// Dict interns terms to dense IDs and back.
//
// A dictionary produced by Extend layers a small overlay of newly interned
// terms over a frozen base, sharing the base's term table so that IDs stay
// stable across snapshot epochs: an ID minted in epoch n resolves to the
// same term in every later epoch. Lookup walks the overlay chain; the chain
// is flattened into a single map every dictFlattenDepth generations so that
// lookups stay O(1) amortized under sustained update load.
type Dict struct {
	byTerm map[rdf.Term]ID
	terms  []rdf.Term
	frozen bool
	// base is the frozen parent dictionary this overlay extends, nil for a
	// root or flattened dictionary. depth counts overlay generations since
	// the last flatten.
	base  *Dict
	depth int
}

// dictFlattenDepth bounds the overlay-chain length: Extend flattens the
// chain into one map once this many generations have accumulated.
const dictFlattenDepth = 4

// Extend returns a fresh mutable dictionary layered over d: every term of d
// keeps its ID, and terms unseen by d may be interned without copying d's
// map. d must be frozen — the overlay appends into the shared term table,
// which is only safe while d itself can no longer grow. Extend is how
// Graph.CloneCOWWith shares the dictionary between snapshot epochs;
// successive overlays must form a single writer lineage (enforced by the
// store's mutex).
func (d *Dict) Extend() *Dict {
	if !d.frozen {
		panic("rdfgraph: Extend of unfrozen dictionary")
	}
	nd := &Dict{terms: d.terms}
	if d.depth+1 >= dictFlattenDepth {
		nd.byTerm = make(map[rdf.Term]ID, len(d.terms))
		for i, t := range d.terms {
			nd.byTerm[t] = ID(i)
		}
	} else {
		nd.byTerm = make(map[rdf.Term]ID)
		nd.base = d
		nd.depth = d.depth + 1
	}
	return nd
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byTerm: make(map[rdf.Term]ID)}
}

// Freeze makes the dictionary immutable: interning an already-present term
// keeps working (it is a pure lookup), interning a new term panics. A
// frozen dictionary is safe for concurrent readers.
func (d *Dict) Freeze() { d.frozen = true }

// Frozen reports whether the dictionary has been frozen.
func (d *Dict) Frozen() bool { return d.frozen }

// Intern returns the ID for t, assigning a fresh one if needed. Interning a
// term absent from a frozen dictionary panics; see Freeze.
func (d *Dict) Intern(t rdf.Term) ID {
	if id := d.Lookup(t); id != NoID {
		return id
	}
	if d.frozen {
		panic("rdfgraph: Intern of unseen term " + t.String() + " on frozen dictionary")
	}
	id := ID(len(d.terms))
	d.byTerm[t] = id
	d.terms = append(d.terms, t)
	return id
}

// Lookup returns the ID for t, or NoID if t was never interned.
func (d *Dict) Lookup(t rdf.Term) ID {
	for e := d; e != nil; e = e.base {
		if id, ok := e.byTerm[t]; ok {
			return id
		}
	}
	return NoID
}

// Term returns the term for a valid ID.
func (d *Dict) Term(id ID) rdf.Term { return d.terms[id] }

// Len returns the number of interned terms.
func (d *Dict) Len() int { return len(d.terms) }

// Edge is a dictionary-encoded (subject, object) pair under some predicate.
type Edge struct {
	S, O ID
}

// Graph is an in-memory RDF graph, mutable until frozen. The zero value is
// not usable; call New.
type Graph struct {
	dict   *Dict
	frozen bool
	// spo maps subject → predicate → object set.
	spo map[ID]map[ID]map[ID]struct{}
	// ops maps object → predicate → subject set.
	ops map[ID]map[ID]map[ID]struct{}
	// byPred maps predicate → list of edges, in insertion order.
	byPred map[ID][]Edge
	size   int
	// cowS/cowO track which per-subject (resp. per-object) submaps this
	// graph owns after CloneCOWWith. A key absent from the set still aliases
	// the parent snapshot's submap and must be deep-copied before its
	// first mutation. Both are nil on graphs built by New and are cleared
	// by Freeze.
	cowS map[ID]struct{}
	cowO map[ID]struct{}
}

// New returns an empty graph with its own term dictionary.
func New() *Graph {
	return NewWithDict(NewDict())
}

// NewWithDict returns an empty graph interning into d. Several graphs may
// share one dictionary — that is how internal/store keeps IDs comparable
// across its subject-partitioned shard graphs — but then only one of them
// may intern at a time (the store's writer lock enforces this; interning
// through a shared mutable dictionary from concurrent goroutines is a data
// race).
func NewWithDict(d *Dict) *Graph {
	return &Graph{
		dict:   d,
		spo:    make(map[ID]map[ID]map[ID]struct{}),
		ops:    make(map[ID]map[ID]map[ID]struct{}),
		byPred: make(map[ID][]Edge),
	}
}

// FromTriples builds a graph from the given triples.
func FromTriples(triples []rdf.Triple) *Graph {
	g := New()
	for _, t := range triples {
		g.Add(t)
	}
	return g
}

// Dict exposes the graph's term dictionary.
func (g *Graph) Dict() *Dict { return g.dict }

// Freeze marks the graph (and its dictionary) immutable. Subsequent Add or
// AddIDs calls panic, as does interning a previously unseen term; all read
// accessors remain valid and become safe for concurrent use from any number
// of goroutines. Freezing is idempotent and cannot be undone (Clone yields
// a fresh mutable copy).
func (g *Graph) Freeze() {
	g.frozen = true
	g.cowS, g.cowO = nil, nil
	g.dict.Freeze()
}

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return g.size }

// Add inserts the triple, reporting whether it was new.
func (g *Graph) Add(t rdf.Triple) bool {
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	return g.AddIDs(s, p, o)
}

// AddIDs inserts a dictionary-encoded triple, reporting whether it was new.
// The IDs must come from this graph's dictionary.
func (g *Graph) AddIDs(s, p, o ID) bool {
	if g.frozen {
		panic("rdfgraph: AddIDs on frozen graph")
	}
	po := g.mutableSubject(s)
	objs, ok := po[p]
	if !ok {
		objs = make(map[ID]struct{})
		po[p] = objs
	}
	if _, dup := objs[o]; dup {
		return false
	}
	objs[o] = struct{}{}

	ps := g.mutableObject(o)
	subs, ok := ps[p]
	if !ok {
		subs = make(map[ID]struct{})
		ps[p] = subs
	}
	subs[s] = struct{}{}

	// Appending to a possibly parent-shared edge slice is safe: parent
	// readers only index below their own length, the append writes at or
	// beyond it, and the store serializes writers into a single lineage.
	g.byPred[p] = append(g.byPred[p], Edge{S: s, O: o})
	g.size++
	return true
}

// mutableSubject returns the per-subject submap of g.spo for s, suitable
// for mutation: on a COW clone the submap is deep-copied the first time the
// subject is written.
func (g *Graph) mutableSubject(s ID) map[ID]map[ID]struct{} {
	po, ok := g.spo[s]
	if !ok {
		po = make(map[ID]map[ID]struct{})
		g.spo[s] = po
		if g.cowS != nil {
			g.cowS[s] = struct{}{}
		}
		return po
	}
	if g.cowS != nil {
		if _, owned := g.cowS[s]; !owned {
			po = copySubmap(po)
			g.spo[s] = po
			g.cowS[s] = struct{}{}
		}
	}
	return po
}

// mutableObject is mutableSubject for the ops index.
func (g *Graph) mutableObject(o ID) map[ID]map[ID]struct{} {
	ps, ok := g.ops[o]
	if !ok {
		ps = make(map[ID]map[ID]struct{})
		g.ops[o] = ps
		if g.cowO != nil {
			g.cowO[o] = struct{}{}
		}
		return ps
	}
	if g.cowO != nil {
		if _, owned := g.cowO[o]; !owned {
			ps = copySubmap(ps)
			g.ops[o] = ps
			g.cowO[o] = struct{}{}
		}
	}
	return ps
}

func copySubmap(m map[ID]map[ID]struct{}) map[ID]map[ID]struct{} {
	cp := make(map[ID]map[ID]struct{}, len(m))
	for p, ids := range m {
		ids2 := make(map[ID]struct{}, len(ids))
		for id := range ids {
			ids2[id] = struct{}{}
		}
		cp[p] = ids2
	}
	return cp
}

// Remove deletes the triple, reporting whether it was present. Terms absent
// from the dictionary cannot name a stored triple, so removal never interns.
func (g *Graph) Remove(t rdf.Triple) bool {
	s := g.dict.Lookup(t.S)
	p := g.dict.Lookup(t.P)
	o := g.dict.Lookup(t.O)
	if s == NoID || p == NoID || o == NoID {
		return false
	}
	return g.RemoveIDs(s, p, o)
}

// RemoveIDs deletes a dictionary-encoded triple, reporting whether it was
// present. Emptied submaps are dropped from the indexes so that IsNode and
// Nodes keep reflecting N(G) exactly.
func (g *Graph) RemoveIDs(s, p, o ID) bool {
	if g.frozen {
		panic("rdfgraph: RemoveIDs on frozen graph")
	}
	if !g.HasIDs(s, p, o) {
		return false
	}
	po := g.mutableSubject(s)
	objs := po[p]
	delete(objs, o)
	if len(objs) == 0 {
		delete(po, p)
		if len(po) == 0 {
			delete(g.spo, s)
		}
	}
	ps := g.mutableObject(o)
	subs := ps[p]
	delete(subs, s)
	if len(subs) == 0 {
		delete(ps, p)
		if len(ps) == 0 {
			delete(g.ops, o)
		}
	}
	// The edge slice may be shared with a parent snapshot, so filter into
	// a fresh slice instead of splicing in place.
	edges := g.byPred[p]
	out := make([]Edge, 0, len(edges)-1)
	for _, e := range edges {
		if e.S != s || e.O != o {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		delete(g.byPred, p)
	} else {
		g.byPred[p] = out
	}
	g.size--
	return true
}

// Has reports whether the triple is in the graph.
func (g *Graph) Has(t rdf.Triple) bool {
	s := g.dict.Lookup(t.S)
	p := g.dict.Lookup(t.P)
	o := g.dict.Lookup(t.O)
	if s == NoID || p == NoID || o == NoID {
		return false
	}
	return g.HasIDs(s, p, o)
}

// HasIDs reports whether the dictionary-encoded triple is present.
func (g *Graph) HasIDs(s, p, o ID) bool {
	if po, ok := g.spo[s]; ok {
		if objs, ok := po[p]; ok {
			_, ok := objs[o]
			return ok
		}
	}
	return false
}

// Objects calls fn for every o with (s, p, o) ∈ G.
func (g *Graph) Objects(s, p ID, fn func(o ID)) {
	if po, ok := g.spo[s]; ok {
		for o := range po[p] {
			fn(o)
		}
	}
}

// Subjects calls fn for every s with (s, p, o) ∈ G.
func (g *Graph) Subjects(p, o ID, fn func(s ID)) {
	if ps, ok := g.ops[o]; ok {
		for s := range ps[p] {
			fn(s)
		}
	}
}

// PredicatesFrom calls fn once for every predicate p and object o with
// (s, p, o) ∈ G.
func (g *Graph) PredicatesFrom(s ID, fn func(p, o ID)) {
	for p, objs := range g.spo[s] {
		for o := range objs {
			fn(p, o)
		}
	}
}

// PredicatesTo calls fn once for every predicate p and subject s with
// (s, p, o) ∈ G.
func (g *Graph) PredicatesTo(o ID, fn func(s, p ID)) {
	for p, subs := range g.ops[o] {
		for s := range subs {
			fn(s, p)
		}
	}
}

// EdgesByPredicate returns the edge list for predicate p. The returned
// slice must not be modified.
func (g *Graph) EdgesByPredicate(p ID) []Edge { return g.byPred[p] }

// Predicates calls fn for every distinct predicate in the graph.
func (g *Graph) Predicates(fn func(p ID)) {
	for p := range g.byPred {
		fn(p)
	}
}

// EachTriple calls fn for every triple (in unspecified order).
func (g *Graph) EachTriple(fn func(s, p, o ID)) {
	for s, po := range g.spo {
		for p, objs := range po {
			for o := range objs {
				fn(s, p, o)
			}
		}
	}
}

// Nodes calls fn once for every node of the graph, i.e., every term that
// occurs as a subject or object of some triple. This is the finite set
// N(G) the paper quantifies over when computing shape fragments.
func (g *Graph) Nodes(fn func(n ID)) {
	seen := make(map[ID]struct{}, len(g.spo)+len(g.ops))
	for s := range g.spo {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			fn(s)
		}
	}
	for o := range g.ops {
		if _, ok := seen[o]; !ok {
			seen[o] = struct{}{}
			fn(o)
		}
	}
}

// NodeIDs returns N(G) as a sorted slice of IDs.
func (g *Graph) NodeIDs() []ID {
	var ids []ID
	g.Nodes(func(n ID) { ids = append(ids, n) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumNodes returns |N(G)| without listing it.
func (g *Graph) NumNodes() int {
	n := len(g.spo)
	for o := range g.ops {
		if _, ok := g.spo[o]; !ok {
			n++
		}
	}
	return n
}

// IsNode reports whether id occurs as a subject or object in the graph.
func (g *Graph) IsNode(id ID) bool {
	if _, ok := g.spo[id]; ok {
		return true
	}
	_, ok := g.ops[id]
	return ok
}

// Triples returns all triples in canonical order (Compare on S, P, O).
func (g *Graph) Triples() []rdf.Triple {
	ids := make([]IDTriple, 0, g.size)
	g.EachTriple(func(s, p, o ID) { ids = append(ids, IDTriple{S: s, P: p, O: o}) })
	SortIDTriples(g.dict, ids)
	return g.dict.DecodeTriples(ids)
}

// Term resolves an ID via the graph's dictionary.
func (g *Graph) Term(id ID) rdf.Term { return g.dict.Term(id) }

// TermID interns a term into the graph's dictionary without adding any
// triple. This is how shape constants (hasValue nodes, class names) obtain
// IDs comparable against graph nodes.
func (g *Graph) TermID(t rdf.Term) ID { return g.dict.Intern(t) }

// LookupTerm returns the ID of t if it is interned, else NoID.
func (g *Graph) LookupTerm(t rdf.Term) ID { return g.dict.Lookup(t) }

// CloneCOWWith returns a mutable copy-on-write clone of a frozen graph
// interning into d, which must be an Extend of g's dictionary (so IDs stay
// stable). The clone shares g's per-subject and per-object index submaps
// and its per-predicate edge slices; a submap is deep-copied only when
// first mutated, and edge slices are rebuilt only on deletion. This makes
// a small delta O(delta), not O(graph). The store clones every shard
// against one shared overlay per epoch, so a delta's new terms get exactly
// one ID no matter which shard their triples land in. Clones must form a
// single writer lineage per graph — the store enforces this with a mutex;
// concurrent mutation of clones of the same ancestry is a data race.
func (g *Graph) CloneCOWWith(d *Dict) *Graph {
	if !g.frozen {
		panic("rdfgraph: CloneCOW of unfrozen graph")
	}
	out := &Graph{
		dict:   d,
		spo:    make(map[ID]map[ID]map[ID]struct{}, len(g.spo)),
		ops:    make(map[ID]map[ID]map[ID]struct{}, len(g.ops)),
		byPred: make(map[ID][]Edge, len(g.byPred)),
		size:   g.size,
		cowS:   make(map[ID]struct{}),
		cowO:   make(map[ID]struct{}),
	}
	for s, po := range g.spo {
		out.spo[s] = po
	}
	for o, ps := range g.ops {
		out.ops[o] = ps
	}
	for p, es := range g.byPred {
		out.byPred[p] = es
	}
	return out
}

// Clone returns a deep copy of the graph sharing no mutable state. The
// dictionary is rebuilt, so IDs in the clone are generally different.
func (g *Graph) Clone() *Graph {
	out := New()
	g.EachTriple(func(s, p, o ID) {
		out.Add(rdf.Triple{S: g.dict.Term(s), P: g.dict.Term(p), O: g.dict.Term(o)})
	})
	return out
}

// ContainsGraph reports whether every triple of sub is in g.
func (g *Graph) ContainsGraph(sub *Graph) bool {
	ok := true
	sub.EachTriple(func(s, p, o ID) {
		if !ok {
			return
		}
		if !g.Has(rdf.Triple{S: sub.dict.Term(s), P: sub.dict.Term(p), O: sub.dict.Term(o)}) {
			ok = false
		}
	})
	return ok
}

// Equal reports whether g and other contain exactly the same triples.
func (g *Graph) Equal(other *Graph) bool {
	return g.size == other.size && g.ContainsGraph(other) && other.ContainsGraph(g)
}

// IDTriple is a dictionary-encoded triple (subject, predicate, object).
type IDTriple struct {
	S, P, O ID
}

// IDTripleSet accumulates dictionary-encoded triples. Neighborhood and
// fragment extraction build results here: hashing three int32s per insert
// is far cheaper than hashing term strings.
type IDTripleSet struct {
	set map[IDTriple]struct{}
}

// NewIDTripleSet returns an empty set.
func NewIDTripleSet() *IDTripleSet {
	return &IDTripleSet{set: make(map[IDTriple]struct{})}
}

// Add inserts t, reporting whether it was new.
func (s *IDTripleSet) Add(t IDTriple) bool {
	if _, ok := s.set[t]; ok {
		return false
	}
	s.set[t] = struct{}{}
	return true
}

// Len returns the set size.
func (s *IDTripleSet) Len() int { return len(s.set) }

// Each calls fn for every triple in the set (unspecified order).
func (s *IDTripleSet) Each(fn func(IDTriple)) {
	for t := range s.set {
		fn(t)
	}
}

// IDTriples returns the contents as a slice, in unspecified order. The
// neighborhood cache stores these raw encoded slices: they are an order of
// magnitude smaller than decoded terms.
func (s *IDTripleSet) IDTriples() []IDTriple {
	out := make([]IDTriple, 0, len(s.set))
	for t := range s.set {
		out = append(out, t)
	}
	return out
}

// AddAll inserts the given encoded triples.
func (s *IDTripleSet) AddAll(ts []IDTriple) {
	for _, t := range ts {
		s.set[t] = struct{}{}
	}
}

// AddSet inserts every triple of other.
func (s *IDTripleSet) AddSet(other *IDTripleSet) {
	for t := range other.set {
		s.set[t] = struct{}{}
	}
}

// SortIDTriples sorts ts in place into canonical order: the order of
// rdf.CompareTriples on the decoded triples. IDs are compared first — d
// interns injectively, so equal IDs are equal terms and the subjects and
// predicates a neighborhood shares never reach a string comparison.
func SortIDTriples(d *Dict, ts []IDTriple) {
	cmp := func(a, b ID) int {
		if a == b {
			return 0
		}
		return rdf.Compare(d.terms[a], d.terms[b])
	}
	slices.SortFunc(ts, func(a, b IDTriple) int {
		if c := cmp(a.S, b.S); c != 0 {
			return c
		}
		if c := cmp(a.P, b.P); c != 0 {
			return c
		}
		return cmp(a.O, b.O)
	})
}

// Triple resolves an encoded triple.
func (d *Dict) Triple(t IDTriple) rdf.Triple {
	return rdf.Triple{S: d.terms[t.S], P: d.terms[t.P], O: d.terms[t.O]}
}

// DecodeTriples resolves ts through d, keeping their order.
func (d *Dict) DecodeTriples(ts []IDTriple) []rdf.Triple {
	out := make([]rdf.Triple, len(ts))
	for i, t := range ts {
		out[i] = d.Triple(t)
	}
	return out
}

// Sorted returns the contents in canonical order (see SortIDTriples), still
// encoded: what the serving routes stream from.
func (s *IDTripleSet) Sorted(d *Dict) []IDTriple {
	out := s.IDTriples()
	SortIDTriples(d, out)
	return out
}

// Triples decodes the contents through d in canonical order.
func (s *IDTripleSet) Triples(d *Dict) []rdf.Triple {
	return d.DecodeTriples(s.Sorted(d))
}

// TripleSet is a set of triples under construction, used to accumulate
// neighborhoods and fragments before freezing them into a Graph.
type TripleSet struct {
	set map[rdf.Triple]struct{}
}

// NewTripleSet returns an empty set.
func NewTripleSet() *TripleSet {
	return &TripleSet{set: make(map[rdf.Triple]struct{})}
}

// Add inserts t, reporting whether it was new.
func (s *TripleSet) Add(t rdf.Triple) bool {
	if _, ok := s.set[t]; ok {
		return false
	}
	s.set[t] = struct{}{}
	return true
}

// AddAll inserts every triple of g.
func (s *TripleSet) AddAll(g *Graph) {
	g.EachTriple(func(sub, p, o ID) {
		s.Add(rdf.Triple{S: g.dict.Term(sub), P: g.dict.Term(p), O: g.dict.Term(o)})
	})
}

// Has reports membership.
func (s *TripleSet) Has(t rdf.Triple) bool {
	_, ok := s.set[t]
	return ok
}

// Len returns the set size.
func (s *TripleSet) Len() int { return len(s.set) }

// Triples returns the contents in canonical order.
func (s *TripleSet) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(s.set))
	for t := range s.set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareTriples(out[i], out[j]) < 0 })
	return out
}

// Graph freezes the set into a Graph.
func (s *TripleSet) Graph() *Graph {
	g := New()
	for t := range s.set {
		g.Add(t)
	}
	return g
}
