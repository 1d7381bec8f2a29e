// Package rdfgraph implements an in-memory, dictionary-encoded RDF triple
// store. Terms are interned into dense integer IDs; triples are kept in
// two node indexes, a row per node of its (predicate, object) pairs and of
// its (predicate, subject) pairs, sorted, so that a forward or backward
// step is a binary search and then a run of neighbors in ID order. Every
// predicate keeps posting lists — bitmaps of the nodes with an outgoing
// and with an incoming edge under it — from which property scans read the
// index rows. The node indexes are paged over the dense IDs (pageRows rows
// a page) and the bitmaps likewise (postingBits bits a page): finding a
// row is two slice indexes, listing N(G) is one sweep in ID order, and a
// copy-on-write epoch copies only the page directories and then the pages,
// row directories and row chunks (chunkPairs pairs at most) it writes.
//
// # Concurrency
//
// A Graph is not safe for concurrent mutation, but it is immutable and safe
// for any number of concurrent readers once construction is complete: every
// read accessor (Objects, Subjects, HasIDs, EachTriple, Nodes, Triples,
// Lookup, Term, …) only reads the indexes and the dictionary. Call
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
// output order is decided on integers too: a frozen root dictionary ranks
// its terms in rdf.Compare order (see Dict), and SortIDTriples (with it
// IDTripleSet.Sorted and Triples) sorts encoded triples by their packed
// ranks, exactly as rdf.CompareTriples orders their decoded terms, so a
// route can sort, then stream term by term, without ever materializing
// []rdf.Triple.
package rdfgraph

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"

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
// same term in every later epoch. Lookup walks the overlay chain. Only an
// overlay that interned something lengthens it — an empty one is skipped
// by the next Extend — and the chain is flattened into a single map once
// dictFlattenDepth overlays have accumulated, so a lookup walks at most
// that many maps and an epoch whose delta interns nothing copies no map.
//
// Freezing a root dictionary ranks its terms in rdf.Compare order, so
// comparing two ranked IDs compares two integers. Every dictionary Extend
// derives from it, overlay or flattened, shares those ranks read-only and
// ranks nothing, so an ID minted after the root compares by rdf.Compare:
// ranks are exactly that order, and the two mix into one total order.
type Dict struct {
	byTerm map[rdf.Term]ID
	terms  []rdf.Term
	frozen bool
	// base is the frozen parent dictionary this overlay extends, nil for a
	// root or flattened dictionary. depth counts overlay generations since
	// the last flatten.
	base  *Dict
	depth int
	// byRank lists the root's IDs — a prefix of every later epoch's — in
	// rdf.Compare order, and rank is its inverse. Neither is written after
	// the root's Freeze.
	rank   []uint32
	byRank []ID
}

// dictFlattenDepth bounds the overlay-chain length: Extend flattens the
// chain into one map once this many overlays that interned terms have
// accumulated.
const dictFlattenDepth = 4

// Extend returns a fresh mutable dictionary layered over d: every term of d
// keeps its ID, and terms unseen by d may be interned without copying d's
// map. d must be frozen — the overlay appends into the shared term table,
// which is only safe while d itself can no longer grow. Extend is how
// Graph.CloneCOW shares the dictionary between snapshot epochs;
// successive overlays must form a single writer lineage (enforced by the
// store's mutex).
func (d *Dict) Extend() *Dict {
	if !d.frozen {
		panic("rdfgraph: Extend of unfrozen dictionary")
	}
	if len(d.byTerm) == 0 && d.base != nil {
		d = d.base // d interned nothing: its parent has the same terms
	}
	nd := &Dict{terms: d.terms, rank: d.rank, byRank: d.byRank}
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
// frozen dictionary is safe for concurrent readers. A root dictionary is
// ranked here; the dictionaries Extend derives from it inherit its ranks.
func (d *Dict) Freeze() {
	if d.rank == nil { // only a root has no ranks yet
		d.rankTerms()
	}
	d.frozen = true
}

// rankTerms sorts the IDs in rdf.Compare order, comparing the terms in
// place rather than copying two per comparison, and inverts that order.
func (d *Dict) rankTerms() {
	d.byRank = make([]ID, len(d.terms))
	for i := range d.byRank {
		d.byRank[i] = ID(i)
	}
	slices.SortFunc(d.byRank, func(a, b ID) int { return rdf.ComparePtr(&d.terms[a], &d.terms[b]) })
	d.rank = make([]uint32, len(d.terms))
	for r, id := range d.byRank {
		d.rank[id] = uint32(r)
	}
}

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
	spo nodeIndex
	// ops maps object → predicate → subject set.
	ops nodeIndex
	// byPred maps each predicate to its posting lists.
	byPred map[ID]*posting
	size   int
	// nodeIDs is N(G), listed by the first NodeIDs call after Freeze.
	nodeOnce sync.Once
	nodeIDs  []ID
}

// pageRows is the number of node rows per page of a nodeIndex.
const pageRows = 256

// chunkPairs is the most pairs a chunk of a row holds.
const chunkPairs = 64

// pair is one edge of a node's row: its predicate and its neighbor, the
// object in spo and the subject in ops.
type pair struct{ p, n ID }

func (a pair) less(b pair) bool { return a.p < b.p || a.p == b.p && a.n < b.n }

// row is one node's adjacency: its pairs in (p, n) order, split into
// chunks of at most chunkPairs pairs. Rows and chunks carry the generation
// that may write them, like pages: another generation copies a row's
// header and chunk directory on its first write to the row, and a chunk on
// its first write to that chunk, so a write to a hub copies one chunk.
type row struct {
	gen    uint64
	chunks []*chunk
}

type chunk struct {
	gen   uint64
	pairs []pair
}

// nodeIndex maps a node ID to its row through a directory of fixed-size
// pages, so a lookup is two slice indexes. An absent or emptied row is nil.
// Pages are shared between a frozen graph and its CloneCOW descendants: a
// page belongs to the index whose gen it carries, and any other index copies
// it on first write. A clone's gen is its parent's plus one, so no page,
// row or chunk it inherits carries it.
type nodeIndex struct {
	gen   uint64
	pages []*page
}

type page struct {
	gen  uint64
	rows [pageRows]*row
}

// row returns id's chunk directory, nil if id has no row.
func (x *nodeIndex) row(id ID) []*chunk {
	u := uint32(id) // NoID lands past every directory
	if i := int(u / pageRows); i < len(x.pages) && x.pages[i] != nil {
		if r := x.pages[i].rows[u%pageRows]; r != nil {
			return r.chunks
		}
	}
	return nil
}

// clone returns the index of a CloneCOW child: a copy of the directory,
// sharing every page, under the next generation.
func (x *nodeIndex) clone() nodeIndex {
	return nodeIndex{gen: x.gen + 1, pages: slices.Clone(x.pages)}
}

// mutable returns id's row for writing, creating it if absent: the page
// is copied the first time this generation writes it, the row header and
// chunk directory the first time it writes that row.
func (x *nodeIndex) mutable(id ID) *row {
	u := uint32(id)
	i, k := int(u/pageRows), u%pageRows
	if i >= len(x.pages) {
		x.pages = append(x.pages, make([]*page, i+1-len(x.pages))...)
	}
	p := x.pages[i]
	if p == nil {
		p = &page{}
	} else if p.gen != x.gen {
		cp := *p
		p = &cp
	}
	p.gen, x.pages[i] = x.gen, p
	if r := p.rows[k]; r == nil {
		p.rows[k] = &row{gen: x.gen}
	} else if r.gen != x.gen {
		p.rows[k] = &row{gen: x.gen, chunks: slices.Clone(r.chunks)}
	}
	return p.rows[k]
}

// insert adds k, absent from id's row, reporting whether it is the row's
// first pair under k.p. The chunk it lands in is copied on this
// generation's first write to it, and split in half first when full.
func (x *nodeIndex) insert(id ID, k pair) (first bool) {
	r := x.mutable(id)
	ci, i := seek(r.chunks, k)
	first = !near(r.chunks, k.p, ci, i, 0)
	if len(r.chunks) == 0 {
		r.chunks = []*chunk{{gen: x.gen}}
	} else if ci == len(r.chunks) { // past every pair: the last chunk's end
		ci--
		i = len(r.chunks[ci].pairs)
	}
	c := r.chunk(x.gen, ci)
	if h := chunkPairs / 2; len(c.pairs) == chunkPairs {
		up := &chunk{gen: x.gen, pairs: slices.Clone(c.pairs[h:])}
		c.pairs = c.pairs[:h]
		r.chunks = slices.Insert(r.chunks, ci+1, up)
		if i > h {
			c, i = up, i-h
		}
	}
	c.pairs = slices.Insert(c.pairs, i, k)
	return first
}

// remove deletes k, present in id's row, reporting whether it was the
// row's last pair under k.p. An emptied chunk leaves the directory, and an
// emptied row becomes nil.
func (x *nodeIndex) remove(id ID, k pair) (last bool) {
	r := x.mutable(id)
	ci, i := seek(r.chunks, k)
	last = !near(r.chunks, k.p, ci, i, 1)
	if len(r.chunks[ci].pairs) > 1 {
		c := r.chunk(x.gen, ci)
		c.pairs = slices.Delete(c.pairs, i, i+1)
	} else if r.chunks = slices.Delete(r.chunks, ci, ci+1); len(r.chunks) == 0 {
		x.pages[uint32(id)/pageRows].rows[uint32(id)%pageRows] = nil
	}
	return last
}

// chunk returns r's chunk ci for writing in generation gen, which owns r:
// the chunk is copied on this generation's first write to it.
func (r *row) chunk(gen uint64, ci int) *chunk {
	c := r.chunks[ci]
	if c.gen != gen {
		c = &chunk{gen: gen, pairs: append(make([]pair, 0, len(c.pairs)+1), c.pairs...)}
		r.chunks[ci] = c
	}
	return c
}

// seek returns the position of the first pair ≥ k in a row: its chunk and
// its index there, or (len(cs), 0) if every pair is less.
func seek(cs []*chunk, k pair) (ci, i int) {
	ci = sort.Search(len(cs), func(j int) bool { ps := cs[j].pairs; return !ps[len(ps)-1].less(k) })
	if ci < len(cs) {
		ps := cs[ci].pairs
		i = sort.Search(len(ps), func(j int) bool { return !ps[j].less(k) })
	}
	return ci, i
}

// near reports whether a pair next to position (ci, i) of a row — the one
// before it, or the one skip places after it — has predicate p.
func near(cs []*chunk, p ID, ci, i, skip int) bool {
	before := i > 0 && cs[ci].pairs[i-1].p == p ||
		i == 0 && ci > 0 && cs[ci-1].pairs[len(cs[ci-1].pairs)-1].p == p
	if i += skip; ci < len(cs) && i == len(cs[ci].pairs) {
		ci, i = ci+1, 0
	}
	return before || ci < len(cs) && cs[ci].pairs[i].p == p
}

// scan calls fn with the neighbor of every pair under p in a row, in order.
func scan(cs []*chunk, p ID, fn func(ID)) {
	ci, i := seek(cs, pair{p: p})
	for ; ci < len(cs); ci, i = ci+1, 0 {
		for _, q := range cs[ci].pairs[i:] {
			if q.p != p {
				return
			}
			fn(q.n)
		}
	}
}

// postingBits is the number of IDs per page of a posting bitmap.
const postingBits = 4096

// posting is one predicate's posting lists: subs holds the nodes with an
// outgoing edge under it, objs those with an incoming one, and edges
// counts its triples. A bit is set where AddIDs gives the node's spo
// (ops) row its first pair under the predicate and cleared where RemoveIDs
// takes its last, so each bitmap is exactly the set of rows holding the
// predicate.
// Postings are shared copy-on-write like nodeIndex pages: a posting and a
// bitmap page each carry the generation that may write them, and any
// other generation copies them on first write, a posting with its two
// page directories. An epoch that touches a predicate thus copies its
// posting and directories, and one page per bit it flips.
type posting struct {
	gen        uint64
	edges      int
	subs, objs bitmap
}

// bitmap is a set of IDs paged over the dense ID space; n counts it.
type bitmap struct {
	n     int
	pages []*bitPage
}

type bitPage struct {
	gen   uint64
	words [postingBits / 64]uint64
}

// mutablePosting returns p's posting for writing, creating it if absent
// and copying it on this generation's first write.
func (g *Graph) mutablePosting(p ID) *posting {
	gen := g.spo.gen
	ps := g.byPred[p]
	if ps == nil {
		ps = &posting{gen: gen}
		g.byPred[p] = ps
	} else if ps.gen != gen {
		cp := *ps
		cp.gen = gen
		cp.subs.pages, cp.objs.pages = slices.Clone(ps.subs.pages), slices.Clone(ps.objs.pages)
		ps = &cp
		g.byPred[p] = ps
	}
	return ps
}

// set adds id to b, or removes it if !on, in generation gen, which owns
// b's directory: a page is copied on this generation's first write to it.
// id's membership must change.
func (b *bitmap) set(gen uint64, id ID, on bool) {
	u := uint32(id)
	i, w, bit := int(u/postingBits), u%postingBits/64, uint64(1)<<(u%64)
	if i >= len(b.pages) {
		b.pages = append(b.pages, make([]*bitPage, i+1-len(b.pages))...)
	}
	pg := b.pages[i]
	if pg == nil {
		pg = &bitPage{gen: gen}
		b.pages[i] = pg
	} else if pg.gen != gen {
		cp := *pg
		cp.gen = gen
		pg = &cp
		b.pages[i] = pg
	}
	if on {
		pg.words[w] |= bit
		b.n++
	} else {
		pg.words[w] &^= bit
		b.n--
	}
}

// each calls fn for every member of b, in ID order.
func (b *bitmap) each(fn func(ID)) {
	for i, pg := range b.pages {
		if pg == nil {
			continue
		}
		for w, word := range pg.words {
			for ; word != 0; word &= word - 1 {
				fn(ID(i*postingBits + w*64 + bits.TrailingZeros64(word)))
			}
		}
	}
}

// New returns an empty graph with its own term dictionary.
func New() *Graph {
	return &Graph{dict: NewDict(), byPred: make(map[ID]*posting)}
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
	if g.HasIDs(s, p, o) {
		return false
	}
	pl := g.mutablePosting(p)
	pl.edges++
	if g.spo.insert(s, pair{p, o}) {
		pl.subs.set(pl.gen, s, true)
	}
	if g.ops.insert(o, pair{p, s}) {
		pl.objs.set(pl.gen, o, true)
	}
	g.size++
	return true
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
// present. Emptied rows are dropped from the indexes so that IsNode and
// Nodes keep reflecting N(G) exactly.
func (g *Graph) RemoveIDs(s, p, o ID) bool {
	if g.frozen {
		panic("rdfgraph: RemoveIDs on frozen graph")
	}
	if !g.HasIDs(s, p, o) {
		return false
	}
	pl := g.mutablePosting(p)
	if pl.edges--; pl.edges == 0 {
		delete(g.byPred, p)
	}
	if g.spo.remove(s, pair{p, o}) {
		pl.subs.set(pl.gen, s, false)
	}
	if g.ops.remove(o, pair{p, s}) {
		pl.objs.set(pl.gen, o, false)
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
	cs := g.spo.row(s)
	ci, i := seek(cs, pair{p, o})
	return ci < len(cs) && cs[ci].pairs[i] == pair{p, o}
}

// Objects calls fn for every o with (s, p, o) ∈ G.
func (g *Graph) Objects(s, p ID, fn func(o ID)) {
	scan(g.spo.row(s), p, fn)
}

// Subjects calls fn for every s with (s, p, o) ∈ G.
func (g *Graph) Subjects(p, o ID, fn func(s ID)) {
	scan(g.ops.row(o), p, fn)
}

// PredicatesFrom calls fn once for every predicate p and object o with
// (s, p, o) ∈ G.
func (g *Graph) PredicatesFrom(s ID, fn func(p, o ID)) {
	for _, c := range g.spo.row(s) {
		for _, q := range c.pairs {
			fn(q.p, q.n)
		}
	}
}

// PredicatesTo calls fn once for every predicate p and subject s with
// (s, p, o) ∈ G.
func (g *Graph) PredicatesTo(o ID, fn func(s, p ID)) {
	for _, c := range g.ops.row(o) {
		for _, q := range c.pairs {
			fn(q.n, q.p)
		}
	}
}

// EdgesByPredicate returns the edges of predicate p in a fresh slice,
// ordered by subject ID and then object ID: its subject postings, each
// with its objects from its spo row, where they are already in order.
func (g *Graph) EdgesByPredicate(p ID) []Edge {
	pl := g.byPred[p]
	if pl == nil {
		return nil
	}
	out := make([]Edge, 0, pl.edges)
	pl.subs.each(func(s ID) {
		scan(g.spo.row(s), p, func(o ID) { out = append(out, Edge{S: s, O: o}) })
	})
	return out
}

// Endpoints returns the nodes with an outgoing p-edge, or with an
// incoming one if inverse, sorted by ID and without duplicates, in a fresh
// slice of exactly that length.
func (g *Graph) Endpoints(p ID, inverse bool) []ID {
	pl := g.byPred[p]
	if pl == nil {
		return nil
	}
	b := &pl.subs
	if inverse {
		b = &pl.objs
	}
	out := make([]ID, 0, b.n)
	b.each(func(id ID) { out = append(out, id) })
	return out
}

// EachTriple calls fn for every triple (in unspecified order).
func (g *Graph) EachTriple(fn func(s, p, o ID)) {
	for s := range ID(len(g.spo.pages) * pageRows) {
		g.PredicatesFrom(s, func(p, o ID) { fn(s, p, o) })
	}
}

// Nodes calls fn once for every node of the graph, i.e., every term that
// occurs as a subject or object of some triple. This is the finite set
// N(G) the paper quantifies over when computing shape fragments. Nodes
// come in ID order: one sweep over both indexes' pages.
func (g *Graph) Nodes(fn func(n ID)) {
	for id := range ID(max(len(g.spo.pages), len(g.ops.pages)) * pageRows) {
		if g.IsNode(id) {
			fn(id)
		}
	}
}

// NodeIDs returns N(G) as a sorted slice of IDs. On a frozen graph it is
// listed once and every call returns the same slice, which callers must
// not modify (its capacity is its length, so an append copies); a mutable
// graph lists it afresh on each call.
func (g *Graph) NodeIDs() []ID {
	if !g.frozen {
		return g.listNodes()
	}
	g.nodeOnce.Do(func() { g.nodeIDs = g.listNodes() })
	return g.nodeIDs
}

func (g *Graph) listNodes() []ID {
	n := 0
	g.Nodes(func(ID) { n++ })
	ids := make([]ID, 0, n)
	g.Nodes(func(id ID) { ids = append(ids, id) })
	return ids
}

// IsNode reports whether id occurs as a subject or object in the graph.
func (g *Graph) IsNode(id ID) bool {
	return g.spo.row(id) != nil || g.ops.row(id) != nil
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

// CloneCOW returns a mutable copy-on-write clone of a frozen graph,
// interning into an Extend of g's dictionary so IDs stay stable. The clone
// copies the two node indexes' page directories — one pointer per
// pageRows IDs — and the predicate map; it shares every page, row, chunk
// and posting with g. A page is copied on the clone's first write to it, a
// row's header and chunk directory on its first write, a chunk on its
// first write, a predicate's posting and its directories on the first
// triple added or removed under it, and a bitmap page on the first bit
// flipped in it, so publishing an epoch costs its delta plus the
// directories. Clones must form a single writer lineage per graph — the
// store enforces this with a mutex; concurrent mutation of clones of the
// same ancestry is a data race.
func (g *Graph) CloneCOW() *Graph {
	if !g.frozen {
		panic("rdfgraph: CloneCOW of unfrozen graph")
	}
	return &Graph{
		dict:   g.dict.Extend(),
		spo:    g.spo.clone(),
		ops:    g.ops.clone(),
		byPred: maps.Clone(g.byPred),
		size:   g.size,
	}
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

// IDTriples returns the contents as a slice, in unspecified order. The
// neighborhood cache stores these raw encoded slices: they are an order of
// magnitude smaller than decoded terms.
func (s *IDTripleSet) IDTriples() []IDTriple {
	return s.AppendTo(make([]IDTriple, 0, len(s.set)))
}

// AppendTo appends the contents to dst, in unspecified order.
func (s *IDTripleSet) AppendTo(dst []IDTriple) []IDTriple {
	for t := range s.set {
		dst = append(dst, t)
	}
	return dst
}

// Reset empties the set, keeping its storage.
func (s *IDTripleSet) Reset() { clear(s.set) }

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

// rankBits is the width of one rank in a packed sort key: three fit in a
// uint64 while a dictionary holds at most 1<<rankBits terms.
const rankBits = 21

// keyBufs recycles SortIDTriples' key buffers.
var keyBufs = sync.Pool{New: func() any { return new([]uint64) }}

// MaxPooled bounds the buffers and sets the serving stack pools, in
// elements: a larger one is dropped, not pooled, so one huge request does
// not make every later reuse pay for its capacity.
const MaxPooled = 1 << 14

// SortIDTriples sorts ts in place into canonical order: the order of
// rdf.CompareTriples on the decoded triples (see CompareIDTriples). When
// every term of ts is ranked it sorts the triples' packed rank keys, with
// no comparator call; otherwise it compares triple by triple.
func SortIDTriples(d *Dict, ts []IDTriple) {
	r, buf := d.rank, keyBufs.Get().(*[]uint64)
	defer func() {
		if cap(*buf) <= MaxPooled {
			keyBufs.Put(buf)
		}
	}()
	ranked := uint(len(r))
	if ranked > 1<<rankBits {
		ranked = 0 // too many terms to pack
	}
	keys := (*buf)[:0]
	for _, t := range ts {
		if uint(t.S) >= ranked || uint(t.P) >= ranked || uint(t.O) >= ranked {
			slices.SortFunc(ts, d.CompareIDTriples)
			return
		}
		keys = append(keys, uint64(r[t.S])<<(2*rankBits)|uint64(r[t.P])<<rankBits|uint64(r[t.O]))
	}
	*buf = keys
	slices.Sort(keys)
	const mask = 1<<rankBits - 1
	for i, k := range keys {
		ts[i] = IDTriple{S: d.byRank[k>>(2*rankBits)], P: d.byRank[k>>rankBits&mask], O: d.byRank[k&mask]}
	}
}

// CompareIDTriples orders two encoded triples canonically: as
// rdf.CompareTriples orders the decoded ones. IDs are compared first — d
// interns injectively, so equal IDs are equal terms — then ranks, and
// only a term minted after the root reaches rdf.Compare.
func (d *Dict) CompareIDTriples(a, b IDTriple) int {
	if c := d.compareIDs(a.S, b.S); c != 0 {
		return c
	}
	if c := d.compareIDs(a.P, b.P); c != 0 {
		return c
	}
	return d.compareIDs(a.O, b.O)
}

func (d *Dict) compareIDs(a, b ID) int {
	if a == b {
		return 0
	}
	if r := d.rank; int(a) < len(r) && int(b) < len(r) {
		return cmp.Compare(r[a], r[b])
	}
	return rdf.Compare(d.terms[a], d.terms[b])
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
