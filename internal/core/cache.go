package core

import (
	"container/list"
	"context"
	"math"
	"runtime/debug"
	"sync"
	"unsafe"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// NeighborhoodCache is a concurrency-safe, size-bounded LRU cache of
// per-(node, shape) neighborhoods B(v, G, φ), stored as dictionary-encoded
// triples. It lets a serving subsystem answer repeated neighborhood
// requests against the same graph from memory (NeighborhoodsCached).
//
// Keys use shape identity: callers must pass pointer-stable shapes (e.g.
// a schema's definition shapes), otherwise every request misses. The cached slices are shared between callers and must be
// treated as immutable.
//
// Every entry records the range of store epochs (see store.Store) it is
// valid for: it starts at the epoch it was computed at and stays open while
// no update can have changed it. Invalidate steps the cache across one
// epoch transition: it closes the entries the update can reach and leaves
// every other entry open, valid at the new epoch in place — nothing is
// copied, and only the reached entries are touched. Until the transition
// into an epoch is applied, a Get at that epoch misses on every entry
// computed before it. EvictBelow reclaims entries whose range ended below
// every epoch a request can still pin. A cache that is never invalidated
// serves an entry at the epoch it was computed at only; single-graph
// callers that never update pass any constant epoch (0 works) everywhere.
//
// The bound is expressed in triples, not entries, because neighborhood
// sizes vary by orders of magnitude; an empty neighborhood still costs one
// unit so that negative results are bounded too.
type NeighborhoodCache struct {
	mu     sync.Mutex
	budget int
	size   int
	ll     *list.List // front = most recently used
	// items holds, per shape and node, the newest entry; older ones hang
	// off its older chain, newest first.
	items   map[shape.Shape]map[rdfgraph.ID]*list.Element
	aliases map[shape.Shape]shape.Shape // request shape -> class representative
	// applied is the newest epoch whose transition Invalidate has applied
	// (or the one SetEpoch declared); pending holds transitions that
	// arrived ahead of their predecessor, keyed by the epoch they leave.
	applied uint64
	pending map[uint64]staleness
	// tracked maps every shape SetFootprints tracks to its read automaton
	// in footprints; readers indexes those by the predicate IRIs they
	// name, and readAll lists the ones a triple of any predicate can reach.
	// All four are immutable once set.
	tracked    map[shape.Shape]int
	footprints []*shape.Footprint
	readers    map[string][]int
	readAll    []int
	// open counts entries whose range is open; closed holds the others,
	// for EvictBelow.
	open   int
	closed map[*list.Element]struct{}

	hits        uint64
	misses      uint64
	evictions   uint64
	evicted     uint64 // triples removed by evictions, cumulative
	stale       uint64 // entries removed by EvictBelow, cumulative
	staleTrip   uint64 // triples those entries held
	aliasHits   uint64 // hits served through an alias translation
	kept        uint64 // open entries an Invalidate left open, cumulative
	invalidated uint64 // entries an Invalidate closed, cumulative
}

// idTripleBytes is the in-memory size of one cached triple, used to
// report the cache's triple budget in bytes for operators.
const idTripleBytes = int(unsafe.Sizeof(rdfgraph.IDTriple{}))

// openRange marks an entry valid up to the newest applied epoch.
const openRange = math.MaxUint64

// neighborhoodEntry is one cached neighborhood. It is kept to 64 bytes,
// one allocation size class: a workload that misses more than it hits
// allocates one per miss.
type neighborhoodEntry struct {
	byNode   map[rdfgraph.ID]*list.Element // its shape's map in items
	node     rdfgraph.ID
	triples  []rdfgraph.IDTriple
	from, to uint64        // the epochs it is valid for; to is openRange while open
	older    *list.Element // the previous entry of (node, shape), if any
}

// NewNeighborhoodCache returns a cache bounded to about maxTriples cached
// triples in total; maxTriples <= 0 selects a default of one million.
func NewNeighborhoodCache(maxTriples int) *NeighborhoodCache {
	if maxTriples <= 0 {
		maxTriples = 1 << 20
	}
	return &NeighborhoodCache{
		budget:  maxTriples,
		ll:      list.New(),
		items:   make(map[shape.Shape]map[rdfgraph.ID]*list.Element),
		pending: make(map[uint64]staleness),
		closed:  make(map[*list.Element]struct{}),
	}
}

func entryCost(ts []rdfgraph.IDTriple) int {
	if len(ts) == 0 {
		return 1
	}
	return len(ts)
}

// end returns the last epoch en is known valid at: its closing epoch, or
// for an open entry the newest applied one (its own if computed later).
func (c *NeighborhoodCache) end(en *neighborhoodEntry) uint64 {
	if en.to != openRange {
		return en.to
	}
	return max(en.from, c.applied)
}

// SetAliases installs a shape-aliasing table: every Get and Put whose
// request shape appears as a key is silently re-keyed to the mapped
// representative, so congruent requests share one cache entry. The
// caller must guarantee the congruence is byte-exact — B(v, G, φ) and
// B(v, G, rep(φ)) identical for every node and graph — which is what
// contain.ComputeClasses certifies (see internal/contain's canonical
// congruence). Passing nil clears the table. Existing entries are left
// in place: entries keyed by a shape that just became an alias go cold
// and age out via LRU.
func (c *NeighborhoodCache) SetAliases(aliases map[shape.Shape]shape.Shape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aliases = aliases
}

// resolveLocked maps a request shape through the alias table. The
// second result reports whether a translation happened.
func (c *NeighborhoodCache) resolveLocked(phi shape.Shape) (shape.Shape, bool) {
	if rep, ok := c.aliases[phi]; ok {
		return rep, true
	}
	return phi, false
}

// Get returns the cached neighborhood of (v, φ) valid at the given epoch
// and whether there is one.
func (c *NeighborhoodCache) Get(epoch uint64, v rdfgraph.ID, phi shape.Shape) ([]rdfgraph.IDTriple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(epoch, v, phi)
}

// getRun is Get for shapes[0], shapes[1], … in order under one lock
// acquisition: each hit's triples are appended to dst, and the run stops at
// the first miss. It returns how many shapes were served, so shapes[n] (if
// any) is the one that missed. Counters and recency move exactly as under
// that many separate Gets.
func (c *NeighborhoodCache) getRun(epoch uint64, v rdfgraph.ID, shapes []shape.Shape, dst []rdfgraph.IDTriple) ([]rdfgraph.IDTriple, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, phi := range shapes {
		ts, ok := c.getLocked(epoch, v, phi)
		if !ok {
			return dst, i
		}
		dst = append(dst, ts...)
	}
	return dst, len(shapes)
}

func (c *NeighborhoodCache) getLocked(epoch uint64, v rdfgraph.ID, phi shape.Shape) ([]rdfgraph.IDTriple, bool) {
	rep, aliased := c.resolveLocked(phi)
	// Entries of one key are newest first and their ranges disjoint: the
	// first that starts at or before epoch is the only candidate.
	for el := c.items[rep][v]; el != nil; {
		en := el.Value.(*neighborhoodEntry)
		if en.from > epoch {
			el = en.older
			continue
		}
		if epoch > c.end(en) {
			break
		}
		c.hits++
		if aliased {
			c.aliasHits++
		}
		c.ll.MoveToFront(el)
		return en.triples, true
	}
	c.misses++
	return nil, false
}

// Put stores the neighborhood of (v, φ) computed at the given epoch,
// evicting least-recently-used entries until it fits. Neighborhoods larger
// than the whole budget are not cached at all, and neither is one computed
// at an epoch older than the newest applied transition: the invalidations
// since were applied without it.
func (c *NeighborhoodCache) Put(epoch uint64, v rdfgraph.ID, phi shape.Shape, ts []rdfgraph.IDTriple) {
	cost := entryCost(ts)
	if cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.applied {
		return
	}
	rep, _ := c.resolveLocked(phi)
	if head := c.items[rep][v]; head != nil {
		en := head.Value.(*neighborhoodEntry)
		if epoch <= c.end(en) || en.from > epoch {
			// Concurrent workers may compute the same neighborhood; keep
			// the incumbent (a newer or equal result) and refresh recency.
			c.ll.MoveToFront(head)
			return
		}
		// The incumbent is not known valid at epoch: its range ends where
		// the applied transitions leave it.
		if en.to == openRange {
			c.closeLocked(head, c.end(en))
		}
	}
	for c.size+cost > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*neighborhoodEntry)
		c.removeLocked(back)
		c.evictions++
		c.evicted += uint64(len(ev.triples))
	}
	// The eviction loop may have removed the incumbent.
	byNode := c.items[rep]
	if byNode == nil {
		byNode = make(map[rdfgraph.ID]*list.Element)
		c.items[rep] = byNode
	}
	head := byNode[v]
	byNode[v] = c.ll.PushFront(&neighborhoodEntry{
		byNode: byNode, node: v, triples: ts, from: epoch, to: openRange, older: head,
	})
	c.size += cost
	c.open++
}

// closeLocked ends el's open range at epoch to.
func (c *NeighborhoodCache) closeLocked(el *list.Element, to uint64) {
	en := el.Value.(*neighborhoodEntry)
	en.to = to
	c.open--
	c.closed[el] = struct{}{}
}

// removeLocked drops el from the LRU, its key's chain and the accounting.
func (c *NeighborhoodCache) removeLocked(el *list.Element) {
	en := el.Value.(*neighborhoodEntry)
	c.ll.Remove(el)
	c.size -= entryCost(en.triples)
	if en.to == openRange {
		c.open--
	} else {
		delete(c.closed, el)
	}
	// A shape's map stays when it empties: the shapes are the schema's,
	// and a map made afresh would grow afresh.
	byNode := en.byNode
	if byNode[en.node] == el {
		if en.older != nil {
			byNode[en.node] = en.older
		} else {
			delete(byNode, en.node)
		}
		return
	}
	for cur := byNode[en.node]; cur != nil; {
		newer := cur.Value.(*neighborhoodEntry)
		if newer.older == el {
			newer.older = en.older
			return
		}
		cur = newer.older
	}
}

// EvictBelow removes every entry whose range ended before epoch min,
// returning how many entries and triples were dropped. The serving layer
// calls it once no in-flight request pins an epoch below min. It visits
// closed entries only, unless min passes the newest applied transition —
// as in a cache that is never invalidated — where open entries computed
// before min end below it too.
func (c *NeighborhoodCache) EvictBelow(min uint64) (entries, triples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	drop := func(el *list.Element) {
		en := el.Value.(*neighborhoodEntry)
		entries++
		triples += len(en.triples)
		c.removeLocked(el)
	}
	for el := range c.closed {
		if el.Value.(*neighborhoodEntry).to < min {
			drop(el)
		}
	}
	if c.applied < min {
		var next *list.Element
		for el := c.ll.Front(); el != nil; el = next {
			next = el.Next()
			if en := el.Value.(*neighborhoodEntry); en.to == openRange && en.from < min {
				drop(el)
			}
		}
	}
	c.stale += uint64(entries)
	c.staleTrip += uint64(triples)
	return entries, triples
}

// CacheStats is a snapshot of cache effectiveness and occupancy
// counters. Hits, Misses, Evictions and EvictedTriples are cumulative
// since construction; Entries, Triples and Bytes describe current
// occupancy (Bytes approximates resident triple storage as
// Triples × sizeof(IDTriple), ignoring per-entry map and list overhead).
type CacheStats struct {
	Hits, Misses   uint64
	Evictions      uint64 // entries removed to make room
	EvictedTriples uint64 // triples those entries held
	StaleEvictions uint64 // entries removed by EvictBelow (their range ended)
	StaleTriples   uint64 // triples those entries held
	AliasHits      uint64 // hits served through a containment alias (subset of Hits)
	Kept           uint64 // open entries Invalidate left open, summed over transitions
	Invalidated    uint64 // entries Invalidate closed
	Entries        int
	Triples        int
	Bytes          int
}

// Stats returns a consistent snapshot of the counters.
func (c *NeighborhoodCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		EvictedTriples: c.evicted,
		StaleEvictions: c.stale,
		StaleTriples:   c.staleTrip,
		AliasHits:      c.aliasHits,
		Kept:           c.kept,
		Invalidated:    c.invalidated,
		Entries:        c.ll.Len(),
		Triples:        c.size,
		Bytes:          c.size * idTripleBytes,
	}
}

// Len returns the number of cached neighborhoods.
func (c *NeighborhoodCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// NeighborhoodIDsCached computes B(v, G, φ) as dictionary-encoded triples,
// serving from and filling cache when it is non-nil. epoch identifies the
// snapshot the extractor's graph belongs to (0 for single-graph callers).
// For cache hits to occur, φ must be the same Shape value across calls (see
// NeighborhoodCache on key identity). The returned slice is shared and must
// not be modified.
func (x *Extractor) NeighborhoodIDsCached(cache *NeighborhoodCache, epoch uint64, v rdfgraph.ID, phi shape.Shape) []rdfgraph.IDTriple {
	if cache != nil {
		if ts, ok := cache.Get(epoch, v, phi); ok {
			return ts
		}
	}
	return x.neighborhoodMiss(cache, epoch, v, phi)
}

// NeighborhoodsCached appends B(v, G, φ) for every φ of shapes, in order, to
// dst: NeighborhoodIDsCached over a shape list, except that consecutive
// cache hits share one lock acquisition (a fully cached node costs one),
// and ctx is polled once up front and once after each miss rather than once
// per shape — and, from the first miss on, by the path searches themselves:
// one that ctx ends mid-search comes back as ctx.Err(), with nothing of the
// interrupted neighborhood cached. The result may repeat triples that
// several shapes select.
func (x *Extractor) NeighborhoodsCached(ctx context.Context, cache *NeighborhoodCache, epoch uint64, v rdfgraph.ID, shapes []shape.Shape, dst []rdfgraph.IDTriple) (out []rdfgraph.IDTriple, err error) {
	stoppable := false // a warm hit runs no search and installs nothing
	defer func() {
		if !stoppable {
			return
		}
		// x outlives the call (the server pools it), and its other callers
		// recover nothing.
		x.ev.SetStop(nil)
		if r := recover(); r == paths.ErrStopped {
			out, err = nil, ctx.Err()
		} else if r != nil {
			panic(r)
		}
	}()
	for i := 0; i < len(shapes); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cache != nil {
			var n int
			dst, n = cache.getRun(epoch, v, shapes[i:], dst)
			if i += n; i == len(shapes) {
				break
			}
		}
		if !stoppable {
			stoppable = true
			x.ev.SetStop(stopOf(ctx))
		}
		dst = append(dst, x.neighborhoodMiss(cache, epoch, v, shapes[i])...)
	}
	return dst, nil
}

// neighborhoodMiss computes B(v, G, φ) on the AST walker as an isolated
// per-node neighborhood (isolated). It stores the result in cache when
// cache is non-nil; the caller has already missed there.
func (x *Extractor) neighborhoodMiss(cache *NeighborhoodCache, epoch uint64, v rdfgraph.ID, phi shape.Shape) []rdfgraph.IDTriple {
	per := rdfgraph.NewIDTripleSet()
	x.isolated(v, shape.NNF(phi), nil, per, make(map[VisitKey]struct{}))
	ts := per.IDTriples()
	if cache != nil {
		cache.Put(epoch, v, phi, ts)
	}
	return ts
}

// isolated adds B(v, G, φ) — nnf is φ's NNF — to out as a unit of its own,
// nothing shared with earlier units: on the bound program b when it is
// non-nil, on the AST walker with visited cleared otherwise
// (byte-identical, parity-gated).
func (x *Extractor) isolated(v rdfgraph.ID, nnf shape.Shape, b *plan.Bound, out *rdfgraph.IDTripleSet, visited map[VisitKey]struct{}) {
	if b != nil {
		b.ResetVisited()
		b.CollectInto(v, out)
		return
	}
	clear(visited)
	x.collect(v, nnf, out, visited)
}

// Neighborhoods calls fn with B(v, G, request) for each v of nodes, in
// order, each extracted in isolation as a cache entry is, so a triple
// several foci select comes back once per focus. It runs on prog where that
// Fits G's dictionary (nil: the AST walker). The slice fn gets is reused
// by the next call. A panic during extraction comes back as a *PanicError.
func (x *Extractor) Neighborhoods(request shape.Shape, prog *plan.Program, nodes []rdfgraph.ID, fn func(ts []rdfgraph.IDTriple)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	var b *plan.Bound
	if prog != nil && len(nodes) > 0 && prog.Fits(x.ev.G.Dict().Len()) {
		b = prog.Bind(x.ev.G)
		defer b.Release()
	}
	nnf := shape.NNF(request)
	per, visited := rdfgraph.NewIDTripleSet(), make(map[VisitKey]struct{})
	var ts []rdfgraph.IDTriple
	for _, v := range nodes {
		per.Reset()
		x.isolated(v, nnf, b, per, visited)
		ts = per.AppendTo(ts[:0])
		fn(ts)
	}
	return nil
}
