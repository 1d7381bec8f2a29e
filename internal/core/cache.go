package core

import (
	"container/list"
	"context"
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
// a schema's definition shapes), otherwise every request misses. The cache
// keys exactly the shapes it is given; shapes whose neighborhoods coincide
// share entries only if the caller passes one of them for all (fragserver
// passes each containment class's representative). The cached slices are
// shared between callers and must be treated as immutable.
//
// Every entry is valid from the store epoch (see store.Store) it was
// computed at up to the newest epoch the cache is known to hold at.
// Invalidate steps the cache across one epoch transition: it removes the
// entries the update can reach and leaves every other entry valid at the
// new epoch in place — nothing is copied, and only the reached entries are
// touched. Until the transition into an epoch is applied, a Get at that
// epoch misses on every entry computed before it. Transitions arrive one at
// a time, in epoch order (the serving layer serializes its writes); one that
// does not leave the newest applied epoch removes every entry. A cache that
// is never invalidated serves an entry at the epoch it was computed at
// only; single-graph callers that never update pass any constant epoch (0
// works) everywhere.
//
// The bound is expressed in triples, not entries, because neighborhood
// sizes vary by orders of magnitude; an empty neighborhood still costs one
// unit so that negative results are bounded too.
type NeighborhoodCache struct {
	mu     sync.Mutex
	budget int
	size   int
	ll     *list.List // front = most recently used
	// items holds, per shape and node, its one entry.
	items map[shape.Shape]map[rdfgraph.ID]*list.Element
	// applied is the newest epoch whose transition Invalidate has applied
	// (or the one SetEpoch declared).
	applied uint64
	// tracked maps every shape SetFootprints tracks to its read automaton
	// in footprints; readers indexes those by the predicate IRIs they
	// name, and readAll lists the ones a triple of any predicate can reach.
	// All four are immutable once set.
	tracked    map[shape.Shape]int
	footprints []*shape.Footprint
	readers    map[string][]int
	readAll    []int

	hits        uint64
	misses      uint64
	evictions   uint64
	evicted     uint64 // triples removed by evictions, cumulative
	kept        uint64 // entries an Invalidate left in place, cumulative
	invalidated uint64 // entries an Invalidate removed, cumulative
}

// idTripleBytes is the in-memory size of one cached triple, used to
// report the cache's triple budget in bytes for operators.
const idTripleBytes = int(unsafe.Sizeof(rdfgraph.IDTriple{}))

// neighborhoodEntry is one cached neighborhood, valid from epoch from on
// (see NeighborhoodCache.valid). A workload that misses more than it hits
// allocates one per miss.
type neighborhoodEntry struct {
	byNode  map[rdfgraph.ID]*list.Element // its shape's map in items
	node    rdfgraph.ID
	triples []rdfgraph.IDTriple
	from    uint64 // the epoch it was computed at
}

// NewNeighborhoodCache returns a cache bounded to about maxTriples cached
// triples in total; maxTriples <= 0 selects a default of one million.
func NewNeighborhoodCache(maxTriples int) *NeighborhoodCache {
	if maxTriples <= 0 {
		maxTriples = 1 << 20
	}
	return &NeighborhoodCache{
		budget: maxTriples,
		ll:     list.New(),
		items:  make(map[shape.Shape]map[rdfgraph.ID]*list.Element),
	}
}

func entryCost(ts []rdfgraph.IDTriple) int {
	if len(ts) == 0 {
		return 1
	}
	return len(ts)
}

// valid reports whether en is known valid at epoch: from the epoch it was
// computed at up to the newest applied one (its own if computed later).
func (c *NeighborhoodCache) valid(en *neighborhoodEntry, epoch uint64) bool {
	return en.from <= epoch && epoch <= max(en.from, c.applied)
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
	if el := c.items[phi][v]; el != nil {
		if en := el.Value.(*neighborhoodEntry); c.valid(en, epoch) {
			c.hits++
			c.ll.MoveToFront(el)
			return en.triples, true
		}
	}
	c.misses++
	return nil, false
}

// Put stores the neighborhood of (v, φ) computed at the given epoch,
// evicting least-recently-used entries until it fits. Neighborhoods larger
// than the whole budget are not cached at all, and neither is one computed
// at an epoch older than the newest applied transition: the invalidations
// since were applied without it. An incumbent valid at epoch, or computed
// later, stays; any other is replaced.
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
	if el := c.items[phi][v]; el != nil {
		if en := el.Value.(*neighborhoodEntry); en.from > epoch || c.valid(en, epoch) {
			// Concurrent workers may compute the same neighborhood; keep
			// the incumbent (a newer or equal result) and refresh recency.
			c.ll.MoveToFront(el)
			return
		}
		c.removeLocked(el)
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
	byNode := c.items[phi]
	if byNode == nil {
		byNode = make(map[rdfgraph.ID]*list.Element)
		c.items[phi] = byNode
	}
	byNode[v] = c.ll.PushFront(&neighborhoodEntry{byNode: byNode, node: v, triples: ts, from: epoch})
	c.size += cost
}

// removeLocked drops el from the LRU, its shape's map and the accounting.
// A shape's map stays when it empties: the shapes are the schema's, and a
// map made afresh would grow afresh.
func (c *NeighborhoodCache) removeLocked(el *list.Element) {
	en := el.Value.(*neighborhoodEntry)
	c.ll.Remove(el)
	c.size -= entryCost(en.triples)
	delete(en.byNode, en.node)
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
	Kept           uint64 // entries Invalidate left in place, summed over transitions
	Invalidated    uint64 // entries Invalidate removed
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
// several foci select comes back once per focus. It runs on prog (nil: the
// AST walker). The slice fn gets is reused by the next call. A panic during
// extraction comes back as a *PanicError.
func (x *Extractor) Neighborhoods(request shape.Shape, prog *plan.Program, nodes []rdfgraph.ID, fn func(ts []rdfgraph.IDTriple)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	var b *plan.Bound
	if prog != nil && len(nodes) > 0 {
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
