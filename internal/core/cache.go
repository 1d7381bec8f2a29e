package core

import (
	"container/list"
	"context"
	"sync"
	"unsafe"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// NeighborhoodCache is a concurrency-safe, size-bounded LRU cache of
// per-(node, shape) neighborhoods B(v, G, φ), stored as dictionary-encoded
// triples. It lets a serving subsystem answer repeated fragment and
// neighborhood requests against the same (frozen) graph from memory.
//
// Keys use shape identity: callers must pass pointer-stable request shapes
// (e.g. the SchemaRequests slice computed once at startup), otherwise every
// request misses. The cached slices are shared between callers and must be
// treated as immutable.
//
// Entries are additionally keyed by a store epoch (see store.Store):
// a neighborhood computed against epoch e is only ever served to requests
// pinned to epoch e, so no entry outlives its epoch. After an update
// publishes epoch e+1, reads at e+1 start cold (live maintenance writes
// through for the shapes it maintains), and EvictBelow reclaims entries of
// epochs no request can pin anymore. Single-graph callers that never
// update can pass any constant epoch (0 works) everywhere.
//
// The bound is expressed in triples, not entries, because neighborhood
// sizes vary by orders of magnitude; an empty neighborhood still costs one
// unit so that negative results are bounded too.
type NeighborhoodCache struct {
	mu        sync.Mutex
	budget    int
	size      int
	ll        *list.List // front = most recently used
	items     map[neighborhoodKey]*list.Element
	aliases   map[shape.Shape]shape.Shape // request shape -> class representative
	hits      uint64
	misses    uint64
	evictions uint64
	evicted   uint64 // triples removed by evictions, cumulative
	stale     uint64 // entries removed by EvictBelow, cumulative
	staleTrip uint64 // triples those entries held
	aliasHits uint64 // hits served through an alias translation
}

// idTripleBytes is the in-memory size of one cached triple, used to
// report the cache's triple budget in bytes for operators.
const idTripleBytes = int(unsafe.Sizeof(rdfgraph.IDTriple{}))

type neighborhoodKey struct {
	epoch uint64
	node  rdfgraph.ID
	shape shape.Shape
}

type neighborhoodEntry struct {
	key     neighborhoodKey
	triples []rdfgraph.IDTriple
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
		items:  make(map[neighborhoodKey]*list.Element),
	}
}

func entryCost(ts []rdfgraph.IDTriple) int {
	if len(ts) == 0 {
		return 1
	}
	return len(ts)
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

// Get returns the cached neighborhood of (v, φ) at the given epoch and
// whether it was present.
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
	el, ok := c.items[neighborhoodKey{epoch: epoch, node: v, shape: rep}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	if aliased {
		c.aliasHits++
	}
	c.ll.MoveToFront(el)
	return el.Value.(*neighborhoodEntry).triples, true
}

// Put stores the neighborhood of (v, φ) computed at the given epoch,
// evicting least-recently-used entries until it fits. Neighborhoods larger
// than the whole budget are not cached at all.
func (c *NeighborhoodCache) Put(epoch uint64, v rdfgraph.ID, phi shape.Shape, ts []rdfgraph.IDTriple) {
	cost := entryCost(ts)
	if cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, _ := c.resolveLocked(phi)
	c.putLocked(neighborhoodKey{epoch: epoch, node: v, shape: rep}, ts, cost)
}

func (c *NeighborhoodCache) putLocked(key neighborhoodKey, ts []rdfgraph.IDTriple, cost int) {
	if el, ok := c.items[key]; ok {
		// Concurrent workers may compute the same neighborhood; keep the
		// incumbent (the results are identical) and just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	for c.size+cost > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*neighborhoodEntry)
		c.ll.Remove(back)
		delete(c.items, ev.key)
		c.size -= entryCost(ev.triples)
		c.evictions++
		c.evicted += uint64(len(ev.triples))
	}
	c.items[key] = c.ll.PushFront(&neighborhoodEntry{key: key, triples: ts})
	c.size += cost
}

// EvictBelow removes every entry of an epoch older than min, returning how
// many entries and triples were dropped. The serving layer calls it once no
// in-flight request pins an epoch below min.
func (c *NeighborhoodCache) EvictBelow(min uint64) (entries, triples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ev := el.Value.(*neighborhoodEntry)
		if ev.key.epoch >= min {
			continue
		}
		c.ll.Remove(el)
		delete(c.items, ev.key)
		c.size -= entryCost(ev.triples)
		entries++
		triples += len(ev.triples)
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
	StaleEvictions uint64 // entries removed by EvictBelow (stale epochs)
	StaleTriples   uint64 // triples those entries held
	AliasHits      uint64 // hits served through a containment alias (subset of Hits)
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
	return x.neighborhoodMiss(cache, epoch, v, phi, x.nnf(phi), nil)
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
		dst = append(dst, x.neighborhoodMiss(cache, epoch, v, shapes[i], x.nnf(shapes[i]), nil)...)
	}
	return dst, nil
}

// neighborhoodMiss computes B(v, G, request) — nnf is the request's NNF —
// as an isolated per-node neighborhood: on the bound program b when it is
// non-nil, on the AST walker otherwise (byte-identical, parity-gated). It
// stores the result in cache when cache is non-nil; the caller has already
// missed there.
func (x *Extractor) neighborhoodMiss(cache *NeighborhoodCache, epoch uint64, v rdfgraph.ID, request, nnf shape.Shape, b *plan.Bound) []rdfgraph.IDTriple {
	per := rdfgraph.NewIDTripleSet()
	if b != nil {
		b.ResetVisited()
		b.CollectInto(v, per)
	} else {
		x.collect(v, nnf, per, make(map[VisitKey]struct{}))
	}
	ts := per.IDTriples()
	if cache != nil {
		cache.Put(epoch, v, request, ts)
	}
	return ts
}
