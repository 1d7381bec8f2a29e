package core

import (
	"cmp"
	"context"
	"runtime/debug"
	"slices"
	"sync"
	"unsafe"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// NeighborhoodCache is a concurrency-safe, size-bounded cache of
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
// Entries are stored node-major: each cached node has one row of entries
// sorted by their shape's column, so a node's lookups over a shape list in
// column order walk one short row.
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
// unit so that negative results are bounded too. Eviction is second
// chance: entries queue in insertion order, a hit marks its entry, and
// the sweep evicts the oldest unmarked entry, sending each marked one it
// passes to the back of the queue with its mark cleared.
type NeighborhoodCache struct {
	mu      sync.Mutex
	budget  int
	size    int
	entries int
	// rows holds each cached node's entries, sorted by column; cols gives
	// each shape seen its column: its footprint index when SetFootprints
	// tracks it, the next free column from its first Put otherwise; byCol
	// is cols inverted.
	rows  map[rdfgraph.ID][]*neighborhoodEntry
	cols  map[shape.Shape]int32
	byCol []shape.Shape
	// queue is the sentinel of the eviction order: queue.next is the
	// entry the sweep reaches first, queue.prev the newest.
	queue neighborhoodEntry
	// applied is the newest epoch whose transition Invalidate has applied
	// (or the one SetEpoch declared).
	applied uint64
	// footprints holds the read automaton of every column SetFootprints
	// tracks; readers indexes those by the predicate IRIs they name, and
	// readAll lists the ones a triple of any predicate can reach. All three
	// are immutable once set.
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
// (see NeighborhoodCache.valid), and its place in the eviction queue. A
// workload that misses more than it hits allocates one per miss.
type neighborhoodEntry struct {
	node       rdfgraph.ID
	col        int32
	ref        bool   // hit since the sweep last passed it
	from       uint64 // the epoch it was computed at
	triples    []rdfgraph.IDTriple
	prev, next *neighborhoodEntry
}

// NewNeighborhoodCache returns a cache bounded to about maxTriples cached
// triples in total; maxTriples <= 0 selects a default of one million.
func NewNeighborhoodCache(maxTriples int) *NeighborhoodCache {
	if maxTriples <= 0 {
		maxTriples = 1 << 20
	}
	c := &NeighborhoodCache{
		budget: maxTriples,
		rows:   make(map[rdfgraph.ID][]*neighborhoodEntry),
		cols:   make(map[shape.Shape]int32),
	}
	c.queue.prev, c.queue.next = &c.queue, &c.queue
	return c
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

// findCol returns the position of col in row, or where it would go.
func findCol(row []*neighborhoodEntry, col int32) (int, bool) {
	return slices.BinarySearchFunc(row, col, func(en *neighborhoodEntry, col int32) int { return cmp.Compare(en.col, col) })
}

// Get returns the cached neighborhood of (v, φ) valid at the given epoch
// and whether there is one.
func (c *NeighborhoodCache) Get(epoch uint64, v rdfgraph.ID, phi shape.Shape) ([]rdfgraph.IDTriple, bool) {
	ts, n := c.getRun(epoch, v, []shape.Shape{phi}, nil)
	return ts, n == 1
}

// getRun is Get for shapes[0], shapes[1], … in order under one lock
// acquisition and one row lookup: each hit's triples are appended to dst,
// and the run stops at the first miss. It returns how many shapes were
// served, so shapes[n] (if any) is the one that missed. Counters and
// reference marks move exactly as under that many separate Gets. Shapes
// in column order are found by walking the row forward; others by search.
func (c *NeighborhoodCache) getRun(epoch uint64, v rdfgraph.ID, shapes []shape.Shape, dst []rdfgraph.IDTriple) ([]rdfgraph.IDTriple, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, j := c.rows[v], 0
	for i, phi := range shapes {
		ok := j < len(row) && c.byCol[row[j].col] == phi
		if !ok {
			var col int32
			if col, ok = c.cols[phi]; ok {
				j, ok = findCol(row, col)
			}
		}
		if !ok || !c.valid(row[j], epoch) {
			c.misses++
			return dst, i
		}
		c.hits++
		row[j].ref = true
		dst = append(dst, row[j].triples...)
		j++
	}
	return dst, len(shapes)
}

// Put stores the neighborhood of (v, φ) computed at the given epoch,
// sweeping the eviction queue (see NeighborhoodCache) until it fits, and
// queues it last. Neighborhoods larger than the whole budget are not
// cached at all, and neither is one computed at an epoch older than the
// newest applied transition: the invalidations since were applied without
// it. An incumbent valid at epoch, or computed later, stays; any other is
// replaced.
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
	col, ok := c.cols[phi]
	if !ok {
		col = int32(len(c.byCol))
		c.cols[phi], c.byCol = col, append(c.byCol, phi)
	}
	row := c.rows[v]
	if j, ok := findCol(row, col); ok {
		if en := row[j]; en.from > epoch || c.valid(en, epoch) {
			// Concurrent workers may compute the same neighborhood; keep
			// the incumbent (a newer or equal result), marked as used.
			en.ref = true
			return
		}
		c.removeLocked(row[j])
	}
	for c.size+cost > c.budget && c.queue.next != &c.queue {
		en := c.queue.next
		if en.ref {
			en.ref = false
			en.unlink()
			c.pushBack(en)
			continue
		}
		c.removeLocked(en)
		c.evictions++
		c.evicted += uint64(len(en.triples))
	}
	en := &neighborhoodEntry{node: v, col: col, from: epoch, triples: ts}
	j, _ := findCol(c.rows[v], col)
	c.rows[v] = slices.Insert(c.rows[v], j, en)
	c.pushBack(en)
	c.size += cost
	c.entries++
}

func (en *neighborhoodEntry) unlink() { en.prev.next, en.next.prev = en.next, en.prev }

func (c *NeighborhoodCache) pushBack(en *neighborhoodEntry) {
	en.prev, en.next = c.queue.prev, &c.queue
	en.prev.next, c.queue.prev = en, en
}

// removeLocked drops en from the eviction queue, its node's row and the
// accounting; a row that empties goes with it.
func (c *NeighborhoodCache) removeLocked(en *neighborhoodEntry) {
	en.unlink()
	c.size -= entryCost(en.triples)
	c.entries--
	row := c.rows[en.node]
	j, _ := findCol(row, en.col)
	if row = slices.Delete(row, j, j+1); len(row) == 0 {
		delete(c.rows, en.node)
	} else {
		c.rows[en.node] = row
	}
}

// CacheStats is a snapshot of cache effectiveness and occupancy
// counters. Hits, Misses, Evictions and EvictedTriples are cumulative
// since construction; Entries, Triples and Bytes describe current
// occupancy (Bytes approximates resident triple storage as
// Triples × sizeof(IDTriple), ignoring per-entry row and queue overhead).
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
		Entries:        c.entries,
		Triples:        c.size,
		Bytes:          c.size * idTripleBytes,
	}
}

// Len returns the number of cached neighborhoods.
func (c *NeighborhoodCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
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
