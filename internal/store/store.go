// Package store is the storage tier of the serving stack: it owns the
// sequence of immutable graph epochs a server reads from and the delta
// path that publishes new ones. There is one implementation (Sharded): the
// dictionary-encoded indexes are partitioned by subject ID across N ≥ 1
// shards sharing one dictionary. Everything above this package — the
// extractors of internal/core, the HTTP handlers of internal/fragserver,
// the CLI — speaks Store and rdfgraph.Reader and cannot tell shard counts
// apart except by throughput.
package store

import (
	"fmt"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// Config sizes the store.
type Config struct {
	// Shards is the shard count; 0 means 1, negative counts are rejected.
	Shards int
}

func (c Config) shards() (int, error) {
	if c.Shards < 0 {
		return 0, fmt.Errorf("store: shard count %d < 0", c.Shards)
	}
	if c.Shards == 0 {
		return 1, nil
	}
	return c.Shards, nil
}

// Snapshot is one immutable epoch of a Store. Epochs start at 1 and
// increase by one per effective update, so they order snapshots and key
// cache entries; the Reader is frozen and safe for any number of concurrent
// readers for as long as the caller retains it.
type Snapshot interface {
	// Reader is the read surface of this epoch.
	Reader() rdfgraph.Reader
	// Epoch returns the epoch number.
	Epoch() uint64
}

// ApplyResult reports what an Apply did.
type ApplyResult struct {
	// Snapshot is the snapshot current after the call: the freshly
	// published epoch, or the previous one when the delta was a no-op.
	Snapshot Snapshot
	// Prev is the epoch the delta was applied against, read under the
	// same lock that published Snapshot — so Prev+1 == Snapshot.Epoch()
	// whenever Changed. Callers carrying caches across the update MUST
	// key the carry on Prev, never on an epoch they read before calling
	// Apply: two racing updates can both observe the same pre-apply
	// epoch, and the later one would then carry entries across the
	// earlier delta using only its own Unaffected predicate, silently
	// skipping the earlier delta's effects.
	Prev uint64
	// Added and Deleted count effective operations (duplicates and
	// absent deletions excluded).
	Added, Deleted int
	// Changed reports whether a new epoch was published.
	Changed bool
	// Unaffected reports whether a node's weakly-connected component —
	// over the union of the previous epoch's edges and the added edges,
	// built globally across all shards, never per shard, because a
	// component freely spans shard boundaries — contains no endpoint of
	// an effective delta triple. Every Table 2 extraction rule walks
	// edges from the focus node, so both B(v,G,φ) and v's conformance
	// depend only on v's component: an Unaffected node has the identical
	// neighborhood and verdict in both epochs, which is what lets a cache
	// carry its entries forward. IDs must come from the new snapshot's
	// dictionary (the previous epoch's IDs are valid there too).
	// Unaffected is safe for concurrent use.
	Unaffected func(rdfgraph.ID) bool
}

// AffectedNodes filters nodes down to those the delta's components touch:
// the inversion of Unaffected into the worklist incremental re-extraction
// runs over. Pass the new snapshot's NodeIDs to get the focus nodes whose
// neighborhood or verdict may have changed (new nodes introduced by the
// delta are endpoints of effective triples, so they always qualify); nodes
// a deletion removed from N(G) are absent from that list and must be
// handled by the caller (their neighborhoods are empty in the new epoch).
func (res ApplyResult) AffectedNodes(nodes []rdfgraph.ID) []rdfgraph.ID {
	if !res.Changed {
		return nil
	}
	var out []rdfgraph.ID
	for _, id := range nodes {
		if !res.Unaffected(id) {
			out = append(out, id)
		}
	}
	return out
}

// Store owns a sequence of immutable graph snapshots and publishes new
// epochs atomically: readers call Current once and use that snapshot for
// the whole request without ever blocking on writers; writers are
// serialized internally and publish copy-on-write epochs. The interface
// exists so tests can substitute a store whose reader misbehaves.
type Store interface {
	// Current returns the latest published snapshot.
	Current() Snapshot
	// Apply builds and publishes the next epoch from the current one.
	Apply(d rdfgraph.Delta) ApplyResult
	// NumShards returns the shard count.
	NumShards() int
	// ShardTriples returns the per-shard triple counts of the current
	// epoch.
	ShardTriples() []int
	// CrossShardResolutions returns the cumulative count of reverse-index
	// results resolved from a shard other than the queried node's own
	// (always 0 on one shard).
	CrossShardResolutions() uint64
}

// New freezes an already-built graph and publishes it as epoch 1. One
// shard adopts g as it stands; several re-partition g's triples by subject
// ID. Either way the dictionary is g's, so IDs held by callers stay valid.
//
// The store owns g from here on: do not mutate it or pass it to a second
// New. Later epochs extend g's dictionary (on one shard, its edge slices
// too) under this store's writer lock; a second store over g would be a
// second writer lineage on the same term table. Pass g.Clone() instead.
func New(g *rdfgraph.Graph, cfg Config) (Store, error) {
	n, err := cfg.shards()
	if err != nil {
		return nil, err
	}
	g.Freeze()
	if n == 1 {
		return newSharded(&ShardedGraph{dict: g.Dict(), shards: []*rdfgraph.Graph{g}}), nil
	}
	sg := NewShardedGraph(n, g.Dict())
	g.EachTriple(func(s, p, o rdfgraph.ID) { sg.AddIDs(s, p, o) })
	return newSharded(sg), nil
}

// Loader streams triples into a store without materializing the full
// triple slice: each Add interns the terms and updates the indexes in
// place, so peak memory is the final index size, not indexes plus a
// []rdf.Triple copy of the input. This is what lets a 10M-triple datagen
// graph load within bounded memory.
type Loader struct {
	sg *ShardedGraph
}

// NewLoader returns an empty loader for the configured shard count.
func NewLoader(cfg Config) (*Loader, error) {
	n, err := cfg.shards()
	if err != nil {
		return nil, err
	}
	return &Loader{sg: NewShardedGraph(n, rdfgraph.NewDict())}, nil
}

// Add inserts one triple, reporting whether it was new.
func (l *Loader) Add(t rdf.Triple) bool { return l.sg.Add(t) }

// Len returns the number of triples loaded so far.
func (l *Loader) Len() int { return l.sg.Len() }

// Reader exposes the graph under construction. It must not be used
// concurrently with Add; after Finish it is the epoch-1 read surface.
func (l *Loader) Reader() rdfgraph.Reader { return l.sg.reader() }

// Finish freezes the loaded graph and wraps it as epoch 1 of a Store.
func (l *Loader) Finish() Store { return newSharded(l.sg) }
