// Package store is the storage tier of the serving stack: it owns the
// sequence of immutable graph epochs a server reads from and the delta
// path that publishes new ones. An epoch is one frozen *rdfgraph.Graph —
// the graph G the paper defines B(v, G, φ) and Frag(G, S) over. Everything
// above this package — the extractors of internal/core, the HTTP handlers
// of internal/fragserver, the CLI — reads an epoch through rdfgraph.Reader.
package store

import (
	"sync"
	"sync/atomic"

	"shaclfrag/internal/rdfgraph"
)

// Config is empty: there is nothing to size. It and New's error result
// remain only because the frozen benchmark module calls
// store.New(g, store.Config{}); the benchmark PR, ROADMAP item 1, deletes
// both.
type Config struct{}

// Snapshot is one immutable epoch of a Store. Epochs start at 1 and
// increase by one per effective update, so they order snapshots and key
// cache entries; the Reader is frozen and safe for any number of concurrent
// readers for as long as the caller retains it. It is an interface while
// the frozen benchmark module names it as a type (ROADMAP item 1).
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
	// whenever Changed. Its one job is ordering live.Notify: handlers
	// notify after the store's lock is released, so two racing updates
	// can arrive out of epoch order, and the maintainer stashes a result
	// until the epoch named by its Prev is the one it maintains.
	Prev uint64
	// Base is the snapshot of epoch Prev, the graph the delta was applied
	// to: the one the neighborhoods cached before the update were computed
	// on, so the serving layer walks it to find which of them the delta can
	// reach. It is Snapshot itself when the delta was a no-op.
	Base Snapshot
	// Added and Deleted count effective operations (duplicates and
	// absent deletions excluded).
	Added, Deleted int
	// Changed reports whether a new epoch was published.
	Changed bool
	// Unaffected is always nil: Apply does not decide which nodes an update
	// affects (the serving layer's cache invalidation walks Base for that).
	// It exists only because the frozen benchmark module
	// (bench/trace.go) passes it to core.NeighborhoodCache.Carry; the
	// benchmark PR, ROADMAP item 1, deletes both.
	Unaffected func(rdfgraph.ID) bool
}

// Store owns a sequence of immutable graph snapshots and publishes new
// epochs atomically: readers call Current once and use that snapshot for
// the whole request without ever blocking on writers; writers are
// serialized internally and publish copy-on-write epochs. It is an
// interface so tests can substitute a store whose reader misbehaves, and
// because the frozen benchmark module names it (ROADMAP item 1).
type Store interface {
	// Current returns the latest published snapshot.
	Current() Snapshot
	// Apply builds and publishes the next epoch from the current one.
	Apply(d rdfgraph.Delta) ApplyResult
}

// New freezes g and publishes it as epoch 1; the dictionary is g's, so IDs
// held by callers stay valid. It never fails (see Config).
//
// The store owns g from here on: do not mutate it or pass it to a second
// New. Later epochs extend g's dictionary and edge slices under this
// store's writer lock; a second store over g would be a second writer
// lineage on the same term table. Pass g.Clone() instead.
func New(g *rdfgraph.Graph, _ Config) (Store, error) {
	st := &epochs{}
	st.publish(g, 1)
	return st, nil
}

// epochs is the Store: each epoch a frozen graph. Readers never block;
// writers serialize on mu and build the next epoch as a copy-on-write
// clone of the current one, so unchanged index pages and the dictionary
// are shared across epochs and IDs remain stable.
type epochs struct {
	mu  sync.Mutex
	cur atomic.Pointer[snapshot]
}

type snapshot struct {
	g     *rdfgraph.Graph
	epoch uint64
}

func (s *snapshot) Reader() rdfgraph.Reader { return s.g }
func (s *snapshot) Epoch() uint64           { return s.epoch }

// publish freezes g and makes it the current snapshot.
func (st *epochs) publish(g *rdfgraph.Graph, epoch uint64) *snapshot {
	g.Freeze()
	snap := &snapshot{g: g, epoch: epoch}
	st.cur.Store(snap)
	return snap
}

// Current implements Store.
func (st *epochs) Current() Snapshot { return st.cur.Load() }

// Apply implements Store. A no-op delta publishes nothing and returns the
// current snapshot with Changed=false; it is recognized on the current
// epoch, before any clone is built. Apply never blocks readers: they keep
// resolving Current against the old epoch until the new pointer is stored.
func (st *epochs) Apply(d rdfgraph.Delta) ApplyResult {
	st.mu.Lock()
	defer st.mu.Unlock()

	old := st.cur.Load()
	if !effective(old.g, d) {
		return ApplyResult{Snapshot: old, Prev: old.epoch, Base: old}
	}
	ng := old.g.CloneCOW()
	var added, deleted int
	for _, t := range d.Del {
		s := ng.LookupTerm(t.S)
		p := ng.LookupTerm(t.P)
		o := ng.LookupTerm(t.O)
		if s == rdfgraph.NoID || p == rdfgraph.NoID || o == rdfgraph.NoID {
			continue
		}
		if ng.RemoveIDs(s, p, o) {
			deleted++
		}
	}
	for _, t := range d.Add {
		if ng.AddIDs(ng.TermID(t.S), ng.TermID(t.P), ng.TermID(t.O)) {
			added++
		}
	}
	return ApplyResult{
		Snapshot: st.publish(ng, old.epoch+1),
		Prev:     old.epoch,
		Base:     old,
		Added:    added,
		Deleted:  deleted,
		Changed:  true,
	}
}

// effective reports whether d changes g: some deletion is present, or some
// addition is absent. (An addition that d also deletes has its deletion
// present.)
func effective(g *rdfgraph.Graph, d rdfgraph.Delta) bool {
	for _, t := range d.Del {
		if g.Has(t) {
			return true
		}
	}
	for _, t := range d.Add {
		if !g.Has(t) {
			return true
		}
	}
	return false
}
