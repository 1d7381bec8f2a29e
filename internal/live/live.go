// Package live maintains materialized shape fragments incrementally across
// store epochs and pushes per-epoch fragment deltas to subscribers.
//
// The paper's locality result is what makes this sound: B(v, G, φ) and v's
// conformance verdict depend only on v's weakly-connected component, so
// after a delta publishes epoch e+1, only focus nodes whose component the
// delta touched (store.ApplyResult.AffectedNodes — the inversion of the
// Unaffected predicate the cache-carry path already uses) can have changed
// neighborhoods. And a node outside the shape's focus candidates
// (shape.Evaluator.FocusCandidates: what its target and shape can hold of,
// read from the indexes) has an empty neighborhood in any epoch. A
// Maintainer therefore keeps, per subscribed shape, the per-focus-node
// neighborhoods plus a triple refcount over their union (the materialized
// fragment), and on every update re-extracts only the worklist
// candidates ∩ affected, diffing old against new per node; a node that
// held a neighborhood, lies in a touched component and is off the worklist
// — it left N(G), or stopped being a candidate — drops its contribution.
// Only a shape without a candidate set falls back to N(G) ∩ affected, so
// no update lists N(G) unless such a shape is subscribed.
//
// Triples whose refcount rises from zero enter the fragment, those falling
// to zero leave it; the sorted N-Triples renderings of the two sets are the
// per-epoch delta pushed to subscribers — serialized once per (shape,
// epoch) and shared by every subscriber, so fanout to thousands of clients
// is a channel send each.
//
// Re-extraction writes through the serving neighborhood cache, so an
// update leaves the cache warm for exactly the focus nodes it touched
// while the carry path keeps the untouched majority — /fragment after an
// update is served entirely from memory instead of cold.
//
// Epoch ordering: updates apply serially inside the store, but the
// handlers notifying the Maintainer race after the apply lock. Notify
// therefore stashes results whose predecessor epoch is not the maintained
// one and applies them once the chain closes, so maintenance always steps
// prev → prev+1 with the matching Unaffected predicate — the same
// discipline that fixes the cache-carry race.
package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"shaclfrag/internal/core"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

// Config sizes a Maintainer. Schema and Requests are required; everything
// else has serving-grade defaults.
type Config struct {
	// Schema provides shape definitions for extraction contexts.
	Schema *schema.Schema
	// Requests holds the pointer-stable request shapes (φ ∧ τ per
	// definition, in definition order) maintenance extracts and keys the
	// neighborhood cache by — pass the same slice the serving layer uses
	// so maintained entries and served entries share cache lines.
	Requests []shape.Shape
	// Cache, when non-nil, is written through by re-extraction (and
	// consulted first), keeping the serving cache warm for the nodes each
	// update touched.
	Cache *core.NeighborhoodCache
	// Plans, when non-nil, resolves the compiled program for a definition
	// index (nil: the AST walker). A program is bound only if it Fits the
	// dictionary of the snapshot being extracted.
	Plans func(def int) *plan.Program
	// Replay bounds the per-shape delta ring used to resume subscribers
	// from a Last-Event-ID epoch; <= 0 means 64. A subscriber further
	// behind than the ring receives a full snapshot event instead.
	Replay int
	// Queue is the per-subscriber event buffer; <= 0 means 32. A
	// subscriber whose buffer is full when a delta fans out is evicted
	// (its channel closes with reason "evicted") rather than allowed to
	// stall maintenance or grow memory without bound.
	Queue int
	// MaxSubscribers bounds concurrently open subscriptions across all
	// shapes; <= 0 means 4096.
	MaxSubscribers int
}

// Errors Subscribe returns; the serving layer maps both to 503.
var (
	ErrDraining        = errors.New("live: draining, no new subscriptions")
	ErrSubscriberLimit = errors.New("live: subscriber limit reached")
)

// Maintainer owns the per-shape materialized fragments and the
// subscription registry. All methods are safe for concurrent use; one
// mutex serializes maintenance steps, subscription changes and fanout, so
// a subscriber's event stream is exactly the epoch-ordered delta sequence
// from its subscription (or resume) point.
type Maintainer struct {
	cfg Config

	mu       sync.Mutex
	epoch    uint64
	snap     store.Snapshot
	shapes   map[int]*shapeState
	pending  map[uint64]store.ApplyResult // keyed by predecessor epoch
	nsubs    int
	draining bool

	// Cumulative counters, guarded by mu; exported via Stats.
	reextracted    uint64
	deltaAdded     uint64
	deltaRemoved   uint64
	eventsDelta    uint64
	eventsSnapshot uint64
	evicted        uint64
	resumed        uint64
}

// shapeState is one maintained shape: its per-focus-node neighborhoods,
// the refcounted fragment union, the replay ring, and its subscribers.
type shapeState struct {
	def     int
	request shape.Shape
	perNode map[rdfgraph.ID][]rdfgraph.IDTriple
	refs    map[rdfgraph.IDTriple]int
	ring    []Event // delta events for changed epochs in (floor, cur]
	floor   uint64  // highest epoch the ring can NOT replay past
	subs    map[*Subscription]struct{}
	snap    []byte // lazily built full-fragment payload for the current epoch
}

// NewMaintainer builds a Maintainer serving snap's epoch. No fragment is
// materialized until a shape's first subscriber arrives; until then every
// method is O(1) per update apart from bookkeeping the epoch chain.
func NewMaintainer(cfg Config, snap store.Snapshot) *Maintainer {
	if cfg.Replay <= 0 {
		cfg.Replay = 64
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 32
	}
	if cfg.MaxSubscribers <= 0 {
		cfg.MaxSubscribers = 4096
	}
	return &Maintainer{
		cfg:     cfg,
		epoch:   snap.Epoch(),
		snap:    snap,
		shapes:  make(map[int]*shapeState),
		pending: make(map[uint64]store.ApplyResult),
	}
}

// bind binds def's compiled program to g, nil when there is none or it does
// not Fit g's dictionary.
func (m *Maintainer) bind(def int, g rdfgraph.Reader) *plan.Bound {
	if m.cfg.Plans == nil {
		return nil
	}
	if p := m.cfg.Plans(def); p != nil && p.Fits(g.Dict().Len()) {
		return p.Bind(g)
	}
	return nil
}

// ensureShapeLocked materializes def's fragment at the current epoch on
// first use: one per-node extraction over the shape's focus nodes (through
// the cache, so a warm server pays near nothing), refcounting every
// neighborhood triple.
func (m *Maintainer) ensureShapeLocked(def int) *shapeState {
	if st, ok := m.shapes[def]; ok {
		return st
	}
	st := &shapeState{
		def:     def,
		request: m.cfg.Requests[def],
		perNode: make(map[rdfgraph.ID][]rdfgraph.IDTriple),
		refs:    make(map[rdfgraph.IDTriple]int),
		floor:   m.epoch,
		subs:    make(map[*Subscription]struct{}),
	}
	reader := m.snap.Reader()
	x := core.NewExtractor(reader, m.cfg.Schema)
	var all []rdfgraph.ID
	nodes := x.FocusNodes(st.request, &all)
	nbs := x.NodeNeighborhoods(st.request, m.bind(def, reader), nodes, m.cfg.Cache, m.epoch)
	for i, ts := range nbs {
		if len(ts) == 0 {
			continue
		}
		st.perNode[nodes[i]] = ts
		for _, t := range ts {
			st.refs[t]++
		}
	}
	m.reextracted += uint64(len(nodes))
	m.shapes[def] = st
	return st
}

// NotifyStats reports what one Notify call processed: Steps epochs were
// applied (more than one when this call closed a pending chain),
// re-extracting Reextracted (shape × delta-touched focus node)
// neighborhoods, and changing the maintained fragments by Added/Removed
// triples.
type NotifyStats struct {
	Steps       int
	Reextracted int
	Added       int
	Removed     int
}

// Notify advances maintenance across the epoch transition res describes
// and fans the resulting per-shape deltas out to subscribers. It must be
// called once per effective update; res.Changed false is a no-op.
// Out-of-order notifications (racing handlers) are stashed and
// applied when their predecessor epoch lands, so steps always run in
// epoch order against the matching Unaffected predicate.
//
// sp, when non-nil (the update request's "notify" span), receives the
// reextracted / shapes attributes and the reextract / fanout timings,
// accumulated by name whatever the number of shapes.
func (m *Maintainer) Notify(res store.ApplyResult, sp *obs.Span) NotifyStats {
	var stats NotifyStats
	if !res.Changed {
		return stats
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if res.Prev != m.epoch {
		// A racing handler for the successor epoch got here first; its
		// notification waits for ours. (Equal epochs cannot collide: the
		// store hands every Apply a distinct Prev under its lock.)
		m.pending[res.Prev] = res
		return stats
	}
	m.stepLocked(res, sp, &stats)
	for {
		next, ok := m.pending[m.epoch]
		if !ok {
			break
		}
		delete(m.pending, m.epoch)
		m.stepLocked(next, sp, &stats)
	}
	sp.SetAttrInt("reextracted", int64(stats.Reextracted))
	sp.SetAttrInt("shapes", int64(len(m.shapes)))
	return stats
}

// stepLocked applies one epoch transition: per maintained shape it
// re-extracts the focus candidates the delta's components touch, diffs,
// and publishes delta events.
func (m *Maintainer) stepLocked(res store.ApplyResult, sp *obs.Span, stats *NotifyStats) {
	snap := res.Snapshot
	reader := snap.Reader()
	epoch := snap.Epoch()
	stats.Steps++
	var all []rdfgraph.ID // N(G), listed only for a shape without candidates
	for def, st := range m.shapes {
		begin := time.Now()
		x := core.NewExtractor(reader, m.cfg.Schema)
		work := res.AffectedNodes(x.FocusNodes(st.request, &all)) // sorted
		var added, removed []rdfgraph.IDTriple
		if len(work) > 0 {
			nbs := x.NodeNeighborhoods(st.request, m.bind(def, reader), work, m.cfg.Cache, epoch)
			for i, v := range work {
				added, removed = st.diff(v, nbs[i], added, removed)
			}
		}
		// Nodes of a touched component that held a neighborhood and are
		// off the worklist left N(G) or stopped being candidates: either
		// way they no longer conform, so their neighborhood is empty now.
		// (After the worklist, so a triple another node still contributes
		// never drops to zero and back within one event.)
		for v := range st.perNode {
			if _, ok := slices.BinarySearch(work, v); !ok && !res.Unaffected(v) {
				added, removed = st.diff(v, nil, added, removed)
			}
		}
		m.reextracted += uint64(len(work))
		stats.Reextracted += len(work)
		sp.AccumChild("reextract").Add(time.Since(begin))
		if len(added) == 0 && len(removed) == 0 {
			continue // this delta did not move this shape's fragment
		}
		stats.Added += len(added)
		stats.Removed += len(removed)
		m.deltaAdded += uint64(len(added))
		m.deltaRemoved += uint64(len(removed))
		st.snap = nil // the cached full-fragment payload is stale
		ev := deltaEvent(epoch, lines(reader.Dict(), added), lines(reader.Dict(), removed))
		st.push(ev, m.cfg.Replay)
		begin = time.Now()
		m.fanoutLocked(st, ev)
		sp.AccumChild("fanout").Add(time.Since(begin))
	}
	m.epoch, m.snap = epoch, snap
}

// diff replaces v's neighborhood with ts, adjusting the fragment refcounts
// and appending the triples that entered/left the fragment to added and
// removed. A nil/empty ts drops v's contribution.
func (st *shapeState) diff(v rdfgraph.ID, ts []rdfgraph.IDTriple, added, removed []rdfgraph.IDTriple) (a, r []rdfgraph.IDTriple) {
	old := st.perNode[v]
	inOld := make(map[rdfgraph.IDTriple]struct{}, len(old))
	for _, t := range old {
		inOld[t] = struct{}{}
	}
	for _, t := range ts {
		if _, ok := inOld[t]; ok {
			delete(inOld, t) // still contributed by v: no refcount motion
			continue
		}
		if st.refs[t]++; st.refs[t] == 1 {
			added = append(added, t)
		}
	}
	for t := range inOld { // contributed by v before, not anymore
		if st.refs[t]--; st.refs[t] == 0 {
			delete(st.refs, t)
			removed = append(removed, t)
		}
	}
	if len(ts) > 0 {
		st.perNode[v] = ts
	} else {
		delete(st.perNode, v)
	}
	return added, removed
}

// push appends a delta event to the replay ring, advancing the floor when
// the ring sheds its oldest entry.
func (st *shapeState) push(ev Event, cap int) {
	st.ring = append(st.ring, ev)
	if len(st.ring) > cap {
		st.floor = st.ring[0].Epoch
		st.ring = st.ring[1:]
	}
}

// lines renders triples as sorted N-Triples lines; ts is sorted in place.
func lines(d *rdfgraph.Dict, ts []rdfgraph.IDTriple) []string {
	rdfgraph.SortIDTriples(d, ts)
	out := make([]string, 0, len(ts))
	var line []byte
	for _, t := range ts {
		line = d.Triple(t).AppendNTriples(line[:0])
		out = append(out, string(append(line, " ."...)))
	}
	return out
}

// snapshotEventLocked returns (building lazily) the full-fragment event of
// st at the current epoch: every materialized triple as "added". Shared by
// every subscriber that needs one until the next change invalidates it.
func (m *Maintainer) snapshotEventLocked(st *shapeState) Event {
	if st.snap == nil {
		ts := make([]rdfgraph.IDTriple, 0, len(st.refs))
		for t := range st.refs {
			ts = append(ts, t)
		}
		st.snap = payload(m.epoch, lines(m.snap.Reader().Dict(), ts), []string{})
	}
	return Event{Type: EventSnapshot, Epoch: m.epoch, Data: st.snap}
}

// FragmentLines returns the maintained fragment of def as sorted N-Triples
// lines, materializing it first if needed — the test seam asserting parity
// with cold extraction.
func (m *Maintainer) FragmentLines(def int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if def < 0 || def >= len(m.cfg.Requests) {
		return nil
	}
	st := m.ensureShapeLocked(def)
	ts := make([]rdfgraph.IDTriple, 0, len(st.refs))
	for t := range st.refs {
		ts = append(ts, t)
	}
	return lines(m.snap.Reader().Dict(), ts)
}

// Epoch returns the epoch maintenance has advanced to.
func (m *Maintainer) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Stats is a snapshot of maintenance and subscription counters. The
// cumulative fields are monotone since construction.
type Stats struct {
	Shapes      int // shapes with materialized fragments
	Subscribers int // currently open subscriptions
	Reextracted uint64
	DeltaAdded  uint64
	DeltaRemove uint64
	EventsDelta uint64
	EventsSnap  uint64
	Evicted     uint64 // subscribers evicted for falling behind
	Resumed     uint64 // subscriptions resumed from the replay ring
}

// Stats returns a consistent snapshot of the counters.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Shapes:      len(m.shapes),
		Subscribers: m.nsubs,
		Reextracted: m.reextracted,
		DeltaAdded:  m.deltaAdded,
		DeltaRemove: m.deltaRemoved,
		EventsDelta: m.eventsDelta,
		EventsSnap:  m.eventsSnapshot,
		Evicted:     m.evicted,
		Resumed:     m.resumed,
	}
}

// payload renders the shared JSON body of a delta or snapshot event.
func payload(epoch uint64, added, removed []string) []byte {
	b, err := json.Marshal(struct {
		Epoch   uint64   `json:"epoch"`
		Added   []string `json:"added"`
		Removed []string `json:"removed"`
	}{epoch, added, removed})
	if err != nil {
		// The struct above cannot fail to marshal; keep the signature slim.
		panic(fmt.Sprintf("live: rendering event payload: %v", err))
	}
	return b
}

func deltaEvent(epoch uint64, added, removed []string) Event {
	return Event{Type: EventDelta, Epoch: epoch, Data: payload(epoch, added, removed)}
}
