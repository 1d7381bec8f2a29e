// Package live maintains materialized shape fragments across store epochs
// and pushes per-epoch fragment deltas to subscribers.
//
// A maintained fragment is Frag(G_e, {φ ∧ τ}) of one definition at the
// maintained epoch e, kept as one array of encoded triples in canonical
// order. On every update the Maintainer extracts the new epoch's fragment
// with core.Extractor.FragmentParallelIDs, the call GET /fragment makes, and
// merge-diffs the two sorted arrays: triples only the new one holds are
// "added", those only the old one holds "removed", both still in canonical
// order. Their N-Triples renderings are the delta event, serialized once
// per (shape, epoch) and shared by every subscriber, so fanout to thousands
// of clients is a channel send each. Every focus candidate is extracted on
// every update: the neighborhood cache's footprints (core/invalidate.go)
// could narrow that to the neighborhoods a delta can reach, but live does
// not use them yet.
//
// A shape whose fragment cannot be extracted at an epoch (extraction
// panicked) is dropped: its subscribers are closed with ReasonEvicted, and
// the next Subscribe materializes it afresh. The epoch advances anyway.
//
// Epoch ordering: updates apply serially inside the store, but the
// handlers notifying the Maintainer race after the apply lock. Notify
// therefore stashes results whose predecessor epoch (ApplyResult.Prev) is
// not the maintained one and applies them once the chain closes, so
// maintenance always steps prev → prev+1 and every subscriber sees the
// deltas in epoch order.
package live

import (
	"encoding/json"
	"errors"
	"fmt"
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
	// Requests holds the request shapes (φ ∧ τ per definition, in
	// definition order) maintenance extracts.
	Requests []shape.Shape
	// Cache is ignored: maintenance extracts uncached. The field stays
	// only because the frozen benchmark module sets it; the benchmark
	// re-base (ROADMAP item 1) deletes it.
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

// shapeState is one maintained shape: its fragment, the replay ring, and
// its subscribers.
type shapeState struct {
	def   int
	frag  []rdfgraph.IDTriple // the fragment at the maintained epoch, in canonical order
	ring  []Event             // delta events for changed epochs in (floor, cur]
	floor uint64              // highest epoch the ring can NOT replay past
	subs  map[*Subscription]struct{}
	snap  []byte // lazily built full-fragment payload for the current epoch
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

// fragment extracts def's fragment from reader: FragmentParallelIDs over
// def's request, on def's compiled program where it Fits, at one worker —
// maintenance stays on the goroutine that holds m.mu. nodes counts the
// focus candidates extracted.
func (m *Maintainer) fragment(reader rdfgraph.Reader, def int) (frag []rdfgraph.IDTriple, nodes int, err error) {
	opts := core.ParallelOptions{Workers: 1}
	if m.cfg.Plans != nil {
		opts.Plans = &plan.Set{Programs: []*plan.Program{m.cfg.Plans(def)}}
	}
	x := core.NewExtractor(reader, m.cfg.Schema)
	return x.FragmentParallelIDs(m.cfg.Requests[def:def+1], opts)
}

// ensureShapeLocked materializes def's fragment at the current epoch on
// first use.
func (m *Maintainer) ensureShapeLocked(def int) (*shapeState, error) {
	if st, ok := m.shapes[def]; ok {
		return st, nil
	}
	frag, nodes, err := m.fragment(m.snap.Reader(), def)
	m.reextracted += uint64(nodes)
	if err != nil {
		return nil, err
	}
	st := &shapeState{
		def:   def,
		frag:  frag,
		floor: m.epoch,
		subs:  make(map[*Subscription]struct{}),
	}
	m.shapes[def] = st
	return st, nil
}

// NotifyStats reports what one Notify call processed: Steps epochs were
// applied (more than one when this call closed a pending chain),
// re-extracting Reextracted (shape × focus candidate) neighborhoods, and
// changing the maintained fragments by Added/Removed triples. Err is the
// first extraction failure (a *core.PanicError); the shape it hit was
// dropped and its subscribers evicted, and the epoch advanced anyway.
type NotifyStats struct {
	Steps       int
	Reextracted int
	Added       int
	Removed     int
	Err         error
}

// Notify advances maintenance across the epoch transition res describes
// and fans the resulting per-shape deltas out to subscribers. It must be
// called once per effective update; res.Changed false is a no-op.
// Out-of-order notifications (racing handlers) are stashed and
// applied when their predecessor epoch lands, so steps always run in
// epoch order.
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
// extracts the new epoch's fragment, diffs it against the maintained one,
// and publishes the delta event.
func (m *Maintainer) stepLocked(res store.ApplyResult, sp *obs.Span, stats *NotifyStats) {
	snap := res.Snapshot
	reader := snap.Reader()
	epoch := snap.Epoch()
	stats.Steps++
	for _, st := range m.shapes {
		begin := time.Now()
		frag, nodes, err := m.fragment(reader, st.def)
		m.reextracted += uint64(nodes)
		stats.Reextracted += nodes
		sp.AccumChild("reextract").Add(time.Since(begin))
		if err != nil {
			if stats.Err == nil {
				stats.Err = err
			}
			m.dropLocked(st)
			continue
		}
		added, removed := diff(reader.Dict(), st.frag, frag)
		st.frag = frag
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

// dropLocked stops maintaining st: its subscribers are closed with
// ReasonEvicted, so they reconnect, and the next Subscribe materializes
// the shape at the epoch current then.
func (m *Maintainer) dropLocked(st *shapeState) {
	for sub := range st.subs {
		m.closeLocked(sub, ReasonEvicted)
	}
	delete(m.shapes, st.def)
}

// diff merges two fragments in canonical order (d's dictionary orders both:
// IDs are stable across epochs) into the triples only cur holds and those
// only prev holds, each still in canonical order.
func diff(d *rdfgraph.Dict, prev, cur []rdfgraph.IDTriple) (added, removed []rdfgraph.IDTriple) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch c := d.CompareIDTriples(prev[i], cur[j]); {
		case c < 0:
			removed = append(removed, prev[i])
			i++
		case c > 0:
			added = append(added, cur[j])
			j++
		default:
			i++
			j++
		}
	}
	return append(added, cur[j:]...), append(removed, prev[i:]...)
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

// lines renders triples, in the order given, as N-Triples lines.
func lines(d *rdfgraph.Dict, ts []rdfgraph.IDTriple) []string {
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
		st.snap = payload(m.epoch, lines(m.snap.Reader().Dict(), st.frag), []string{})
	}
	return Event{Type: EventSnapshot, Epoch: m.epoch, Data: st.snap}
}

// FragmentLines returns the maintained fragment of def as sorted N-Triples
// lines, materializing it first if needed — the test seam asserting parity
// with cold extraction. An extraction failure is raised again as a panic.
func (m *Maintainer) FragmentLines(def int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if def < 0 || def >= len(m.cfg.Requests) {
		return nil
	}
	st, err := m.ensureShapeLocked(def)
	if err != nil {
		panic(err)
	}
	return lines(m.snap.Reader().Dict(), st.frag)
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
