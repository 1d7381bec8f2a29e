// Package live maintains materialized shape fragments across store epochs
// and pushes per-epoch fragment deltas to subscribers.
//
// A maintained fragment is Frag(G_e, {φ ∧ τ}) of one definition at the
// maintained epoch e, the union of the neighborhoods B(v, G_e, φ ∧ τ) of
// its foci. It is kept as one array of encoded triples in canonical order
// beside a support count per triple: how many foci's neighborhoods hold
// it. On an update the shape's footprint, walked back from the effective
// delta (core.Reach), names the foci R whose neighborhoods can change.
// Each v in R is re-extracted on the old and the new epoch, its old
// triples lose a count and its new ones gain one, and only those triples
// are sorted and merged into the array in place: a triple whose count
// leaves 0 is "added", one whose count reaches 0 "removed". Their
// N-Triples renderings are the delta event, serialized once per (shape,
// epoch) and shared by every subscriber, so fanout is a channel send each.
// A walk past shape.MaxFootprintWalk or one that panics, or a result with
// no recorded delta, rebuilds the counts from every focus candidate.
//
// Neighborhoods are extracted one focus at a time so that the counts are
// exact, which costs their summed sizes. Where the definition's shape φ
// reads a path under a Kleene star (shape.Footprint.HasStar), one
// neighborhood can span a whole reachable subgraph and the sum grow with
// the square of the fragment, so such a shape keeps no counts: every
// update re-extracts its whole fragment in one product search, as GET
// /fragment does, and merge-diffs it against the maintained one.
//
// A shape whose fragment cannot be extracted at an epoch (extraction
// panicked) is dropped: its subscribers are closed with ReasonEvicted, and
// the next Subscribe materializes it afresh. The epoch advances anyway.
//
// Epoch ordering: the caller notifies each update in epoch order, as the
// serving layer does by holding one lock from the store's Apply through
// Notify. A result whose predecessor epoch (ApplyResult.Prev) is ahead of
// the maintained one — an epoch was published without a Notify — rebuilds
// every shape's counts at the result's epoch, so each event is still the
// exact delta from the fragment its subscribers hold; a result at or below
// the maintained epoch is a no-op.
package live

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
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
	// Requests holds the request shapes (φ ∧ τ per definition, in
	// definition order) maintenance extracts.
	Requests []shape.Shape
	// Cache is ignored: maintenance extracts uncached. The field stays
	// only because the frozen benchmark module sets it; the benchmark
	// re-base (ROADMAP item 1) deletes it.
	Cache *core.NeighborhoodCache
	// Plans, when non-nil, resolves the compiled program for a definition
	// index (nil: the AST walker).
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

// shapeState is one maintained shape: its fragment with support counts,
// its footprint, the replay ring, and its subscribers.
type shapeState struct {
	def  int
	frag []rdfgraph.IDTriple // the fragment at the maintained epoch, in canonical order
	// count[i] is the number of foci whose neighborhood holds frag[i].
	count []uint32
	fp    *shape.Footprint // of the request φ ∧ τ; nil, and count unused, when φ's HasStar
	ring  []Event          // delta events for changed epochs in (floor, cur]
	floor uint64           // highest epoch the ring can NOT replay past
	subs  map[*Subscription]struct{}
	snap  []byte // lazily built full-fragment payload for the current epoch
}

// NewMaintainer builds a Maintainer serving snap's epoch. No fragment is
// materialized until a shape's first subscriber arrives; until then every
// method is O(1) per update.
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
		cfg:    cfg,
		epoch:  snap.Epoch(),
		snap:   snap,
		shapes: make(map[int]*shapeState),
	}
}

// extract appends to cs a count change n for every triple of B(v, G, φ ∧ τ)
// of def, for each v of foci, G being x's graph. Each neighborhood is
// extracted on its own (core.Extractor.Neighborhoods), on def's compiled
// program.
func (m *Maintainer) extract(x *core.Extractor, def int, foci []rdfgraph.ID, n int32, cs []change) ([]change, error) {
	var prog *plan.Program
	if m.cfg.Plans != nil {
		prog = m.cfg.Plans(def)
	}
	err := x.Neighborhoods(m.cfg.Requests[def], prog, foci, func(ts []rdfgraph.IDTriple) {
		for _, t := range ts {
			cs = append(cs, change{t: t, n: n})
		}
	})
	return cs, err
}

// ensureShapeLocked materializes def's fragment at the current epoch on
// first use.
func (m *Maintainer) ensureShapeLocked(def int) (*shapeState, error) {
	if st, ok := m.shapes[def]; ok {
		return st, nil
	}
	st := &shapeState{
		def:   def,
		floor: m.epoch,
		subs:  make(map[*Subscription]struct{}),
	}
	// Only φ is asked: a class target's rdf:type/rdfs:subClassOf* runs
	// over the class hierarchy, shallow and the same for every focus.
	if !shape.NewFootprint(m.cfg.Schema.Definitions()[def].Shape, m.cfg.Schema).HasStar() {
		st.fp = shape.NewFootprint(m.cfg.Requests[def], m.cfg.Schema)
	}
	// Stepping to the current epoch from nothing, with no delta to walk,
	// extracts every focus candidate.
	_, _, nodes, err := m.step(st, store.ApplyResult{Snapshot: m.snap}, nil, false)
	m.reextracted += uint64(nodes)
	if err != nil {
		return nil, err
	}
	m.shapes[def] = st
	return st, nil
}

// NotifyStats reports what one Notify call processed: the step changed the
// maintained fragments by Added/Removed triples. Reextracted sums, over
// maintained shapes, the foci whose neighborhoods were re-extracted: the
// distinct foci the shape's footprint walk reached from the delta (each
// extracted on both epochs, counted once), or, on a step that rebuilt a
// shape's counts and for a shape that keeps none, every focus candidate. Err is the first extraction failure (a
// *core.PanicError); the shape it hit was dropped and its subscribers
// evicted, and the epoch advanced anyway. WalkErr is the first footprint
// walk that panicked; the shape it hit rebuilt its counts instead.
type NotifyStats struct {
	Reextracted int
	Added       int
	Removed     int
	Err         error
	WalkErr     error
}

// Notify advances maintenance across the epoch transition res describes
// and fans the resulting per-shape deltas out to subscribers. It is called
// once per effective update, in epoch order; res.Changed false is a no-op,
// and so is a result at or below the maintained epoch. A result whose Prev
// is ahead of the maintained epoch rebuilds every shape at res.Snapshot
// (see the package comment), so events stay exact, at a rebuild's cost,
// for a caller that skips or reorders notifications.
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
	if res.Snapshot.Epoch() <= m.epoch {
		return stats
	}
	if res.Prev != m.epoch {
		// The delta is not the one from the maintained epoch: with no delta
		// to walk, every shape rebuilds (reach).
		res.Base, res.Effective = nil, nil
	}
	m.stepLocked(res, sp, &stats)
	sp.SetAttrInt("reextracted", int64(stats.Reextracted))
	sp.SetAttrInt("shapes", int64(len(m.shapes)))
	return stats
}

// stepLocked applies one epoch transition: per maintained shape it moves
// the fragment to the new epoch (step) and publishes the delta event.
func (m *Maintainer) stepLocked(res store.ApplyResult, sp *obs.Span, stats *NotifyStats) {
	snap := res.Snapshot
	reader := snap.Reader()
	epoch := snap.Epoch()
	for _, st := range m.shapes {
		begin := time.Now()
		foci, patch, werr := reach(st, res)
		if stats.WalkErr == nil {
			stats.WalkErr = werr
		}
		added, removed, nodes, err := m.step(st, res, foci, patch)
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

// change is a change n of one triple's support count.
type change struct {
	t rdfgraph.IDTriple
	n int32
	// at is the triple's index in frag, or where it would be inserted.
	at int
}

// step moves st's fragment from res.Base to res.Snapshot and returns the
// triples that entered and left it, in canonical order, and the number of
// foci re-extracted. With patch set only foci, the foci the delta reaches
// (reach), are re-extracted, on both epochs: their old neighborhoods'
// triples lose a count, their new ones' gain one. Otherwise it rebuilds:
// every triple loses its whole count, and every focus candidate of the new
// epoch is re-extracted, each on its own so that the counts are exact. A
// shape that keeps no counts is re-diffed whole instead (rediff).
func (m *Maintainer) step(st *shapeState, res store.ApplyResult, foci []rdfgraph.ID, patch bool) (added, removed []rdfgraph.IDTriple, nodes int, err error) {
	reader := res.Snapshot.Reader()
	x := core.NewExtractor(reader, m.cfg.Schema)
	if st.fp == nil {
		return m.rediff(st, x, reader.Dict())
	}
	var cs []change
	if patch {
		// Foci new at this epoch are past the base dictionary and have empty
		// neighborhoods there; foci is sorted, so they are its tail.
		base := res.Base.Reader()
		old, _ := slices.BinarySearch(foci, rdfgraph.ID(base.Dict().Len()))
		cs, err = m.extract(core.NewExtractor(base, m.cfg.Schema), st.def, foci[:old], -1, nil)
	} else {
		for i, t := range st.frag {
			cs = append(cs, change{t: t, n: -int32(st.count[i])})
		}
		var all []rdfgraph.ID
		foci = x.Evaluator().FocusNodes(shape.NNF(m.cfg.Requests[st.def]), &all)
	}
	if err == nil {
		cs, err = m.extract(x, st.def, foci, 1, cs)
	}
	if err == nil {
		added, removed, err = st.apply(reader.Dict(), net(reader.Dict(), cs))
	}
	return added, removed, len(foci), err
}

// rediff moves a shape that keeps no counts to d's epoch: it extracts the
// whole fragment with x as GET /fragment does — FragmentParallelIDs, on
// def's program, at one worker: maintenance stays on the goroutine that
// holds m.mu — and merge-diffs it against frag.
func (m *Maintainer) rediff(st *shapeState, x *core.Extractor, d *rdfgraph.Dict) (added, removed []rdfgraph.IDTriple, nodes int, err error) {
	opts := core.ParallelOptions{Workers: 1}
	if m.cfg.Plans != nil {
		opts.Plans = &plan.Set{Programs: []*plan.Program{m.cfg.Plans(st.def)}}
	}
	frag, nodes, err := x.FragmentParallelIDs(m.cfg.Requests[st.def:st.def+1], opts)
	if err != nil {
		return nil, nil, nodes, err
	}
	added, removed = diff(d, st.frag, frag)
	st.frag = frag
	return added, removed, nodes, nil
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

// reach returns the foci res's effective delta can reach through st's
// footprint, sorted and distinct. patch is false when the caller must
// rebuild instead: the shape keeps no counts, the result records no delta,
// or the walk passed shape.MaxFootprintWalk or panicked; err reports the
// panic.
func reach(st *shapeState, res store.ApplyResult) (foci []rdfgraph.ID, patch bool, err error) {
	if st.fp == nil || res.Base == nil || len(res.Effective) == 0 {
		return nil, false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			foci, patch, err = nil, false, fmt.Errorf("live: walking the footprint of definition %d: %v\n%s", st.def, r, debug.Stack())
		}
	}()
	foci, patch = core.Reach(st.fp, shape.NewFocusWalker(res.Base.Reader()), res.Snapshot.Reader(), res.Effective, nil)
	slices.Sort(foci)
	return slices.Compact(foci), patch, nil
}

// net sums the changes of each triple, drops the sums that are zero and
// orders the rest canonically, in place: only these are compared as terms.
func net(d *rdfgraph.Dict, cs []change) []change {
	slices.SortFunc(cs, func(a, b change) int {
		return cmp.Or(cmp.Compare(a.t.S, b.t.S), cmp.Compare(a.t.P, b.t.P), cmp.Compare(a.t.O, b.t.O))
	})
	out := cs[:0]
	for _, c := range cs {
		if k := len(out) - 1; k >= 0 && out[k].t == c.t {
			out[k].n += c.n
		} else {
			out = append(out, c)
		}
	}
	out = slices.DeleteFunc(out, func(c change) bool { return c.n == 0 })
	slices.SortFunc(out, func(a, b change) int { return d.CompareIDTriples(a.t, b.t) })
	return out
}

// apply adds the net count changes cs, in canonical order, to st: a triple
// whose count leaves 0 enters frag, one whose count reaches 0 leaves it.
// Both arrays are edited in place by block moves, closing the gaps of the
// triples that leave left to right, then opening those of the triples that
// enter right to left; they grow only when more enter than leave. A count
// below zero is an error: a neighborhood left that was never counted.
func (st *shapeState) apply(d *rdfgraph.Dict, cs []change) (added, removed []rdfgraph.IDTriple, err error) {
	edits, lo := cs[:0], 0 // the triples that enter (n > 0) and leave (n == 0)
	for _, c := range cs {
		i, found := slices.BinarySearchFunc(st.frag[lo:], c.t, d.CompareIDTriples)
		c.at, lo = lo+i, lo+i
		n := int64(c.n)
		if found {
			n += int64(st.count[c.at])
		}
		switch {
		case n < 0:
			return nil, nil, fmt.Errorf("live: support count of %v below zero", d.Triple(c.t))
		case !found:
			added = append(added, c.t)
		case n == 0:
			removed = append(removed, c.t)
		default:
			st.count[c.at] = uint32(n)
			continue
		}
		c.n = int32(n)
		edits = append(edits, c)
	}
	// An entering triple's index shifts by the triples that left before it.
	w, r, left := 0, 0, 0
	for k := range edits {
		if e := &edits[k]; e.n > 0 {
			e.at -= left
		} else {
			w += st.move(w, r, e.at)
			r, left = e.at+1, left+1
		}
	}
	if left > 0 {
		w += st.move(w, r, len(st.frag))
		st.frag, st.count = st.frag[:w], st.count[:w]
	}
	r, w = len(st.frag), len(st.frag)+len(edits)-left
	st.frag, st.count = slices.Grow(st.frag, w-r)[:w], slices.Grow(st.count, w-r)[:w]
	for k := len(edits) - 1; k >= 0; k-- {
		if e := edits[k]; e.n > 0 {
			w -= st.move(w-(r-e.at), e.at, r) + 1
			st.frag[w], st.count[w] = e.t, uint32(e.n)
			r = e.at
		}
	}
	return added, removed, nil
}

// move copies frag and count over [from, to) to index at, returning the
// number of entries moved.
func (st *shapeState) move(at, from, to int) int {
	copy(st.frag[at:], st.frag[from:to])
	return copy(st.count[at:], st.count[from:to])
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
