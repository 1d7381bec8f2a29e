package live

import "fmt"

// Event types carried on a subscription stream.
const (
	// EventSnapshot carries the full maintained fragment (all triples as
	// "added", empty "removed") — sent when a subscriber has no usable
	// resume point.
	EventSnapshot = "snapshot"
	// EventDelta carries one epoch's fragment delta.
	EventDelta = "delta"
)

// Subscription close reasons, readable via Reason after the event channel
// closes.
const (
	// ReasonEvicted: the subscriber's queue was full when a delta fanned
	// out, and it was dropped rather than allowed to stall or buffer
	// without bound; or its shape's fragment could not be extracted at a
	// new epoch. The client should reconnect with Last-Event-ID to resume.
	ReasonEvicted = "evicted"
	// ReasonDrain: the server is shutting down.
	ReasonDrain = "drain"
)

// Event is one message on a subscription stream. Data is the shared,
// pre-serialized JSON payload {"epoch":N,"added":[...],"removed":[...]}
// (N-Triples lines); it is immutable and may be written to any number of
// clients concurrently.
type Event struct {
	Type  string
	Epoch uint64
	Data  []byte
}

// Subscription is one subscriber's bounded event queue. Read Events until
// it closes, then Reason for why. A subscriber that stops draining its
// channel is evicted on the next delta that finds the buffer full.
type Subscription struct {
	m      *Maintainer
	def    int
	ch     chan Event
	closed bool   // guarded by m.mu
	reason string // guarded by m.mu, set before ch closes
}

// Events is the stream of snapshot/delta events, closed on eviction,
// drain, or Unsubscribe.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Reason reports why the stream closed ("" while open or after a plain
// Unsubscribe).
func (s *Subscription) Reason() string {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.reason
}

// Subscribe registers a subscriber for the shape at definition index def.
// It returns the subscription plus the initial events the caller must
// deliver before reading the channel: the channel only ever carries events
// strictly newer than them.
//
//   - from == 0 (no resume point): one snapshot event at the current epoch.
//   - from within the replay ring: exactly the delta events the subscriber
//     missed, in epoch order (possibly none if it is current).
//   - from below the ring floor (or ahead of the maintainer): one snapshot
//     event — too far behind (or implausible) to replay.
//
// The first subscriber for a shape pays its fragment materialization here.
// Fails with ErrDraining during shutdown, ErrSubscriberLimit at the
// configured bound, and a *core.PanicError when materialization panicked.
func (m *Maintainer) Subscribe(def int, from uint64) (*Subscription, []Event, error) {
	if def < 0 || def >= len(m.cfg.Requests) {
		return nil, nil, fmt.Errorf("live: definition index %d out of range [0,%d)", def, len(m.cfg.Requests))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, nil, ErrDraining
	}
	if m.nsubs >= m.cfg.MaxSubscribers {
		return nil, nil, ErrSubscriberLimit
	}
	st, err := m.ensureShapeLocked(def)
	if err != nil {
		return nil, nil, err
	}
	var initial []Event
	switch {
	case from == m.epoch && from != 0:
		// Current: nothing to replay.
	case from > 0 && from >= st.floor && from < m.epoch:
		for _, ev := range st.ring {
			if ev.Epoch > from {
				initial = append(initial, ev)
			}
		}
		m.resumed++
		m.eventsDelta += uint64(len(initial))
	default:
		initial = []Event{m.snapshotEventLocked(st)}
		m.eventsSnapshot++
	}
	sub := &Subscription{m: m, def: def, ch: make(chan Event, m.cfg.Queue)}
	st.subs[sub] = struct{}{}
	m.nsubs++
	return sub, initial, nil
}

// Unsubscribe removes sub and closes its channel; idempotent, and safe to
// call after eviction or drain already closed the stream.
func (m *Maintainer) Unsubscribe(sub *Subscription) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closeLocked(sub, "")
}

// Drain refuses new subscriptions and closes every open stream with
// ReasonDrain. Call before shutting the HTTP listener down so handlers
// observe the close and finish their responses.
func (m *Maintainer) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining = true
	for _, st := range m.shapes {
		for sub := range st.subs {
			m.closeLocked(sub, ReasonDrain)
		}
	}
}

// fanoutLocked delivers ev to every subscriber of st, evicting any whose
// queue is full — a send is non-blocking so one stalled client cannot
// delay maintenance or the update path.
func (m *Maintainer) fanoutLocked(st *shapeState, ev Event) {
	for sub := range st.subs {
		select {
		case sub.ch <- ev:
			m.eventsDelta++
		default:
			m.evicted++
			m.closeLocked(sub, ReasonEvicted)
		}
	}
}

// closeLocked removes sub from its shape and closes its channel exactly
// once, recording reason.
func (m *Maintainer) closeLocked(sub *Subscription, reason string) {
	if sub.closed {
		return
	}
	sub.closed = true
	sub.reason = reason
	if st, ok := m.shapes[sub.def]; ok {
		delete(st.subs, sub)
	}
	m.nsubs--
	close(sub.ch)
}
