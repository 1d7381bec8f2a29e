package fragserver

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"shaclfrag/internal/core"
	"shaclfrag/internal/live"
)

// handleSubscribe serves GET /subscribe?shape=<name>: a Server-Sent Events
// stream of the named shape's fragment as it evolves across epochs.
//
// The stream opens with either a "snapshot" event (the full fragment) or,
// when the client resumed with a Last-Event-ID header naming an epoch
// still covered by the replay ring, exactly the "delta" events it missed.
// From there every effective update that moves the fragment produces one
// "delta" event. Event ids are epochs, so the SSE auto-reconnect protocol
// doubles as the resume protocol. Payloads are JSON:
//
//	id: 7
//	event: delta
//	data: {"epoch":7,"added":["<s> <p> <o> ."],"removed":[]}
//
// A comment heartbeat (": hb") goes out every Config.Heartbeat while the
// stream is idle. The stream ends with a terminal "bye" event naming the
// reason — "drain" during graceful shutdown, "evicted" when the client
// fell further behind than its send queue — after which the client should
// reconnect (with Last-Event-ID, to a draining server's replacement).
//
// The route bypasses the request timeout and the in-flight limiter;
// Config.MaxSubscribers bounds it instead (503 + Retry-After beyond it,
// and during drain).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := queryValue(r.URL.RawQuery, "shape")
	if name == "" {
		http.Error(w, "missing shape parameter", http.StatusBadRequest)
		return
	}
	def, ok := s.defIndex(name)
	if !ok {
		http.Error(w, "unknown or ambiguous shape "+name, http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var from uint64
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		v, err := strconv.ParseUint(lei, 10, 64)
		if err != nil {
			http.Error(w, "Last-Event-ID: want an epoch number", http.StatusBadRequest)
			return
		}
		from = v
	}

	sub, initial, err := s.live.Subscribe(def, from)
	if err != nil {
		if errors.Is(err, live.ErrDraining) || errors.Is(err, live.ErrSubscriberLimit) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		var pe *core.PanicError
		if errors.As(err, &pe) {
			panic(pe) // materializing the fragment panicked: withObs answers it
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer s.live.Unsubscribe(sub)
	s.metrics.subsOpened.Inc()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // intermediaries must not buffer the stream
	h.Set("X-Epoch", strconv.FormatUint(s.live.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	write := func(ev live.Event) bool {
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Epoch, ev.Type, ev.Data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range initial {
		if !write(ev) {
			return
		}
	}

	hb := time.NewTicker(s.hb)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-sub.Events():
			if !open {
				// Terminal: drained or evicted. Tell the client which so
				// its reconnect policy can differ (a drain means "find
				// another replica", an eviction means "you are too slow").
				fmt.Fprintf(w, "event: bye\ndata: {\"reason\":%q}\n\n", sub.Reason())
				fl.Flush()
				return
			}
			if !write(ev) {
				return
			}
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
