package fragserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"shaclfrag/internal/obs"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/turtle"
)

// updateResponse is the JSON body of a successful POST /update.
type updateResponse struct {
	// Epoch is the epoch current after the update: a fresh one when the
	// delta changed the graph, the incumbent when it was a no-op.
	Epoch uint64 `json:"epoch"`
	// Changed reports whether a new epoch was published.
	Changed bool `json:"changed"`
	// Added and Deleted count effective triple operations (duplicates and
	// absent deletions are no-ops and excluded).
	Added   int `json:"added"`
	Deleted int `json:"deleted"`
	// Carried is always 0: an update copies no neighborhood-cache entry
	// to its new epoch. Entries it cannot reach stay valid there in place,
	// and the invalidate span and fragserver_cache_kept_total count them.
	// The field stays so existing clients, and the benchmark's
	// byte-compared replay, read the same body.
	Carried int `json:"carried"`
	// Triples is the graph size after the update.
	Triples int `json:"triples"`
}

// handleUpdate serves POST /update: the body is a Turtle or N-Triples
// document; op=add (the default) adds its triples, op=delete removes them.
// The delta is applied atomically as one new store epoch — in-flight
// readers keep their pinned snapshots, later requests see the new one.
// Between the apply and the live notify, the neighborhood cache steps to
// the new epoch (invalidate, NeighborhoodCache.Invalidate): entries the
// delta can reach are closed, the rest are served at the new epoch as they
// are. Racing handlers' transitions apply in res.Prev order.
// Updates during graceful drain are rejected with 503 immediately (the
// caller should retry against a serving replica), and bodies beyond
// Config.MaxUpdateBytes get 413.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.updRejected.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining: updates are not accepted during shutdown", http.StatusServiceUnavailable)
		return
	}
	var del bool
	switch op := r.URL.Query().Get("op"); op {
	case "", "add":
	case "delete":
		del = true
	default:
		s.metrics.updRejected.Inc()
		http.Error(w, "op="+op+": want add or delete", http.StatusBadRequest)
		return
	}

	root := obs.FromContext(r.Context())
	parse := root.StartChild("parse")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxUpdate))
	if err != nil {
		parse.End()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.updRejected.Inc()
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		s.metrics.updRejected.Inc()
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	triples, err := turtle.ParseTriples(string(body))
	parse.End()
	if err != nil {
		s.metrics.updRejected.Inc()
		http.Error(w, "parsing delta: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(triples) == 0 {
		s.metrics.updRejected.Inc()
		http.Error(w, "empty delta: the body parsed to no triples", http.StatusBadRequest)
		return
	}

	delta := rdfgraph.Delta{Add: triples}
	if del {
		delta = rdfgraph.Delta{Del: triples}
	}
	apply := root.StartChild("apply")
	res := s.store.Apply(delta)
	apply.SetAttrInt("added", int64(res.Added))
	apply.SetAttrInt("deleted", int64(res.Deleted))
	apply.End()

	if res.Changed {
		var kept, invalidated int
		if s.cache != nil {
			inv := root.StartChild("invalidate")
			var err error
			kept, invalidated, err = s.cache.Invalidate(res.Prev, res.Base.Reader(), res.Snapshot.Reader(), delta)
			if err != nil {
				// The walk panicked: that transition closed every entry, and
				// the update stands.
				s.metrics.panics.Inc()
				s.log.Error("panic invalidating the neighborhood cache", "epoch", res.Snapshot.Epoch(), "err", err.Error())
			}
			inv.SetAttrInt("kept", int64(kept))
			inv.SetAttrInt("invalidated", int64(invalidated))
			inv.End()
		}
		// Advance incremental fragment maintenance and fan deltas out to
		// /subscribe streams. Runs synchronously in the update path so
		// heavy subscription load backpressures writers instead of
		// accumulating an unbounded notification backlog.
		notify := root.StartChild("notify")
		ls := s.live.Notify(res, notify)
		notify.End()
		if ls.Err != nil {
			// A maintained shape's extraction panicked. Live dropped the
			// shape and evicted its subscribers; the delta stands, so the
			// update still succeeds.
			s.metrics.panics.Inc()
			s.log.Error("panic maintaining live fragments", "epoch", res.Snapshot.Epoch(), "err", ls.Err.Error())
		}
		s.metrics.updApplied.Inc()
		s.metrics.updAdded.Add(uint64(res.Added))
		s.metrics.updDeleted.Add(uint64(res.Deleted))
		s.log.Info("update applied",
			"epoch", res.Snapshot.Epoch(), "added", res.Added, "deleted", res.Deleted,
			"triples", res.Snapshot.Reader().Len(),
			"live_reextracted", ls.Reextracted, "live_delta", ls.Added+ls.Removed,
			"cache_kept", kept, "cache_invalidated", invalidated)
	} else {
		s.metrics.updNoop.Inc()
	}
	// Reclaim entries of epochs no in-flight request pins anymore. With
	// readers in flight this is a no-op; the floor advances as they drain.
	s.evictStale()

	w.Header().Set("X-Epoch", strconv.FormatUint(res.Snapshot.Epoch(), 10))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(updateResponse{ //nolint:errcheck — nothing to do about a failed write
		Epoch:   res.Snapshot.Epoch(),
		Changed: res.Changed,
		Added:   res.Added,
		Deleted: res.Deleted,
		Triples: res.Snapshot.Reader().Len(),
	})
}
