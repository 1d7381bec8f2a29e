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
	// Carried is how many neighborhood-cache entries were cloned into the
	// new epoch because the delta provably did not affect their node.
	Carried int `json:"carried"`
	// Triples is the graph size after the update.
	Triples int `json:"triples"`
}

// handleUpdate serves POST /update: the body is a Turtle or N-Triples
// document; op=add (the default) adds its triples, op=delete removes them.
// The delta is applied atomically as one new store epoch — in-flight
// readers keep their pinned snapshots, later requests see the new one.
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
	carried := 0
	if res.Changed && s.cache != nil {
		// Keep the cache warm: entries whose node the delta provably did
		// not affect are valid verbatim in the new epoch. The carry MUST
		// be keyed on res.Prev — the epoch the store actually applied the
		// delta against, read under its lock — not on an epoch sampled
		// before Apply: under racing updates the pre-Apply read can be two
		// or more epochs stale, and carrying across the unobserved
		// intermediate delta with only this delta's Unaffected predicate
		// would silently preserve entries the other delta invalidated.
		carried = s.cache.Carry(res.Prev, res.Snapshot.Epoch(), res.Unaffected)
	}
	apply.SetAttrInt("added", int64(res.Added))
	apply.SetAttrInt("deleted", int64(res.Deleted))
	apply.SetAttrInt("carried", int64(carried))
	apply.End()

	if res.Changed {
		// Re-plan against the new epoch's cardinalities: the strategy
		// choices and the memo-budget veto track the data they price.
		replan := root.StartChild("replan")
		s.replan(res.Snapshot, replan)
		replan.End()
		// Advance incremental fragment maintenance and fan deltas out to
		// /subscribe streams. Runs after replan so re-extraction follows
		// the new epoch's compiled plans, and synchronously in the update
		// path so heavy subscription load backpressures writers instead
		// of accumulating an unbounded notification backlog.
		notify := root.StartChild("notify")
		ls := s.live.Notify(res, notify)
		notify.End()
		s.metrics.updApplied.Inc()
		s.metrics.updAdded.Add(uint64(res.Added))
		s.metrics.updDeleted.Add(uint64(res.Deleted))
		s.log.Info("update applied",
			"epoch", res.Snapshot.Epoch(), "added", res.Added, "deleted", res.Deleted,
			"carried", carried, "triples", res.Snapshot.Reader().Len(),
			"live_reextracted", ls.Reextracted, "live_delta", ls.Added+ls.Removed)
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
		Carried: carried,
		Triples: res.Snapshot.Reader().Len(),
	})
}
