package obs

import (
	"encoding/json"
	"net/http"
	"path"
	"strconv"
	"sync"
	"time"
)

// TraceRegistry is a bounded in-memory ring of recently completed traces,
// served over HTTP as /debug/traces. Keep admits a finished trace;
// once the ring is full the oldest non-notable trace is evicted first
// (notable traces — errors, slow requests — outlive routine ones, and
// only evict each other). All methods are safe for concurrent use and
// nil-safe, so a server without tracing configured can skip every branch.
type TraceRegistry struct {
	mu   sync.Mutex
	cap  int
	kept []keptTrace // oldest first

	sampled uint64 // traces admitted via Keep
	dropped uint64 // requests whose trace was not kept (head sampling said no)
	evicted uint64 // traces pushed out of the ring
}

type keptTrace struct {
	t       *SpanTrace
	notable bool
	end     time.Time
}

// NewTraceRegistry returns a registry keeping up to n traces; n <= 0
// selects the default of 128.
func NewTraceRegistry(n int) *TraceRegistry {
	if n <= 0 {
		n = 128
	}
	return &TraceRegistry{cap: n}
}

// Keep admits a completed trace. notable marks traces that should
// outlive routine ones in the ring (errors, slow requests). The trace
// must not gain spans after Keep — readers walk it lock-free.
func (r *TraceRegistry) Keep(t *SpanTrace, notable bool) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampled++
	if len(r.kept) >= r.cap {
		victim := 0
		for i, k := range r.kept {
			if !k.notable {
				victim = i
				break
			}
		}
		r.kept = append(r.kept[:victim], r.kept[victim+1:]...)
		r.evicted++
	}
	r.kept = append(r.kept, keptTrace{t: t, notable: notable, end: time.Now()})
}

// MarkDropped counts a request whose trace head sampling declined to
// keep — the denominator half of the sampled-percentage stat.
func (r *TraceRegistry) MarkDropped() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dropped++
	r.mu.Unlock()
}

// TraceStats is a point-in-time summary of the registry.
type TraceStats struct {
	// Kept is how many traces the ring currently holds (≤ Cap).
	Kept int
	// Cap is the ring capacity.
	Cap int
	// Sampled and Dropped count requests whose trace was / was not kept;
	// Sampled/(Sampled+Dropped) is the effective sampling rate.
	Sampled, Dropped uint64
	// Evicted counts traces pushed out of the full ring.
	Evicted uint64
}

// Stats returns current registry statistics.
func (r *TraceRegistry) Stats() TraceStats {
	if r == nil {
		return TraceStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return TraceStats{Kept: len(r.kept), Cap: r.cap, Sampled: r.sampled, Dropped: r.dropped, Evicted: r.evicted}
}

// Get returns the kept trace with the given hex ID.
func (r *TraceRegistry) Get(id string) (*SpanTrace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.kept) - 1; i >= 0; i-- {
		if r.kept[i].t.ID().String() == id {
			return r.kept[i].t, true
		}
	}
	return nil, false
}

// TraceSummary is one row of the /debug/traces listing.
type TraceSummary struct {
	TraceID    string  `json:"traceId"`
	Name       string  `json:"name"`
	Start      string  `json:"start"`
	DurationMs float64 `json:"durationMs"`
	Spans      int     `json:"spans"`
	Notable    bool    `json:"notable"`
}

// Summaries lists the kept traces, newest first.
func (r *TraceRegistry) Summaries() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.kept))
	for i := len(r.kept) - 1; i >= 0; i-- {
		k := r.kept[i]
		out = append(out, TraceSummary{
			TraceID:    k.t.ID().String(),
			Name:       k.t.Root().Name(),
			Start:      k.t.Root().Start().UTC().Format(time.RFC3339Nano),
			DurationMs: float64(k.t.Duration()) / 1e6,
			Spans:      k.t.NumSpans(),
			Notable:    k.notable,
		})
	}
	return out
}

// otlpSpan mirrors the OTLP/JSON span shape (trace.v1.Span) closely
// enough for OTLP-aware tooling to ingest the output.
type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []otlpAttr `json:"attributes,omitempty"`
}

type otlpAttr struct {
	Key   string       `json:"key"`
	Value otlpAttrView `json:"value"`
}

type otlpAttrView struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
}

// OTLP renders the trace in the OTLP/JSON resourceSpans shape, flat span
// list with parentSpanId links (how OTLP encodes the tree).
func (t *SpanTrace) OTLP(service string) map[string]any {
	var spans []otlpSpan
	t.root.walk(0, func(s *Span, _ int) {
		start := s.Start().UnixNano()
		end := start + int64(s.Duration())
		os := otlpSpan{
			TraceID:           t.ID().String(),
			SpanID:            s.ID().String(),
			Name:              s.Name(),
			StartTimeUnixNano: strconv.FormatInt(start, 10),
			EndTimeUnixNano:   strconv.FormatInt(end, 10),
		}
		if !s.parent.IsZero() {
			os.ParentSpanID = s.parent.String()
		}
		for _, a := range s.Attrs() {
			v := otlpAttrView{StringValue: a.Str}
			if a.IsInt {
				v = otlpAttrView{IntValue: strconv.FormatInt(a.Int, 10)}
			}
			os.Attributes = append(os.Attributes, otlpAttr{Key: a.Key, Value: v})
		}
		spans = append(spans, os)
	})
	return map[string]any{
		"resourceSpans": []any{map[string]any{
			"resource": map[string]any{
				"attributes": []any{map[string]any{
					"key":   "service.name",
					"value": map[string]any{"stringValue": service},
				}},
			},
			"scopeSpans": []any{map[string]any{
				"scope": map[string]any{"name": service},
				"spans": spans,
			}},
		}},
	}
}

// Handler serves the registry over HTTP: the bare path lists trace
// summaries plus stats; a trailing /<traceID> path segment (or ?id=
// parameter) fetches one trace as OTLP-shaped JSON. service names the
// process in the OTLP resource attributes.
func (r *TraceRegistry) Handler(service string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		id := req.URL.Query().Get("id")
		if id == "" {
			if seg := path.Base(req.URL.Path); len(seg) == 32 && isHex(seg) {
				id = seg
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if id == "" {
			enc.Encode(map[string]any{ //nolint:errcheck — nothing to do about a failed write
				"traces": r.Summaries(),
				"stats":  r.Stats(),
			})
			return
		}
		t, ok := r.Get(id)
		if !ok {
			http.Error(w, "no kept trace with id "+id, http.StatusNotFound)
			return
		}
		enc.Encode(t.OTLP(service)) //nolint:errcheck — nothing to do about a failed write
	})
}
