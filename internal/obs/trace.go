package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Tracer receives named stage durations. internal/core emits extraction
// sub-stages through this interface so it needs no knowledge of HTTP,
// headers, or logging; a nil *Trace is a valid no-op Tracer, so call
// sites never branch on instrumentation being present.
type Tracer interface {
	Observe(stage string, d time.Duration)
}

// Stage is one named timing within a Trace.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Trace records the stage timings of one request in observation order.
// Create one per request (fragserver's observability middleware does),
// pass it down via NewContext, and render it as a Server-Timing header or
// structured log fields at the end. A Trace is safe for concurrent
// Observe calls; repeated observations of the same stage name accumulate
// into one entry, which is what parallel workers contributing to the same
// logical stage want.
type Trace struct {
	mu     sync.Mutex
	stages []Stage
	index  map[string]int

	// root is the request's span tree when the request was sampled for
	// hierarchical tracing, nil otherwise. Set once before the handler
	// runs (SetRoot), read concurrently afterwards — the *Span methods
	// are themselves concurrency-safe and nil-safe.
	root *Span
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{index: make(map[string]int)}
}

// SetRoot attaches the request's span tree root. Call before handing the
// trace to concurrent code; a nil root (unsampled request) is fine.
func (t *Trace) SetRoot(sp *Span) {
	if t == nil {
		return
	}
	t.root = sp
}

// Root returns the span-tree root for sampled requests, nil otherwise
// (including on a nil Trace) — and nil *Span methods no-op, so the
// result is usable unconditionally.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Observe adds d to the named stage, creating it on first observation.
// Observe on a nil Trace is a no-op.
func (t *Trace) Observe(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[stage]; ok {
		t.stages[i].Dur += d
		return
	}
	t.index[stage] = len(t.stages)
	t.stages = append(t.stages, Stage{Name: stage, Dur: d})
}

// Start begins timing the named stage and returns the function that
// stops it: `defer tr.Start("extract")()` brackets a whole function,
// while assigning the stop to a variable brackets a region. Start on a
// nil Trace returns a no-op stop.
func (t *Trace) Start(stage string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { t.Observe(stage, time.Since(begin)) }
}

// StartSpan brackets a stage like Start while additionally opening a
// child span under the trace's root (when the request is sampled): the
// returned span is nil-safe and may be handed to deeper layers as a
// parent; the stop function ends the span and records the flat stage in
// one call. On a nil or unsampled trace the span is nil and stop only
// feeds the flat stage list (or nothing, on a nil trace).
func (t *Trace) StartSpan(stage string) (*Span, func()) {
	if t == nil {
		return nil, func() {}
	}
	sp := t.root.StartChild(stage)
	begin := time.Now()
	return sp, func() {
		t.Observe(stage, time.Since(begin))
		sp.End()
	}
}

// Stages returns a copy of the recorded stages in first-observation order.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Stage(nil), t.stages...)
}

// ServerTiming renders the trace as a Server-Timing header value
// (RFC-style `name;dur=millis` items, comma-separated), e.g.
//
//	parse;dur=0.11, extract;dur=41.52, serialize;dur=3.90
//
// Returns "" for an empty or nil trace, so callers can skip the header.
//
// Stage names are sanitized to RFC 9110 token characters before they
// reach the header: a name containing ';', '"', ',' or control bytes
// could otherwise inject extra Server-Timing parameters or split the
// header value, so every non-token byte is replaced with '_'.
func (t *Trace) ServerTiming() string {
	stages := t.Stages()
	if len(stages) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range stages {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.2f", sanitizeToken(s.Name), float64(s.Dur)/float64(time.Millisecond))
	}
	return b.String()
}

// sanitizeToken maps a stage name onto the header-token alphabet
// [A-Za-z0-9_.-], replacing everything else (';', '"', ',', spaces,
// control bytes) with '_'. Names that are already tokens — every stage
// the serving stack emits — come back unchanged without allocating.
func sanitizeToken(name string) string {
	clean := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.'
	}
	for i := 0; i < len(name); i++ {
		if clean(name[i]) {
			continue
		}
		out := []byte(name)
		for j := i; j < len(out); j++ {
			if !clean(out[j]) {
				out[j] = '_'
			}
		}
		return string(out)
	}
	return name
}

// LogArgs renders stages (a Trace's Stages()) as alternating key/value
// pairs for slog (`<stage>_ms` keys, millisecond float values), appendable
// to an access log line's argument list.
func LogArgs(stages []Stage) []any {
	out := make([]any, 0, 2*len(stages))
	for _, s := range stages {
		out = append(out, s.Name+"_ms", float64(s.Dur)/float64(time.Millisecond))
	}
	return out
}

type traceCtxKey struct{}

// NewContext returns ctx carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// FromContext returns the Trace carried by ctx, or nil — and since a nil
// Trace's methods are no-ops, the result is usable unconditionally.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}
