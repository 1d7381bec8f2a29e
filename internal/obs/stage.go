package obs

import (
	"context"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Stage is one named timing of a request, read off its span tree.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Stages reads a request's stage timings off its span tree and appends
// them to dst: the ended spans one or two levels under root whose name is
// in names, durations summed by name, in start order — a stage before the
// sub-stages inside it. The tree is the only record a request keeps;
// Server-Timing headers, access-log fields and stage histograms are all
// renderings of this list, so they name a stage exactly as a kept trace
// names its span. A span still open has no duration yet and is left out,
// which is how a header rendered before the body leaves out the stage
// that writes the body. It runs twice per request, hence dst: a caller's
// stack array keeps the list off the heap (as stack arrays do the sibling
// lists it walks). Safe while other goroutines grow the tree; a nil root
// has no stages.
func Stages(dst []Stage, root *Span, names []string) []Stage {
	var kids, grandkids [16]*Span
	for _, c := range root.appendChildren(kids[:0]) {
		dst = addStage(dst, c, names)
		for _, cc := range c.appendChildren(grandkids[:0]) {
			dst = addStage(dst, cc, names)
		}
	}
	return dst
}

func addStage(dst []Stage, sp *Span, names []string) []Stage {
	if !sp.ended.Load() || !slices.Contains(names, sp.name) {
		return dst
	}
	for i := range dst {
		if dst[i].Name == sp.name {
			dst[i].Dur += sp.Duration()
			return dst
		}
	}
	return append(dst, Stage{Name: sp.name, Dur: sp.Duration()})
}

// ServerTiming renders stages as a Server-Timing header value
// (RFC-style `name;dur=millis` items, comma-separated), e.g.
//
//	parse;dur=0.11, target;dur=0.02, extract;dur=41.52
//
// Returns "" for no stages, so callers can skip the header.
//
// Stage names are sanitized to RFC 9110 token characters before they
// reach the header: a name containing ';', '"', ',' or control bytes
// could otherwise inject extra Server-Timing parameters or split the
// header value, so every non-token byte is replaced with '_'.
func ServerTiming(stages []Stage) string {
	b := make([]byte, 0, 24*len(stages))
	for i, s := range stages {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, sanitizeToken(s.Name)...), ";dur="...)
		b = appendMillis(b, s.Dur)
	}
	return string(b)
}

// appendMillis appends d in milliseconds with two decimals, rounded half
// up, from integer nanoseconds: AppendFloat(…, 'f', 2, 64) at a fixed
// precision takes strconv's slow path.
func appendMillis(b []byte, d time.Duration) []byte {
	u := uint64(d)
	if d < 0 {
		b, u = append(b, '-'), -u
	}
	q := (u + 5_000) / 10_000 // hundredths of a millisecond, half up
	b = strconv.AppendUint(b, q/100, 10)
	return append(b, '.', byte('0'+q%100/10), byte('0'+q%10))
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

// LogAttrs appends stages to dst as access-log attributes: `<stage>_ms`
// keys, built once per name, and millisecond float values.
func LogAttrs(dst []slog.Attr, stages []Stage) []slog.Attr {
	for _, s := range stages {
		key, ok := logKeys.Load(s.Name)
		if !ok {
			key, _ = logKeys.LoadOrStore(s.Name, s.Name+"_ms")
		}
		dst = append(dst, slog.Float64(key.(string), float64(s.Dur)/float64(time.Millisecond)))
	}
	return dst
}

// logKeys memoizes LogAttrs' keys: stage names come from closed sets.
var logKeys sync.Map

type spanCtxKey struct{}

// NewContext returns ctx carrying a request's root span.
func NewContext(ctx context.Context, root *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, root)
}

// FromContext returns the root span carried by ctx, or nil — and since a
// nil Span's methods are no-ops, the result is usable unconditionally.
func FromContext(ctx context.Context) *Span {
	root, _ := ctx.Value(spanCtxKey{}).(*Span)
	return root
}
