package obs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a W3C Trace Context trace identifier: 16 bytes, rendered as
// 32 lowercase hex digits. The all-zero ID is invalid.
type TraceID [16]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// SpanID is a W3C Trace Context span identifier: 8 bytes, rendered as 16
// lowercase hex digits. The all-zero ID is invalid.
type SpanID [8]byte

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// SpanContext is the propagated part of a trace: the IDs an external
// caller handed us in a traceparent header (or that we hand back).
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID // the caller's span, parent of our root
	Sampled bool
}

// ParseTraceparent parses a W3C traceparent header value
// (version-traceid-spanid-flags, e.g.
// 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01).
// It returns ok=false for malformed values: wrong field lengths,
// non-hex digits, all-zero trace or span IDs, or the reserved version
// ff. Unknown future versions are accepted as long as the first four
// fields parse (the spec requires forward compatibility); version 00
// must have exactly four fields.
func ParseTraceparent(s string) (SpanContext, bool) {
	s = strings.TrimSpace(s)
	// The four fields sit at fixed offsets; only a later version may
	// follow them with more, after a dash.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' || len(s) > 55 && (s[:2] == "00" || s[55] != '-') {
		return SpanContext{}, false
	}
	var sc SpanContext
	_, errT := hex.Decode(sc.TraceID[:], []byte(s[3:35]))
	_, errS := hex.Decode(sc.SpanID[:], []byte(s[36:52]))
	flags, errF := strconv.ParseUint(s[53:55], 16, 8)
	if errT != nil || errS != nil || errF != nil || !isHex(s[:2]) || strings.EqualFold(s[:2], "ff") ||
		sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	sc.Sampled = flags&0x01 != 0
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// Traceparent renders the context as a traceparent header value.
func (c SpanContext) Traceparent() string {
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return "00-" + c.TraceID.String() + "-" + c.SpanID.String() + "-" + flags
}

// Attr is one key=value annotation on a span. Exactly one of Str and Int
// is meaningful, selected by IsInt; integer attributes support
// accumulation (AddAttrInt) so concurrent workers can contribute counts
// to a shared span.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

func (a Attr) String() string {
	if a.IsInt {
		return a.Key + "=" + strconv.FormatInt(a.Int, 10)
	}
	return a.Key + "=" + a.Str
}

// Span is one timed operation in a trace's tree: a name, a start time, an
// accumulated duration, key=value attributes, and child spans. All
// methods are nil-safe no-ops, so call sites never branch on tracing
// being enabled — code run outside a request (the CLI, benchmarks, the
// benchmark replay) carries a nil span and pays one nil check per call.
//
// Concurrency: StartChild and Add are lock-free (child publication is a
// CAS onto a sibling list; duration is an atomic add), so fan-out workers
// can open children of one parent span without serializing the hot path.
// AccumChild and the attribute setters serialize on a per-span mutex; they
// run at stage and work-unit boundaries, not per triple.
type Span struct {
	name   string
	tr     *SpanTrace
	id     SpanID
	parent SpanID
	start  time.Time
	dur    atomic.Int64 // accumulated nanoseconds
	ended  atomic.Bool

	// children is a lock-free LIFO list: StartChild CAS-prepends, and
	// Children() reverses back to creation order.
	children atomic.Pointer[Span]
	sibling  *Span

	mu    sync.Mutex // guards attrs and AccumChild's get-or-create
	attrs []Attr
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's ID (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Start returns the span's start time (zero for nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the duration accumulated so far: End's wall-clock
// bracket, plus anything contributed through Add.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.dur.Load())
}

// StartChild opens a child span. Safe to call from many goroutines
// concurrently; each child must be ended by whoever holds it. On a nil
// span it returns nil, whose methods no-op in turn.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.newSpan(name, s.id)
	s.publish(c)
	return c
}

// publish CAS-prepends c to s's child list.
func (s *Span) publish(c *Span) {
	for {
		head := s.children.Load()
		c.sibling = head
		if s.children.CompareAndSwap(head, c) {
			return
		}
	}
}

// End stops the span, adding the wall time since StartChild to its
// duration. Only the first End takes effect; Add may still contribute
// afterwards.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.dur.Add(int64(time.Since(s.start)))
}

// Add contributes d to the span's duration without reference to wall
// time — how an accumulator child (AccumChild) grows.
func (s *Span) Add(d time.Duration) {
	if s == nil {
		return
	}
	s.dur.Add(int64(d))
}

// AccumChild returns the accumulator child with the given name, creating
// it on first use: a child whose duration grows only through Add, never
// from wall time (its End is already spent). It is how work done in many
// small pieces, possibly by many goroutines at once, is timed — extraction
// units, plan binding, a subscription fan-out: every piece lands in
// the one child of its name, so a request's span count does not grow with
// its size, and wall-clock bracketing cannot double-count stolen work.
// The mutex serializes get-or-create; concurrent StartChild prepends
// remain safe because publication is still the CAS.
func (s *Span) AccumChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := s.children.Load(); c != nil; c = c.sibling {
		if c.name == name && c.ended.Load() {
			return c
		}
	}
	c := s.tr.newSpan(name, s.id)
	c.ended.Store(true) // End must not add wall time
	s.publish(c)
	return c
}

// SetAttr sets a string attribute, replacing any previous value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.attr(key) = Attr{Key: key, Str: value}
}

// SetAttrInt sets an integer attribute, replacing any previous value.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.attr(key) = Attr{Key: key, Int: v, IsInt: true}
}

// AddAttrInt adds delta to an integer attribute, creating it at zero —
// how concurrent workers contribute counts (memo resets, work units) to
// one shared span.
func (s *Span) AddAttrInt(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.attr(key)
	*a = Attr{Key: key, Int: a.Int + delta, IsInt: true}
}

// attr returns the attribute for key, creating it; callers hold s.mu, and
// the pointer is good until they release it.
func (s *Span) attr(key string) *Attr {
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			return &s.attrs[i]
		}
	}
	if s.attrs == nil {
		s.attrs = make([]Attr, 0, 2) // most spans that have any have two
	}
	s.attrs = append(s.attrs, Attr{Key: key})
	return &s.attrs[len(s.attrs)-1]
}

// Attrs returns a copy of the span's attributes in creation order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.attrs)
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span { return s.appendChildren(nil) }

// appendChildren appends the child spans to dst in creation order: the
// internal list is newest-first, so the appended run is reversed in place.
func (s *Span) appendChildren(dst []*Span) []*Span {
	if s == nil {
		return dst
	}
	n := len(dst)
	for c := s.children.Load(); c != nil; c = c.sibling {
		dst = append(dst, c)
	}
	slices.Reverse(dst[n:])
	return dst
}

// walk calls fn for s and then for its descendants, parent first and
// siblings in creation order, with their depth below s.
func (s *Span) walk(depth int, fn func(sp *Span, depth int)) {
	fn(s, depth)
	for _, c := range s.Children() {
		c.walk(depth+1, fn)
	}
}

// SpanTrace is one trace: a tree of spans under a root, stamped with a
// TraceID. Create with NewSpanTrace per request (or one-shot CLI run),
// hand Root() down the call stack, End the root when the request
// completes, and offer the finished trace to a TraceRegistry if it is to
// be kept — or Release it.
type SpanTrace struct {
	id     TraceID
	parent SpanID // external caller's span from traceparent, if any
	root   *Span
	seq    atomic.Uint64

	// The first spans come out of arena, which a released trace keeps
	// with their attribute arrays; the rest are allocated one by one.
	arena [12]Span
	used  atomic.Int32
}

// traces recycles released traces.
var traces = sync.Pool{New: func() any { return new(SpanTrace) }}

// NewSpanTrace starts a trace whose root span has the given name. A
// non-zero parent context (from ParseTraceparent) makes this trace a
// continuation: its TraceID is inherited and the root span's parent is
// the caller's span, so the caller's tracing backend can join the two.
func NewSpanTrace(rootName string, parent SpanContext) *SpanTrace {
	t := traces.Get().(*SpanTrace)
	t.id, t.parent = parent.TraceID, parent.SpanID
	for t.id.IsZero() {
		binary.BigEndian.PutUint64(t.id[:8], rand.Uint64())
		binary.BigEndian.PutUint64(t.id[8:], rand.Uint64())
	}
	t.root = t.newSpan(rootName, parent.SpanID)
	return t
}

// newSpan opens a span of the trace, the next of its arena while any is
// left.
func (t *SpanTrace) newSpan(name string, parent SpanID) *Span {
	var sp *Span
	if i := int(t.used.Add(1)) - 1; i < len(t.arena) {
		sp = &t.arena[i]
	} else {
		sp = new(Span)
	}
	sp.name, sp.tr, sp.id, sp.parent, sp.start = name, t, t.nextSpanID(), parent, time.Now()
	return sp
}

// Release hands the trace back for a later NewSpanTrace to reuse. Nothing
// may read or grow the trace or any of its spans afterwards — a registry
// keeping it, a goroutine still timing work under it — so only a trace
// that has not been kept, whose request is over, is released.
func (t *SpanTrace) Release() {
	for i := range min(int(t.used.Load()), len(t.arena)) {
		t.arena[i] = Span{attrs: t.arena[i].attrs[:0]}
	}
	t.used.Store(0)
	traces.Put(t)
}

// nextSpanID derives a fresh span ID from the trace ID and a counter —
// unique within the trace, no per-span rand calls on the hot path.
func (t *SpanTrace) nextSpanID() SpanID {
	n := t.seq.Add(1)
	var id SpanID
	binary.BigEndian.PutUint64(id[:], binary.BigEndian.Uint64(t.id[8:])^(n*0x9e3779b97f4a7c15))
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// ID returns the trace ID.
func (t *SpanTrace) ID() TraceID { return t.id }

// Root returns the root span.
func (t *SpanTrace) Root() *Span { return t.root }

// Duration returns the root span's duration.
func (t *SpanTrace) Duration() time.Duration { return t.root.Duration() }

// Traceparent renders the header value a response (or downstream call)
// should carry: this trace's ID, the root span as parent, sampled set.
func (t *SpanTrace) Traceparent() string {
	return SpanContext{TraceID: t.id, SpanID: t.root.id, Sampled: true}.Traceparent()
}

// NumSpans counts the spans in the tree.
func (t *SpanTrace) NumSpans() int {
	n := 0
	t.root.walk(0, func(*Span, int) { n++ })
	return n
}

// TopSpans returns the n longest non-root spans as "name=1.234ms"
// strings, longest first — the slow-request log's summary line.
func (t *SpanTrace) TopSpans(n int) []string {
	var all []*Span
	t.root.walk(0, func(s *Span, depth int) {
		if depth > 0 {
			all = append(all, s)
		}
	})
	sort.Slice(all, func(i, j int) bool { return all[i].Duration() > all[j].Duration() })
	if len(all) > n {
		all = all[:n]
	}
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = fmt.Sprintf("%s=%.3fms", s.name, float64(s.Duration())/float64(time.Millisecond))
	}
	return out
}

// WriteTree renders the trace as an indented text tree with durations
// and attributes — the `shaclfrag fragment -trace` output and a
// debugging aid in tests.
func (t *SpanTrace) WriteTree(w io.Writer) {
	fmt.Fprintf(w, "trace %s (%d spans)\n", t.id, t.NumSpans())
	t.root.walk(0, func(s *Span, depth int) {
		attrs := ""
		for _, a := range s.Attrs() {
			attrs += "  " + a.String()
		}
		fmt.Fprintf(w, "%s%s  %.3fms%s\n",
			strings.Repeat("  ", depth), s.name,
			float64(s.Duration())/float64(time.Millisecond), attrs)
	})
}
