package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	sid = "00f067aa0ba902b7"
)

// traceparentCases tables the W3C validation rules; it is also
// FuzzParseTraceparent's seed corpus.
var traceparentCases = []struct {
	name    string
	in      string
	ok      bool
	sampled bool
}{
	{"valid sampled", "00-" + tid + "-" + sid + "-01", true, true},
	{"valid unsampled", "00-" + tid + "-" + sid + "-00", true, false},
	{"surrounding space", "  00-" + tid + "-" + sid + "-01  ", true, true},
	{"flags with extra bits", "00-" + tid + "-" + sid + "-09", true, true},
	{"future version", "cc-" + tid + "-" + sid + "-01", true, true},
	{"future version extra field", "cc-" + tid + "-" + sid + "-01-extra", true, true},
	{"version ff reserved", "ff-" + tid + "-" + sid + "-01", false, false},
	{"version 00 extra field", "00-" + tid + "-" + sid + "-01-extra", false, false},
	{"all-zero trace id", "00-00000000000000000000000000000000-" + sid + "-01", false, false},
	{"all-zero span id", "00-" + tid + "-0000000000000000-01", false, false},
	{"short trace id", "00-4bf92f3577b34da6-" + sid + "-01", false, false},
	{"long span id", "00-" + tid + "-" + sid + "ff-01", false, false},
	{"non-hex trace id", "00-" + strings.Repeat("zz", 16) + "-" + sid + "-01", false, false},
	{"non-hex version", "0x-" + tid + "-" + sid + "-01", false, false},
	{"non-hex flags", "00-" + tid + "-" + sid + "-zz", false, false},
	{"too few fields", "00-" + tid + "-" + sid, false, false},
	{"empty", "", false, false},
	{"garbage", "hello world", false, false},
}

// TestParseTraceparent: accepted values round-trip their IDs, rejected
// ones come back ok=false.
func TestParseTraceparent(t *testing.T) {
	for _, tc := range traceparentCases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := ParseTraceparent(tc.in)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if !ok {
				return
			}
			if sc.TraceID.String() != tid || sc.SpanID.String() != sid {
				t.Errorf("IDs = %s/%s, want %s/%s", sc.TraceID, sc.SpanID, tid, sid)
			}
			if sc.Sampled != tc.sampled {
				t.Errorf("sampled = %v, want %v", sc.Sampled, tc.sampled)
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, ok := ParseTraceparent(in)
	if !ok {
		t.Fatal("valid header rejected")
	}
	if got := sc.Traceparent(); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
}

// FuzzParseTraceparent: the header arrives on every request from whoever
// sends one. Parsing never panics; what it accepts has non-zero IDs and a
// version other than ff, and renders (Traceparent) to a header that parses
// back to the same context and is the input's own first four fields in
// lower case with the flags reduced to the sampled bit — so nothing an
// upstream sent can come out of this hop as a different trace.
func FuzzParseTraceparent(f *testing.F) {
	for _, tc := range traceparentCases {
		f.Add(tc.in)
	}
	f.Add("CC-" + strings.ToUpper(tid) + "-" + strings.ToUpper(sid) + "-0F-future-fields")
	f.Fuzz(func(t *testing.T, in string) {
		sc, ok := ParseTraceparent(in)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", in, sc)
			}
			return
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("accepted %q with a zero ID: %+v", in, sc)
		}
		fields := strings.Split(strings.ToLower(strings.TrimSpace(in)), "-")
		if fields[0] == "ff" {
			t.Fatalf("accepted reserved version ff: %q", in)
		}
		out := sc.Traceparent()
		if again, ok := ParseTraceparent(out); !ok || again != sc {
			t.Fatalf("%q → %+v → %q → %+v (ok=%v)", in, sc, out, again, ok)
		}
		flags := "00"
		if bits, _ := strconv.ParseUint(fields[3], 16, 8); bits&1 == 1 {
			flags = "01"
		}
		if want := "00-" + fields[1] + "-" + fields[2] + "-" + flags; out != want {
			t.Fatalf("%q rendered as %q, want %q", in, out, want)
		}
	})
}

// TestSpanTraceContinuation checks that a parent context threads through:
// the trace inherits the caller's trace ID and the root span points back
// at the caller's span.
func TestSpanTraceContinuation(t *testing.T) {
	sc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	st := NewSpanTrace("req", sc)
	if st.ID() != sc.TraceID {
		t.Errorf("trace ID = %s, want inherited %s", st.ID(), sc.TraceID)
	}
	if st.Root().parent != sc.SpanID {
		t.Errorf("root parent = %s, want caller span %s", st.Root().parent, sc.SpanID)
	}
	if !strings.Contains(st.Traceparent(), sc.TraceID.String()) {
		t.Errorf("response traceparent %q must carry the inherited trace ID", st.Traceparent())
	}

	// Without a parent, a fresh non-zero trace ID is generated.
	st2 := NewSpanTrace("req", SpanContext{})
	if st2.ID().IsZero() {
		t.Error("fresh trace must not have the all-zero ID")
	}
	if st2.ID() == st.ID() {
		t.Error("fresh trace must not collide with the inherited one")
	}
}

func TestSpanTree(t *testing.T) {
	st := NewSpanTrace("req", SpanContext{})
	root := st.Root()
	a := root.StartChild("a")
	b := root.StartChild("b")
	ab := a.StartChild("a.1")
	ab.Add(3 * time.Millisecond)
	ab.End() // End after Add: both contribute
	a.End()
	b.End()
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "a" || kids[1].Name() != "b" {
		t.Fatalf("children = %v, want [a b] in creation order", kids)
	}
	if got := kids[0].Children(); len(got) != 1 || got[0].Name() != "a.1" {
		t.Fatalf("grandchildren = %v", got)
	}
	if d := kids[0].Children()[0].Duration(); d < 3*time.Millisecond {
		t.Errorf("a.1 duration = %v, want >= 3ms (Add + End accumulate)", d)
	}
	if st.NumSpans() != 4 {
		t.Errorf("NumSpans = %d, want 4", st.NumSpans())
	}

	// Double End must not double-count.
	d := a.Duration()
	a.End()
	if a.Duration() != d {
		t.Error("second End must be a no-op")
	}

	// Span IDs are unique and non-zero across the tree.
	seen := map[SpanID]bool{}
	for _, s := range []*Span{root, a, b, ab} {
		if s.ID().IsZero() || seen[s.ID()] {
			t.Errorf("span %s has zero/duplicate ID %s", s.Name(), s.ID())
		}
		seen[s.ID()] = true
	}
}

// TestSpanConcurrentChildren opens children of one parent from many
// goroutines at once — under -race this proves the CAS sibling list and
// the AccumChild get-or-create path are sound.
func TestSpanConcurrentChildren(t *testing.T) {
	const goroutines, perG = 8, 200
	st := NewSpanTrace("req", SpanContext{})
	root := st.Root()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c := root.StartChild("unit")
				c.Add(time.Microsecond)
				c.End()
				root.AccumChild("accum").Add(time.Microsecond)
				root.AddAttrInt("units", 1)
			}
		}()
	}
	wg.Wait()

	kids := root.Children()
	if want := goroutines*perG + 1; len(kids) != want {
		t.Errorf("children = %d, want %d (units + one accum)", len(kids), want)
	}
	var accum *Span
	for _, c := range kids {
		if c.Name() == "accum" {
			if accum != nil {
				t.Fatal("AccumChild must return one child per name")
			}
			accum = c
		}
	}
	if accum == nil {
		t.Fatal("no accum child")
	}
	if got := accum.Duration(); got != goroutines*perG*time.Microsecond {
		t.Errorf("accum duration = %v, want %v", got, goroutines*perG*time.Microsecond)
	}
	attrs := root.Attrs()
	if len(attrs) != 1 || attrs[0].Int != goroutines*perG {
		t.Errorf("units attr = %v, want %d", attrs, goroutines*perG)
	}
}

// TestSpanNilSafety drives every method through a nil *Span.
func TestSpanNilSafety(t *testing.T) {
	var s *Span
	if c := s.StartChild("x"); c != nil {
		t.Error("nil span must return nil children")
	}
	s.End()
	s.Add(time.Second)
	s.AccumChild("x").Add(time.Second)
	s.SetAttr("k", "v")
	s.SetAttrInt("k", 1)
	s.AddAttrInt("k", 1)
	if s.Attrs() != nil || s.Children() != nil {
		t.Error("nil span must have no attrs or children")
	}
	if s.Name() != "" || !s.ID().IsZero() || s.Duration() != 0 || !s.Start().IsZero() {
		t.Error("nil span accessors must return zero values")
	}
}

func TestTopSpansAndWriteTree(t *testing.T) {
	st := NewSpanTrace("req", SpanContext{})
	root := st.Root()
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"fast", time.Millisecond}, {"slow", 30 * time.Millisecond}, {"mid", 10 * time.Millisecond}} {
		sp := root.StartChild(c.name)
		sp.Add(c.d)
	}
	root.End()

	top := st.TopSpans(2)
	if len(top) != 2 || !strings.HasPrefix(top[0], "slow=") || !strings.HasPrefix(top[1], "mid=") {
		t.Errorf("TopSpans = %v, want [slow mid]", top)
	}

	var b strings.Builder
	st.WriteTree(&b)
	out := b.String()
	for _, want := range []string{"trace " + st.ID().String(), "req", "  slow", "  mid", "  fast"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTree output missing %q:\n%s", want, out)
		}
	}
}
