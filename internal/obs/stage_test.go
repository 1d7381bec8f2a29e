package obs

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// testStages is the name set the stage tests read trees with.
var testStages = []string{"parse", "extract", "nnf", "serialize", "work"}

func newRoot() *Span { return NewSpanTrace("req", SpanContext{}).Root() }

// TestTraceAccumulation: spans of one name sum into one stage, stages come
// in start order with a parent before its children, only names in the set
// count, and only the two levels under the root are read.
func TestTraceAccumulation(t *testing.T) {
	root := newRoot()
	extract := root.AccumChild("extract")
	extract.Add(10 * time.Millisecond)
	root.AccumChild("parse").Add(time.Millisecond)
	root.AccumChild("extract").Add(5 * time.Millisecond) // same stage accumulates
	nnf := extract.AccumChild("nnf")
	nnf.Add(2 * time.Millisecond)
	nnf.AccumChild("parse").Add(time.Hour)         // depth 3: not a stage
	root.AccumChild("bind").Add(time.Hour)         // not in the set
	extract.AccumChild("plan-exec").Add(time.Hour) // not in the set
	again := root.StartChild("parse")              // a second span of a known name
	again.Add(time.Millisecond)
	again.ended.Store(true)

	want := []Stage{{"extract", 15 * time.Millisecond}, {"nnf", 2 * time.Millisecond}, {"parse", 2 * time.Millisecond}}
	stages := Stages(nil, root, testStages)
	if len(stages) != len(want) {
		t.Fatalf("got stages %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Errorf("stage %d = %+v, want %+v", i, stages[i], want[i])
		}
	}
}

func TestTraceServerTiming(t *testing.T) {
	root := newRoot()
	root.AccumChild("parse").Add(110 * time.Microsecond)
	root.AccumChild("extract").Add(41520 * time.Microsecond)
	if got, want := ServerTiming(Stages(nil, root, testStages)), "parse;dur=0.11, extract;dur=41.52"; got != want {
		t.Errorf("ServerTiming() = %q, want %q", got, want)
	}
}

// TestTraceServerTimingInjection feeds stage names containing header
// metacharacters: a name like `extract;desc="x"` must not smuggle extra
// Server-Timing parameters into the response header.
func TestTraceServerTimingInjection(t *testing.T) {
	root := newRoot()
	const evil = `extract;desc="evil", attack`
	root.AccumChild(evil).Add(time.Millisecond)
	root.AccumChild("ok.stage-2").Add(2 * time.Millisecond)
	got := ServerTiming(Stages(nil, root, []string{evil, "ok.stage-2"}))
	want := `extract_desc__evil___attack;dur=1.00, ok.stage-2;dur=2.00`
	if got != want {
		t.Errorf("ServerTiming() = %q, want %q", got, want)
	}
}

func TestSanitizeToken(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"extract", "extract"},
		{"plan-exec.2_x", "plan-exec.2_x"},
		{`a;b"c,d e`, "a_b_c_d_e"},
		{"", ""},
	} {
		if got := sanitizeToken(tc.in); got != tc.want {
			t.Errorf("sanitizeToken(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestTraceNilSafety: a request without a tree (a handler mounted without
// the middleware, the CLI, a benchmark) has no stages and renders nothing.
func TestTraceNilSafety(t *testing.T) {
	var root *Span
	root.StartChild("x").End() // must not panic
	root.AccumChild("y").Add(time.Second)
	if len(Stages(nil, root, testStages)) != 0 {
		t.Error("nil root must have no stages")
	}
	if ServerTiming(nil) != "" {
		t.Error("no stages must render an empty Server-Timing")
	}
	if len(LogAttrs(nil, nil)) != 0 {
		t.Error("no stages must render no log fields")
	}
}

// TestTraceStart: a stage bracketed by StartChild/End carries wall time,
// and is not a stage until it has ended — which is how a Server-Timing
// header rendered before the body leaves out serialize.
func TestTraceStart(t *testing.T) {
	root := newRoot()
	sp := root.StartChild("work")
	time.Sleep(2 * time.Millisecond)
	if stages := Stages(nil, root, testStages); len(stages) != 0 {
		t.Errorf("open span already a stage: %v", stages)
	}
	sp.End()
	stages := Stages(nil, root, testStages)
	if len(stages) != 1 || stages[0].Name != "work" || stages[0].Dur < 2*time.Millisecond {
		t.Errorf("StartChild/End recorded %v", stages)
	}
}

// TestTraceStartSpan: the span a stage is read from is the span deeper
// layers hang attributes and children on — one record, not two.
func TestTraceStartSpan(t *testing.T) {
	st := NewSpanTrace("req", SpanContext{})
	sp := st.Root().StartChild("extract")
	sp.SetAttrInt("units", 4)
	sub := sp.StartChild("nnf")
	sub.End()
	sp.End()

	stages := Stages(nil, st.Root(), testStages)
	if len(stages) != 2 || stages[0].Name != "extract" || stages[1].Name != "nnf" {
		t.Errorf("stages = %v, want [extract nnf]", stages)
	}
	kids := st.Root().Children()
	if len(kids) != 1 || kids[0] != sp || kids[0].Duration() != stages[0].Dur {
		t.Fatalf("span tree children = %v, stage %v", kids, stages[0])
	}
	if attrs := kids[0].Attrs(); len(attrs) != 1 || attrs[0].Key != "units" || attrs[0].Int != 4 {
		t.Errorf("span attrs = %v", attrs)
	}
}

// TestTraceLogAttrs: a stage logs as a `<stage>_ms` float attribute, and
// once its name has been logged, reading the stages into a stack array and
// rendering them allocates nothing.
func TestTraceLogAttrs(t *testing.T) {
	root := newRoot()
	root.AccumChild("serialize").Add(2500 * time.Microsecond)
	stages := Stages(nil, root, testStages)
	attrs := LogAttrs(nil, stages)
	if len(attrs) != 1 || !attrs[0].Equal(slog.Float64("serialize_ms", 2.5)) {
		t.Errorf("LogAttrs() = %v", attrs)
	}
	var buf [4]slog.Attr
	var sbuf [4]Stage
	allocs := testing.AllocsPerRun(100, func() {
		LogAttrs(buf[:0], Stages(sbuf[:0], root, testStages))
	})
	if allocs != 0 {
		t.Errorf("Stages and LogAttrs allocate %v times per line, want 0", allocs)
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context must yield a nil span")
	}
	root := newRoot()
	ctx := NewContext(context.Background(), root)
	if FromContext(ctx) != root {
		t.Error("root span lost in context round-trip")
	}
}

// TestTraceConcurrent verifies concurrent accumulation into one stage is
// safe (teeth under -race) while a reader renders the tree, and that
// totals add up.
func TestTraceConcurrent(t *testing.T) {
	root := newRoot()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				root.AccumChild("extract").Add(time.Microsecond)
				root.AccumChild("extract").AccumChild("nnf").Add(time.Microsecond)
				if j%100 == 0 {
					ServerTiming(Stages(nil, root, testStages))
				}
			}
		}()
	}
	wg.Wait()
	stages := Stages(nil, root, testStages)
	if len(stages) != 2 || stages[0].Dur != 8000*time.Microsecond || stages[1].Dur != 8000*time.Microsecond {
		t.Errorf("concurrent accumulation = %v, want extract/8ms nnf/8ms", stages)
	}
	if !strings.HasPrefix(ServerTiming(stages), "extract;dur=8") {
		t.Errorf("ServerTiming() = %q", ServerTiming(stages))
	}
}
