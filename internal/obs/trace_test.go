package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceAccumulation(t *testing.T) {
	tr := NewTrace()
	tr.Observe("extract", 10*time.Millisecond)
	tr.Observe("parse", 1*time.Millisecond)
	tr.Observe("extract", 5*time.Millisecond) // same stage accumulates
	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2: %v", len(stages), stages)
	}
	if stages[0].Name != "extract" || stages[0].Dur != 15*time.Millisecond {
		t.Errorf("stage 0 = %+v, want extract/15ms (first-observation order)", stages[0])
	}
	if stages[1].Name != "parse" || stages[1].Dur != time.Millisecond {
		t.Errorf("stage 1 = %+v, want parse/1ms", stages[1])
	}
}

func TestTraceServerTiming(t *testing.T) {
	tr := NewTrace()
	tr.Observe("parse", 110*time.Microsecond)
	tr.Observe("extract", 41520*time.Microsecond)
	if got, want := tr.ServerTiming(), "parse;dur=0.11, extract;dur=41.52"; got != want {
		t.Errorf("ServerTiming() = %q, want %q", got, want)
	}
}

// TestTraceServerTimingInjection feeds stage names containing header
// metacharacters: a name like `extract;desc="x"` must not smuggle extra
// Server-Timing parameters into the response header.
func TestTraceServerTimingInjection(t *testing.T) {
	tr := NewTrace()
	tr.Observe(`extract;desc="evil", attack`, time.Millisecond)
	tr.Observe("ok.stage-2", 2*time.Millisecond)
	got := tr.ServerTiming()
	if strings.ContainsAny(got, `";`+"\r\n") && !strings.Contains(got, ";dur=") {
		t.Fatalf("unsanitized header: %q", got)
	}
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

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Observe("x", time.Second) // must not panic
	tr.Start("y")()
	if tr.Stages() != nil {
		t.Error("nil trace must have no stages")
	}
	if tr.ServerTiming() != "" {
		t.Error("nil trace must render empty Server-Timing")
	}
	// And a Tracer interface holding a nil *Trace keeps working too —
	// this is the contract core relies on.
	var tracer Tracer = tr
	tracer.Observe("z", time.Second)
}

func TestTraceStart(t *testing.T) {
	tr := NewTrace()
	stop := tr.Start("work")
	time.Sleep(2 * time.Millisecond)
	stop()
	stages := tr.Stages()
	if len(stages) != 1 || stages[0].Dur <= 0 {
		t.Errorf("Start/stop recorded %v", stages)
	}
}

// TestTraceStartSpan checks the flat-stage + span-tree bridge: with a
// root attached, StartSpan both records the flat stage and grows the
// tree; without one, only the flat stage is recorded.
func TestTraceStartSpan(t *testing.T) {
	tr := NewTrace()
	st := NewSpanTrace("req", SpanContext{})
	tr.SetRoot(st.Root())

	sp, stop := tr.StartSpan("extract")
	if sp == nil {
		t.Fatal("sampled trace must return a live span")
	}
	sp.SetAttrInt("units", 4)
	stop()

	if stages := tr.Stages(); len(stages) != 1 || stages[0].Name != "extract" {
		t.Errorf("flat stages = %v, want [extract]", stages)
	}
	kids := st.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "extract" || kids[0].Duration() <= 0 {
		t.Fatalf("span tree children = %v", kids)
	}
	if attrs := kids[0].Attrs(); len(attrs) != 1 || attrs[0].Key != "units" || attrs[0].Int != 4 {
		t.Errorf("span attrs = %v", attrs)
	}

	// Unsampled: nil root, still records the flat stage.
	tr2 := NewTrace()
	sp2, stop2 := tr2.StartSpan("extract")
	if sp2 != nil {
		t.Error("unsampled trace must return a nil span")
	}
	sp2.SetAttr("k", "v") // nil-safe
	stop2()
	if stages := tr2.Stages(); len(stages) != 1 {
		t.Errorf("unsampled flat stages = %v", stages)
	}

	// Nil trace: everything no-ops.
	var tr3 *Trace
	sp3, stop3 := tr3.StartSpan("x")
	sp3.End()
	stop3()
}

func TestTraceLogArgs(t *testing.T) {
	tr := NewTrace()
	tr.Observe("serialize", 2500*time.Microsecond)
	args := LogArgs(tr.Stages())
	if len(args) != 2 || args[0] != "serialize_ms" || args[1].(float64) != 2.5 {
		t.Errorf("LogArgs() = %v", args)
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context must yield nil trace")
	}
	tr := NewTrace()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace lost in context round-trip")
	}
}

// TestTraceConcurrent verifies concurrent Observe calls are safe (teeth
// under -race) and that totals add up.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Observe("extract", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	stages := tr.Stages()
	if len(stages) != 1 || stages[0].Dur != 8000*time.Microsecond {
		t.Errorf("concurrent accumulation = %v, want extract/8ms", stages)
	}
	if !strings.HasPrefix(tr.ServerTiming(), "extract;dur=8") {
		t.Errorf("ServerTiming() = %q", tr.ServerTiming())
	}
}
