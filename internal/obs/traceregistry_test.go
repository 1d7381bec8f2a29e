package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

func finishedTrace(name string) *SpanTrace {
	st := NewSpanTrace(name, SpanContext{})
	sp := st.Root().StartChild("work")
	sp.Add(time.Millisecond)
	sp.End()
	st.Root().End()
	return st
}

// TestRegistryEviction fills the ring past capacity and checks that the
// oldest routine trace goes first while notable traces survive.
func TestRegistryEviction(t *testing.T) {
	r := NewTraceRegistry(3)
	notable := finishedTrace("err")
	r.Keep(notable, true)
	var routine []*SpanTrace
	for i := 0; i < 4; i++ {
		st := finishedTrace(fmt.Sprintf("ok-%d", i))
		routine = append(routine, st)
		r.Keep(st, false)
	}

	stats := r.Stats()
	if stats.Kept != 3 || stats.Sampled != 5 || stats.Evicted != 2 {
		t.Errorf("stats = %+v, want kept=3 sampled=5 evicted=2", stats)
	}
	// The notable trace outlives every routine one.
	if _, ok := r.Get(notable.ID().String()); !ok {
		t.Error("notable trace evicted before routine ones")
	}
	// Oldest routine traces went first: ok-0 and ok-1 gone, ok-2/ok-3 kept.
	for i, st := range routine {
		_, ok := r.Get(st.ID().String())
		if want := i >= 2; ok != want {
			t.Errorf("routine trace %d kept=%v, want %v (oldest evicted first)", i, ok, want)
		}
	}

	// A ring full of notable traces evicts the oldest notable.
	r2 := NewTraceRegistry(2)
	first := finishedTrace("n0")
	r2.Keep(first, true)
	r2.Keep(finishedTrace("n1"), true)
	r2.Keep(finishedTrace("n2"), true)
	if _, ok := r2.Get(first.ID().String()); ok {
		t.Error("oldest notable must be evicted when only notables remain")
	}
}

func TestRegistryStatsAndNil(t *testing.T) {
	var r *TraceRegistry
	r.Keep(finishedTrace("x"), false) // no-ops
	r.MarkDropped()
	if s := r.Stats(); s != (TraceStats{}) {
		t.Errorf("nil registry stats = %+v", s)
	}
	if _, ok := r.Get("deadbeef"); ok {
		t.Error("nil registry must hold nothing")
	}
	if r.Summaries() != nil {
		t.Error("nil registry must list nothing")
	}

	r2 := NewTraceRegistry(0) // default capacity
	r2.Keep(finishedTrace("a"), false)
	r2.MarkDropped()
	r2.MarkDropped()
	s := r2.Stats()
	if s.Cap != 128 || s.Sampled != 1 || s.Dropped != 2 || s.Kept != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestRegistryHandlerJSON exercises both handler modes: the listing
// (summaries newest-first plus stats) and the OTLP-shaped single fetch.
func TestRegistryHandlerJSON(t *testing.T) {
	r := NewTraceRegistry(8)
	old := finishedTrace("old")
	r.Keep(old, false)
	st := NewSpanTrace("GET /fragment", SpanContext{})
	sh := st.Root().StartChild("plan-exec")
	sh.SetAttrInt("units", 7)
	sh.Add(2 * time.Millisecond)
	sh.End()
	st.Root().End()
	r.Keep(st, true)

	h := r.Handler("fragserver")

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Traces []TraceSummary `json:"traces"`
		Stats  TraceStats     `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("listing is not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(list.Traces) != 2 || list.Traces[0].Name != "GET /fragment" || !list.Traces[0].Notable {
		t.Errorf("listing = %+v, want newest-first with notable flag", list.Traces)
	}
	if list.Traces[0].Spans != 2 || list.Stats.Kept != 2 {
		t.Errorf("listing spans/stats wrong: %+v / %+v", list.Traces[0], list.Stats)
	}

	// Fetch by path segment.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+st.ID().String(), nil))
	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &otlp); err != nil {
		t.Fatalf("trace fetch is not JSON: %v\n%s", err, rec.Body.String())
	}
	spans := otlp.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("OTLP spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "GET /fragment" || spans[0].TraceID != st.ID().String() {
		t.Errorf("root OTLP span = %+v", spans[0])
	}
	if spans[1].Name != "plan-exec" || spans[1].ParentSpanID != spans[0].SpanID {
		t.Errorf("child OTLP span = %+v, want parent link to root", spans[1])
	}

	// Fetch by query parameter and a miss.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+old.ID().String(), nil))
	if rec.Code != 200 {
		t.Errorf("?id= fetch status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+"0123456789abcdef0123456789abcdef", nil))
	if rec.Code != 404 {
		t.Errorf("unknown trace status = %d, want 404", rec.Code)
	}
}
