package fragserver

import (
	"bytes"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/schema"
)

// topSpan is one top_spans entry of a golden request: a stage span of
// /node and its duration in milliseconds to three places.
var topSpan = regexp.MustCompile(`^(parse|target|extract|serialize)=[0-9]+\.[0-9]{3}ms$`)

// goldenReplace makes a log line reproducible without changing its shape:
// it drops the timestamp, gives every *_ms field a fixed value of the kind
// it was logged with, and, once each top_spans entry is checked against
// topSpan, replaces the entries — which spans are longest varies from run
// to run. Everything else (keys, their order, value kinds, quoting) is the
// handler's own rendering of what the server logged.
func goldenReplace(t *testing.T) func([]string, slog.Attr) slog.Attr {
	return func(groups []string, a slog.Attr) slog.Attr {
		switch {
		case len(groups) == 0 && a.Key == slog.TimeKey:
			return slog.Attr{}
		case strings.HasSuffix(a.Key, "_ms"):
			switch a.Value.Kind() {
			case slog.KindInt64:
				a.Value = slog.Int64Value(7)
			case slog.KindFloat64:
				a.Value = slog.Float64Value(0.25)
			}
		case a.Key == "top_spans":
			spans := slices.Clone(a.Value.Any().([]string))
			for i, s := range spans {
				if !topSpan.MatchString(s) {
					t.Errorf("top_spans entry %q", s)
				}
				spans[i] = "span=0.000ms"
			}
			a.Value = slog.AnyValue(spans)
		}
		return a
	}
}

// accessLogQuery is the golden requests' query: one focus and one shape.
var accessLogQuery = "iri=" + url.QueryEscape("<"+datagen.NS+"lodging/0>") + "&shape=S01"

const goldenTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// TestAccessLogGolden pins the access-log line and the slow-request
// warning byte for byte, under the text and the JSON handler: a warm
// /node (its stages parse, target, extract, serialize) once kept through
// a sampled traceparent, whose warning then names the trace, and once
// not kept. The access log is an interface operators parse; a change to
// how it is built must not change what it says.
func TestAccessLogGolden(t *testing.T) {
	want := map[string]string{
		"text": `level=INFO msg=request method=GET path=/node query="iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01" status=200 bytes=156 dur_ms=7 remote=192.0.2.1:1234 parse_ms=0.25 target_ms=0.25 extract_ms=0.25 serialize_ms=0.25
level=WARN msg="slow request" method=GET path=/node query="iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01" status=200 bytes=156 dur_ms=7 remote=192.0.2.1:1234 threshold_ms=7 top_spans="[span=0.000ms span=0.000ms span=0.000ms]" trace_id=4bf92f3577b34da6a3ce929d0e0e4736
level=INFO msg=request method=GET path=/node query="iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01" status=200 bytes=156 dur_ms=7 remote=192.0.2.1:1234 parse_ms=0.25 target_ms=0.25 extract_ms=0.25 serialize_ms=0.25
level=WARN msg="slow request" method=GET path=/node query="iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01" status=200 bytes=156 dur_ms=7 remote=192.0.2.1:1234 threshold_ms=7 top_spans="[span=0.000ms span=0.000ms span=0.000ms]"
`,
		"json": `{"level":"INFO","msg":"request","method":"GET","path":"/node","query":"iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01","status":200,"bytes":156,"dur_ms":7,"remote":"192.0.2.1:1234","parse_ms":0.25,"target_ms":0.25,"extract_ms":0.25,"serialize_ms":0.25}
{"level":"WARN","msg":"slow request","method":"GET","path":"/node","query":"iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01","status":200,"bytes":156,"dur_ms":7,"remote":"192.0.2.1:1234","threshold_ms":7,"top_spans":["span=0.000ms","span=0.000ms","span=0.000ms"],"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}
{"level":"INFO","msg":"request","method":"GET","path":"/node","query":"iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01","status":200,"bytes":156,"dur_ms":7,"remote":"192.0.2.1:1234","parse_ms":0.25,"target_ms":0.25,"extract_ms":0.25,"serialize_ms":0.25}
{"level":"WARN","msg":"slow request","method":"GET","path":"/node","query":"iri=%3Chttp%3A%2F%2Ftyrol.example%2Flodging%2F0%3E&shape=S01","status":200,"bytes":156,"dur_ms":7,"remote":"192.0.2.1:1234","threshold_ms":7,"top_spans":["span=0.000ms","span=0.000ms","span=0.000ms"]}
`,
	}
	for _, kind := range []string{"text", "json"} {
		var buf bytes.Buffer
		opts := &slog.HandlerOptions{ReplaceAttr: goldenReplace(t)}
		var h slog.Handler = slog.NewTextHandler(&buf, opts)
		if kind == "json" {
			h = slog.NewJSONHandler(&buf, opts)
		}
		srv, err := New(Config{
			Graph:       datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 9}),
			Schema:      schema.MustNew(datagen.BenchmarkShapes()[:8]...),
			Logger:      slog.New(h),
			SlowRequest: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		serve := func(traceparent string) {
			req := httptest.NewRequest("GET", "/node?"+accessLogQuery, nil)
			if traceparent != "" {
				req.Header.Set("traceparent", traceparent)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("%s: GET /node: %d %s", kind, rec.Code, rec.Body)
			}
		}
		serve("") // warms the cache: a miss may open more stages
		buf.Reset()
		serve(goldenTraceparent)
		serve("")
		if got := buf.String(); got != want[kind] {
			t.Errorf("%s access log:\n got %s\nwant %s", kind, got, want[kind])
		}
	}
}
