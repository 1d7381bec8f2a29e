package fragserver

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
)

var logStageField = regexp.MustCompile(`(\w+)_ms=`)

// TestStageNamesPerRoute pins, per data route, the three
// places a request's stages surface: the Server-Timing header, the
// <stage>_ms fields of the access-log line, and the
// fragserver_stage_duration_seconds{stage=…} series the request moved. The
// sets were written down from the server that kept a flat stage list beside
// the span tree; they are derived from the tree alone now and may not drift.
// Between them the routes must produce every name in stageNames.
func TestStageNamesPerRoute(t *testing.T) {
	const addBody = "<" + datagen.NS + "lodging/0> <" + datagen.NS + "name> \"pinned\" .\n"
	read := func(names ...string) []string { return names }
	update := read("apply", "invalidate", "notify", "parse")
	produced := map[string]bool{}
	fragment := read("extract", "merge", "nnf", "target")
	cfg := tracedConfig(0)
	var logs bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frag := core.NewExtractor(srv.graphNow(), srv.h).Fragment(srv.requests[:1])
	focus := url.QueryEscape(frag[0].S.String())
	for _, tc := range []struct {
		method, target, body string
		timing               []string // Server-Timing; nil: no header
		logged               []string // access-log fields and moved series
	}{
		{"GET", "/fragment", "", fragment, append(fragment, "serialize")},
		{"GET", "/fragment?shape=S01", "", fragment, append(fragment, "serialize")},
		{"GET", "/node?iri=" + focus + "&shape=S01", "", read("extract", "parse", "target"), read("extract", "parse", "serialize", "target")},
		{"GET", "/tpf?p=" + url.QueryEscape("?q"), "", read("extract", "parse"), read("extract", "parse", "serialize")},
		{"GET", "/validate", "", nil, read("validate")},
		{"GET", "/explain?iri=" + focus + "&shape=S01", "", read("extract", "parse", "target"), read("extract", "parse", "serialize", "target")},
		{"POST", "/update", addBody, nil, update},
		{"POST", "/update?op=delete", addBody, nil, update},
	} {
		name := tc.method + " " + tc.target
		before := map[string]uint64{}
		for _, stage := range stageNames {
			before[stage] = srv.metrics.stages[stage].Count()
		}
		logs.Reset()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", name, rec.Code, rec.Body)
		}

		var timing []string
		if header := rec.Header().Get("Server-Timing"); header != "" {
			for _, item := range strings.Split(header, ", ") {
				stage, _, ok := strings.Cut(item, ";dur=")
				if !ok {
					t.Errorf("%s: Server-Timing item %q", name, item)
				}
				timing = append(timing, stage)
			}
		}
		slices.Sort(timing)
		if !slices.Equal(timing, tc.timing) {
			t.Errorf("%s: Server-Timing stages %v, want %v", name, timing, tc.timing)
		}

		var logged []string
		for _, line := range strings.Split(logs.String(), "\n") {
			if !strings.Contains(line, "msg=request ") {
				continue
			}
			for _, m := range logStageField.FindAllStringSubmatch(line, -1) {
				if m[1] != "dur" {
					logged = append(logged, m[1])
				}
			}
		}
		slices.Sort(logged)
		want := slices.Clone(tc.logged)
		slices.Sort(want)
		if !slices.Equal(logged, want) {
			t.Errorf("%s: access-log stage fields %v, want %v", name, logged, want)
		}

		var moved []string
		for _, stage := range stageNames {
			switch d := srv.metrics.stages[stage].Count() - before[stage]; d {
			case 0:
			case 1:
				moved = append(moved, stage)
				produced[stage] = true
			default:
				t.Errorf("%s: stage %s observed %d times for one request", name, stage, d)
			}
		}
		slices.Sort(moved)
		if !slices.Equal(moved, want) {
			t.Errorf("%s: stage series moved %v, want %v", name, moved, want)
		}
	}
	for _, stage := range stageNames {
		if !produced[stage] {
			t.Errorf("no route produces stage %q: delete it from stageNames", stage)
		}
	}
}

// TestExplainTraceHasStages: /explain opens its stages as spans like every
// other route, so its kept trace is a tree and not a bare root.
func TestExplainTraceHasStages(t *testing.T) {
	srv, ts := newExplainServer(t, Config{TraceSample: 1})
	resp, _ := getExplain(t, ts, "iri="+url.QueryEscape("<http://x/p1>"))
	traceID := strings.Split(resp.Header.Get("traceparent"), "-")[1]
	st, ok := srv.Traces().Get(traceID)
	if !ok {
		t.Fatal("explain trace not kept")
	}
	if got, want := names(st.Root()), []string{"parse", "target", "extract", "serialize"}; !slices.Equal(got, want) {
		t.Errorf("/explain trace children %v, want %v", got, want)
	}
}
