package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"shaclfrag/internal/fragserver"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/turtle"
)

// smallSize runs every workload's code on a graph of a few hundred
// individuals.
var smallSize = sizes{tyrol: 300, scan: 300, scanCache: 3000, hubPapers: 60, population: 100, nodesPerRound: 100}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	if v, err := percentile(samples, 50); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if v, err := percentile(samples, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (ten samples beyond it)", v, err)
	}
	if _, err := percentile(samples, 91); err == nil {
		t.Error("p91 of 100 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(samples[:19], 50); err == nil {
		t.Error("p50 of 19 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// listHash identifies a workload's generated inputs: both files and every
// request byte.
func listHash(in *inputs) [32]byte {
	h := sha256.New()
	io.WriteString(h, in.data)
	io.WriteString(h, in.shapes)
	for _, list := range append([][]request{in.warmup}, in.round...) {
		for _, q := range list {
			h.Write(q.raw)
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		build := func(seed int64) *inputs {
			in, err := w.build(w, smallSize, seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return in
		}
		a, b, c := build(1), build(1), build(2)
		if listHash(a) != listHash(b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if listHash(a) == listHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
		if len(a.round) != w.clients {
			t.Errorf("%s: %d request lists for %d clients", w.name, len(a.round), w.clients)
		}
	}
}

func TestUpdateMixDeletesUndoAdds(t *testing.T) {
	w := workloadByName("update-mix")
	in, err := w.build(w, smallSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	var adds, dels []string
	reads := 0
	for _, q := range in.round[0] {
		switch {
		case q.kind == opUpdate && q.del:
			dels = append(dels, q.body)
		case q.kind == opUpdate:
			adds = append(adds, q.body)
			if ts, err := turtle.ParseTriples(q.body); err != nil || len(ts) != 5 {
				t.Errorf("an add carries %d triples (%v), want 5", len(ts), err)
			}
		default:
			reads++
		}
	}
	if len(adds) != updatesPerRound/2 || strings.Join(adds, "|") != strings.Join(dels, "|") {
		t.Errorf("%d adds and %d deletes do not pair up in order", len(adds), len(dels))
	}
	if reads != updatesPerRound*readsPerUpdate {
		t.Errorf("%d reads, want %d per update", reads, readsPerUpdate)
	}
}

func TestProcParsers(t *testing.T) {
	// Captured from a fragserver renamed to contain a space and a ')'.
	const stat = "4242 (frag server) x) S 4100 4242 4100 34816 4242 4194560 52311 0 12 0 1873 249 0 0 20 0 9 0 8812345 1345667072 71046 18446744073709551615 4194304 8388608 140725000000000 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 21220*time.Millisecond {
		t.Errorf("parseProcStat = %v, %v; want 21.22s (1873+249 ticks)", cpu, err)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line must be refused")
	}
	const status = "Name:\tfragserver\nVmPeak:\t 1314128 kB\nVmSize:\t 1314128 kB\nVmHWM:\t  284296 kB\nVmRSS:\t  270112 kB\nThreads:\t9\n"
	hwm, err := parseVmHWM(status)
	if err != nil || hwm != 284296<<10 {
		t.Errorf("parseVmHWM = %v, %v; want 284296 kB", hwm, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status without VmHWM must be refused")
	}
}

func TestMetricsParser(t *testing.T) {
	// Captured from GET /metrics, cut down; the bucket line carries an
	// OpenMetrics exemplar.
	const text = `# HELP fragserver_request_duration_seconds End-to-end request latency in seconds, by route.
# TYPE fragserver_request_duration_seconds histogram
fragserver_request_duration_seconds_bucket{route="/node",le="0.001"} 41 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.00067
fragserver_request_duration_seconds_sum{route="/fragment"} 0.002868078
fragserver_request_duration_seconds_sum{route="/node"} 1.5
fragserver_requests_total{route="/node",status="200"} 52000
fragserver_requests_shed_total 0
fragserver_stage_duration_seconds_sum{stage="extract"} 0.002295926
fragserver_stage_duration_seconds_sum{stage="merge"} 0.0002222
runtime_heap_allocs_bytes_total 4.050432e+09
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"runtime_heap_allocs_bytes_total", nil, 4.050432e+09},
		{"fragserver_request_duration_seconds_sum", nil, 1.502868078},
		{"fragserver_request_duration_seconds_sum", []string{`route="/node"`}, 1.5},
		{"fragserver_request_duration_seconds_bucket", []string{`le="0.001"`}, 41},
		{"fragserver_requests_total", []string{`route="/node"`, `status="200"`}, 52000},
		{"fragserver_stage_duration_seconds_sum", []string{`stage="merge"`}, 0.0002222},
		{"fragserver_requests_shed_total", nil, 0},
		{"no_such_series", nil, 0},
	} {
		if got := p.sum(c.name, c.labels...); got != c.want {
			t.Errorf("sum(%s %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("a line without a value must be refused")
	}
}

// TestSmokeEveryWorkload drives each workload's real request lists, checks
// included, against the server's handler tree on a small graph, and then
// the traced replay over the same inputs.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here is timed, and start-up dominates
			in, err := w.build(w, smallSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := turtle.Parse(in.data)
			if err != nil {
				t.Fatal(err)
			}
			h, err := shaclsyn.ParseSchema(in.shapes)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := fragserver.New(fragserver.Config{
				Graph: g, Schema: h, CacheTriples: w.cache(smallSize),
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Live().Drain() // ends the SSE handler so Close can return

			ref, err := newReference(in.g, in.h)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := openSession(strings.TrimPrefix(ts.URL, "http://"), in, ref)
			if err != nil {
				t.Fatal(err)
			}
			rounds := sess.timed(0, nil, func() bool { return false })
			total := sumRounds(rounds)
			if wrong := sess.close(); wrong != "" {
				t.Error(wrong)
			}
			if a, f := sess.all.totals(); f != 0 || a == 0 {
				t.Errorf("%d of %d requests failed: %v", f, a, sess.all.firstErr)
			}
			if len(rounds) != 1 || len(total.lat[w.primary]) == 0 {
				t.Errorf("%d rounds, %d primary samples; want one round with samples", len(rounds), len(total.lat[w.primary]))
			}
			checked := 0
			for _, list := range in.round {
				for _, q := range list {
					if q.check {
						checked++
					}
				}
			}
			if checked == 0 {
				t.Error("no request of the round is compared with the reference")
			}

			tr, err := runTrace(w, smallSize, in)
			if err != nil {
				t.Fatal(err)
			}
			if tr.mismatches != 0 || tr.replayed != len(in.round[0]) {
				t.Errorf("replayed %d of %d requests, %d differed from the handler's bytes", tr.replayed, len(in.round[0]), tr.mismatches)
			}
			p := newPhase(rounds, time.Second)
			p.before, p.after = promSample{}, promSample{}
			if _, err := endToEndValues(w, []float64{1, 2, 3}, p); w.name == "node-hot" && err != nil {
				t.Errorf("node-hot's round is large enough for p50: %v", err)
			}
			values := perLayerValues(w, p, tr)
			for _, d := range perLayer {
				if _, ok := values[d.name]; !ok {
					t.Errorf("per-layer metric %s is not computed", d.name)
				}
			}
			for _, name := range []string{"turtle.parse_ms", "core.extract_ms", "fragserver.handler_" + kindNames[w.primary] + unitOf(w.primary)} {
				if values[name] <= 0 {
					t.Errorf("%s = %v, want a positive time", name, values[name])
				}
			}
		})
	}
}

func unitOf(k opKind) string {
	if k == opNode {
		return "_us"
	}
	return "_ms"
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's names and units
// in step with what the program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Why string
	}
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}
