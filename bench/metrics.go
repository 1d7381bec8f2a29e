package main

import (
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a client or an operator of the server sees. Every
// workload reports every one of them, so p50_ms describes the workload's
// primary request kind: /node on node-hot and update-mix, /fragment on
// shape-scan and hub-path. On update-mix an update takes a thousand times
// as long as a read, so ops_per_s follows the write path there and p50_ms
// the reads beside it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"server_alloc_kb_per_op", "kB"},
}

// perLayer are the metrics of single layers, <package>.<metric>. A metric
// whose layer the workload never reaches reads 0.
var perLayer = []metricDef{
	{"turtle.parse_ms", "ms"},
	{"turtle.parse_triples_per_s", "1/s"},
	{"turtle.parse_delta_us", "us"},
	{"turtle.serialize_ns_per_triple", "ns"},
	{"turtle.serialize_mb_per_s", "MB/s"},
	{"shaclsyn.parse_ms", "ms"},
	{"shaclsyn.definitions", "count"},
	{"shapelint.lint_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.apply_ms", "ms"},
	{"store.apply_alloc_kb", "kB"},
	{"store.samplestats_ms", "ms"},
	{"rdfgraph.lookup_ns", "ns"},
	{"rdfgraph.scan_ns_per_edge", "ns"},
	{"rdfgraph.decode_ns_per_triple", "ns"},
	{"schema.validate_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.extract_over_validate", "ratio"},
	{"core.cache_get_ns", "ns"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_evictions_per_op", "count"},
	{"core.cache_carry_ms", "ms"},
	{"core.cache_carry_ratio", "ratio"},
	{"plan.planschema_ms", "ms"},
	{"plan.instructions", "count"},
	{"plan.bind_ms", "ms"},
	{"plan.exec_ms", "ms"},
	{"contain.classes_ms", "ms"},
	{"contain.classes", "count"},
	{"paths.trace_ms", "ms"},
	{"paths.trace_triples", "count"},
	{"live.notify_ms", "ms"},
	{"live.reextract_ratio", "ratio"},
	{"fragserver.handler_node_us", "us"},
	{"fragserver.handler_fragment_ms", "ms"},
	{"fragserver.handler_update_ms", "ms"},
	{"fragserver.self_node_us", "us"},
	{"fragserver.self_fragment_ms", "ms"},
	{"fragserver.self_update_ms", "ms"},
	{"fragserver.stage_coverage", "ratio"},
	{"fragserver.shed_total", "count"},
	{"http.loopback_us", "us"},
	{"http.p90_ms", "ms"},
	{"http.node_p99_ms", "ms"},
	{"http.update_p50_ms", "ms"},
	{"http.notify_lag_p50_ms", "ms"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.rss_peak_mb", "MB"},
}

// phase is one timed HTTP phase against the child server with what was
// read from the server before and after it.
type phase struct {
	rounds        []roundStat
	total         *roundStat // every round added up
	quiet         *roundStat // the faster half of the rounds added up
	wall          time.Duration
	before, after promSample
	rssPeak       int64
}

func newPhase(rounds []roundStat, wall time.Duration) *phase {
	return &phase{rounds: rounds, total: sumRounds(rounds), quiet: sumRounds(quietHalf(rounds)), wall: wall}
}

func (p *phase) delta(name string, labels ...string) float64 {
	return p.after.sum(name, labels...) - p.before.sum(name, labels...)
}

// quietSetup is the median of the faster half of the measured starts, by
// the same reasoning as quietHalf.
func quietSetup(setups []float64) float64 {
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	return median(s[:(len(s)+1)/2])
}

// endToEndValues computes the end-to-end metrics of one run: rate and
// latency over the quiet half of the rounds, allocation over all of them (it
// does not depend on how fast the machine ran). It fails when the percentile
// lacks the samples to stand on.
func endToEndValues(w *workload, setups []float64, p *phase) (map[string]float64, error) {
	q := p.quiet
	p50, err := percentile(q.lat[w.primary], 50)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":                quietSetup(setups),
		"ops_per_s":              float64(q.ops()) / q.wall.Seconds(),
		"p50_ms":                 p50,
		"server_alloc_kb_per_op": p.delta("runtime_heap_allocs_bytes_total") / 1024 / float64(p.total.ops()),
	}, nil
}

// dataRoutes are the routes whose time the stage histograms should explain.
var dataRoutes = []string{`route="/node"`, `route="/fragment"`, `route="/update"`}

// stageCoverage is Σ stage time / Σ request time over the data routes: the
// share of the server's request time its own stage accounting explains. The
// nnf and merge stages are recorded inside extract and would count twice.
func (p *phase) stageCoverage() float64 {
	var requests float64
	for _, r := range dataRoutes {
		requests += p.delta("fragserver_request_duration_seconds_sum", r)
	}
	if requests == 0 {
		return 0
	}
	const stage = "fragserver_stage_duration_seconds_sum"
	return (p.delta(stage) - p.delta(stage, `stage="nnf"`) - p.delta(stage, `stage="merge"`)) / requests
}

// orZero is a percentile that reads 0 where the samples do not support it;
// per-layer metrics carry no bound, so an unsupported one is left out
// rather than failing the run.
func orZero(samples []float64, p float64) float64 {
	v, err := percentile(samples, p)
	if err != nil {
		return 0
	}
	return v
}

// perLayerValues computes the per-layer metrics from the HTTP phase's
// counters and the traced replay's spans.
func perLayerValues(w *workload, p *phase, tr *traceResult) map[string]float64 {
	t, r := tr.t, tr.r
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0 // what a workload never reaches reads 0
	}
	for k, v := range tr.micro {
		m[k] = v
	}
	parse := t.named("turtle.parse")
	m["turtle.parse_ms"] = t.medianMS("turtle.parse")
	m["turtle.parse_triples_per_s"] = float64(parse[0].Count) / (m["turtle.parse_ms"] / 1e3)
	m["turtle.parse_delta_us"] = t.medianMS("turtle.parse_delta") * 1e3
	m["turtle.serialize_ns_per_triple"] = t.perCount("turtle.serialize_all")
	m["shaclsyn.parse_ms"] = t.medianMS("shaclsyn.parse")
	m["shaclsyn.definitions"] = float64(r.h.Len())
	m["shapelint.lint_ms"] = t.medianMS("shapelint.lint")
	m["store.load_ms"] = t.medianMS("store.load")
	m["store.apply_ms"] = t.medianMS("store.apply")
	var applyAlloc []float64
	for _, s := range t.named("store.apply") {
		applyAlloc = append(applyAlloc, float64(s.Count)/1024)
	}
	m["store.apply_alloc_kb"] = median(applyAlloc)
	m["store.samplestats_ms"] = t.medianMS("store.samplestats")
	m["rdfgraph.lookup_ns"] = t.perCount("rdfgraph.lookup_all")
	m["rdfgraph.scan_ns_per_edge"] = t.perCount("rdfgraph.scan")
	m["rdfgraph.decode_ns_per_triple"] = t.perCount("rdfgraph.decode_all")
	m["schema.validate_ms"] = t.medianMS("schema.validate")
	m["core.extract_ms"] = t.medianMS("core.extract_schema")
	m["core.cache_get_ns"] = t.perCount("core.cache_get")
	m["core.cache_carry_ms"] = t.medianMS("core.cache_carry")
	if r.entriesBefore > 0 {
		m["core.cache_carry_ratio"] = float64(r.carried) / float64(r.entriesBefore)
	}
	m["plan.planschema_ms"] = t.medianMS("plan.planschema")
	m["plan.instructions"] = float64(r.planSet.NumInstrs())
	m["plan.bind_ms"] = t.medianMS("plan.bind")
	m["plan.exec_ms"] = t.medianMS("plan.exec")
	m["contain.classes_ms"] = t.medianMS("contain.classes")
	m["contain.classes"] = float64(r.classes.NumClasses)
	m["paths.trace_ms"] = t.medianMS("paths.trace")
	m["paths.trace_triples"] = float64(t.named("paths.trace")[0].Count)
	m["live.notify_ms"] = t.medianMS("live.notify")
	if r.updates > 0 && tr.targets > 0 {
		m["live.reextract_ratio"] = float64(r.reextracted) / float64(r.updates) / float64(tr.targets)
	}
	m["fragserver.handler_node_us"] = median(tr.handler[opNode]) * 1e3
	m["fragserver.handler_fragment_ms"] = median(tr.handler[opFragment])
	m["fragserver.handler_update_ms"] = median(tr.handler[opUpdate])
	m["fragserver.self_node_us"] = median(tr.self[opNode]) * 1e3
	m["fragserver.self_fragment_ms"] = median(tr.self[opFragment])
	m["fragserver.self_update_ms"] = median(tr.self[opUpdate])

	hits, misses := p.delta("fragserver_cache_hits_total"), p.delta("fragserver_cache_misses_total")
	if hits+misses > 0 {
		m["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["core.cache_evictions_per_op"] = p.delta("fragserver_cache_evictions_total") / float64(p.total.ops())
	m["fragserver.stage_coverage"] = p.stageCoverage()
	m["fragserver.shed_total"] = p.delta("fragserver_requests_shed_total")
	m["http.loopback_us"] = (median(p.total.lat[w.primary]) - median(tr.handler[w.primary])) * 1e3
	m["http.p90_ms"] = orZero(p.quiet.lat[w.primary], 90)
	m["http.node_p99_ms"] = orZero(p.total.lat[opNode], 99)
	m["http.update_p50_ms"] = median(p.total.lat[opUpdate])
	m["http.notify_lag_p50_ms"] = median(p.total.lag)
	m["runtime.gc_cycles_per_s"] = p.delta("runtime_gc_cycles_total") / p.wall.Seconds()
	if pauses := p.delta("runtime_gc_pauses_total"); pauses > 0 {
		m["runtime.gc_pause_ms"] = p.delta("runtime_gc_pause_seconds_total") / pauses * 1e3
	}
	m["runtime.cpu_ms_per_op"] = ms(p.quiet.cpu) / float64(p.quiet.ops())
	m["runtime.rss_peak_mb"] = float64(p.rssPeak) / (1 << 20)
	return m
}
