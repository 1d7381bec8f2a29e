package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/core"
	"shaclfrag/internal/fragserver"
	"shaclfrag/internal/live"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// span is one timed call into a layer. Spans of one replayed request share
// its index; Parent is the ID of the span that caused this one (-1 for a
// root). Count is what the call handled — triples, calls, bytes — where a
// per-unit cost is derived from it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. The replay is one
// goroutine, so there is no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name,
		StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, count int64) time.Duration {
	s := &t.spans[id]
	s.EndNS, s.Count = int64(time.Since(t.t0)), count
	return time.Duration(s.EndNS - s.StartNS)
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median duration in milliseconds of the spans with the
// given name, 0 when the workload never reached that layer.
func (t *tracer) medianMS(name string) float64 {
	var d []float64
	for _, s := range t.named(name) {
		d = append(d, float64(s.EndNS-s.StartNS)/1e6)
	}
	return median(d)
}

// perCount is Σ duration / Σ count in nanoseconds over the named spans.
func (t *tracer) perCount(name string) float64 {
	var ns, n int64
	for _, s := range t.named(name) {
		ns += s.EndNS - s.StartNS
		n += s.Count
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replay re-expresses the server's routes as the sequence of public calls
// their handlers make, over a store, cache, plan set and maintainer of its
// own, so each call can sit under a span of the benchmark's. Every replayed
// body is compared with the body fragserver's own handler gives for the
// same request: that equality is what allows reading the replay's spans as
// the handler's time.
type replay struct {
	st          store.Store
	h           *schema.Schema
	names       []string
	reqs        []shape.Shape // φ ∧ τ per definition
	defShapes   []shape.Shape // φ per definition, the /node cache keys
	classShapes []shape.Shape
	cache       *core.NeighborhoodCache
	planSet     *plan.Set
	classes     contain.Classes
	live        *live.Maintainer
	x           *core.Extractor // bound to the current epoch's reader

	// Totals over the replayed updates, for the carry and re-extraction ratios.
	entriesBefore, carried, reextracted, updates int
}

// loadLayers parses the two files the server was given, one span per layer.
func loadLayers(t *tracer, parent int, data, shapes string) (*rdfgraph.Graph, *schema.Schema, error) {
	s := t.begin("turtle.parse", parent, -1)
	g, err := turtle.Parse(data)
	if err != nil {
		return nil, nil, err
	}
	t.end(s, int64(g.Len()))
	s = t.begin("shaclsyn.parse", parent, -1)
	h, err := shaclsyn.ParseSchema(shapes)
	if err != nil {
		return nil, nil, err
	}
	t.end(s, int64(h.Len()))
	s = t.begin("shapelint.lint", parent, -1)
	contain.LintMerged(h)
	t.end(s, 0)
	return g, h, nil
}

func newReplay(t *tracer, parent int, g *rdfgraph.Graph, h *schema.Schema, cacheTriples int) (*replay, error) {
	s := t.begin("store.load", parent, -1)
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		return nil, err
	}
	t.end(s, int64(g.Len()))
	r := &replay{st: st, h: h, reqs: core.SchemaRequests(h)}
	for _, d := range h.Definitions() {
		r.names = append(r.names, d.Name.Value)
		r.defShapes = append(r.defShapes, d.Shape)
	}
	r.classShapes = append(append([]shape.Shape{}, r.reqs...), r.defShapes...)
	if cacheTriples >= 0 {
		r.cache = core.NewNeighborhoodCache(cacheTriples)
	}
	r.replan(t, parent, -1, st.Current())
	r.live = live.NewMaintainer(live.Config{
		Schema: h, Requests: r.reqs, Cache: r.cache,
		Plans: func(def int) *plan.Program { return r.planSet.Programs[def] },
	}, st.Current())
	return r, nil
}

// replan is what the server does at load and after every effective update.
func (r *replay) replan(t *tracer, parent, request int, snap store.Snapshot) {
	s := t.begin("store.samplestats", parent, request)
	stats := store.SampleStats(snap)
	t.end(s, 0)
	s = t.begin("plan.planschema", parent, request)
	r.planSet = plan.PlanSchema(r.h, stats, plan.Config{}).ProgramSet()
	t.end(s, int64(r.planSet.NumInstrs()))
	s = t.begin("contain.classes", parent, request)
	r.classes = contain.ComputeClasses(r.h, r.classShapes)
	if r.cache != nil {
		r.cache.SetAliases(r.classes.Aliases(r.classShapes))
	}
	t.end(s, int64(r.classes.NumClasses))
}

func (r *replay) extractor(g rdfgraph.Reader) *core.Extractor {
	if r.x == nil || r.x.Graph() != g {
		r.x = core.NewExtractor(g, r.h)
	}
	return r.x
}

func serialize(t *tracer, parent, request int, w io.Writer, triples []rdf.Triple) {
	s := t.begin("turtle.serialize", parent, request)
	nw := turtle.NewNTriplesWriter(w)
	nw.WriteAll(triples) //nolint:errcheck — w is a bytes.Buffer
	nw.Flush()           //nolint:errcheck
	t.end(s, int64(len(triples)))
}

func (r *replay) node(t *tracer, parent, request int, focus rdf.Term, w io.Writer) {
	snap := r.st.Current()
	g := snap.Reader()
	s := t.begin("rdfgraph.lookup", parent, request)
	id := g.LookupTerm(focus)
	t.end(s, 1)
	if id == rdfgraph.NoID {
		return
	}
	x := r.extractor(g)
	s = t.begin("core.neighborhoods", parent, request)
	out := rdfgraph.NewIDTripleSet()
	for _, phi := range r.defShapes {
		out.AddAll(x.NeighborhoodIDsCached(r.cache, snap.Epoch(), id, phi))
	}
	t.end(s, int64(len(r.defShapes)))
	s = t.begin("rdfgraph.decode", parent, request)
	triples := out.Triples(g.Dict())
	t.end(s, int64(len(triples)))
	serialize(t, parent, request, w, triples)
}

func (r *replay) fragment(t *tracer, parent, request int, suffix string, w io.Writer) error {
	lo, hi := 0, len(r.reqs)
	if suffix != "" {
		i, err := defIndex(r.names, suffix)
		if err != nil {
			return err
		}
		lo, hi = i, i+1
	}
	snap := r.st.Current()
	g := snap.Reader()
	s := t.begin("core.extract", parent, request)
	triples, err := r.extractor(g).FragmentParallel(r.reqs[lo:hi], core.ParallelOptions{
		Cache: r.cache, Epoch: snap.Epoch(), Plans: &plan.Set{Programs: r.planSet.Programs[lo:hi]},
	})
	if err != nil {
		return err
	}
	t.end(s, int64(len(triples)))
	serialize(t, parent, request, w, triples)

	// The same fragment once more through the plan engine alone, bind and
	// execution apart, on one goroutine. These two spans lie outside the
	// handler-equivalent sequence above and do not count towards self time.
	if hi-lo == 1 && r.planSet.Programs[lo] != nil {
		s = t.begin("plan.bind", parent, request)
		b := r.planSet.Programs[lo].Bind(g)
		t.end(s, 0)
		s = t.begin("plan.exec", parent, request)
		out := rdfgraph.NewIDTripleSet()
		for _, v := range g.NodeIDs() {
			b.CollectInto(v, out)
		}
		t.end(s, int64(out.Len()))
		if out.Len() != len(triples) {
			return fmt.Errorf("plan.exec of %s gave %d triples, the fragment has %d", suffix, out.Len(), len(triples))
		}
	}
	return nil
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (r *replay) update(t *tracer, parent, request int, body string, del bool, w io.Writer) error {
	s := t.begin("turtle.parse_delta", parent, request)
	triples, err := turtle.ParseTriples(body)
	if err != nil {
		return err
	}
	t.end(s, int64(len(triples)))
	delta := rdfgraph.Delta{Add: triples}
	if del {
		delta = rdfgraph.Delta{Del: triples}
	}
	s = t.begin("store.apply", parent, request)
	allocs := heapAllocs()
	res := r.st.Apply(delta)
	t.end(s, int64(heapAllocs()-allocs))
	carried := 0
	if res.Changed && r.cache != nil {
		r.entriesBefore += r.cache.Stats().Entries
		s = t.begin("core.cache_carry", parent, request)
		carried = r.cache.Carry(res.Prev, res.Snapshot.Epoch(), res.Unaffected)
		t.end(s, int64(carried))
		r.carried += carried
	}
	if res.Changed {
		r.replan(t, parent, request, res.Snapshot)
		s = t.begin("live.notify", parent, request)
		ls := r.live.Notify(res, nil)
		t.end(s, int64(ls.Reextracted))
		r.reextracted += ls.Reextracted
		r.updates++
	}
	if r.cache != nil {
		r.cache.EvictBelow(res.Snapshot.Epoch())
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// Field for field the server's updateResponse.
	return enc.Encode(struct {
		Epoch   uint64 `json:"epoch"`
		Changed bool   `json:"changed"`
		Added   int    `json:"added"`
		Deleted int    `json:"deleted"`
		Carried int    `json:"carried"`
		Triples int    `json:"triples"`
	}{res.Snapshot.Epoch(), res.Changed, res.Added, res.Deleted, carried, res.Snapshot.Reader().Len()})
}

// drain keeps a subscription's queue empty so the maintainer does its full
// per-update work and never evicts the subscriber.
func drain(m *live.Maintainer, def int) (stop func(), err error) {
	sub, _, err := m.Subscribe(def, 0)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Events() {
		}
	}()
	return func() { m.Unsubscribe(sub); <-done }, nil
}

// coveredBy lists, per kind, the replay spans that re-express the handler:
// a handler span minus these is the handler's self time — routing,
// middleware, the response writer.
var coveredBy = [numKinds][]string{
	opNode:     {"rdfgraph.lookup", "core.neighborhoods", "rdfgraph.decode", "turtle.serialize"},
	opFragment: {"core.extract", "turtle.serialize"},
	opUpdate: {"turtle.parse_delta", "store.apply", "core.cache_carry", "store.samplestats",
		"plan.planschema", "contain.classes", "live.notify"},
}

// traceResult is what the traced run hands to the metric table.
type traceResult struct {
	t          *tracer
	r          *replay
	handler    [numKinds][]float64 // handler span durations, ms
	self       [numKinds][]float64 // handler minus covered replay spans, ms
	replayed   int
	mismatches int
	micro      map[string]float64
	targets    int // focus nodes of the subscribed shape
}

// runTrace loads the inputs twice — once into an in-process
// fragserver.Server, once into the replay — and sends the first client's
// round through both, request by request.
func runTrace(w *workload, sz sizes, in *inputs) (*traceResult, error) {
	t := &tracer{t0: time.Now()}
	res := &traceResult{t: t, micro: map[string]float64{}}

	root := t.begin("load", -1, -1)
	sg, sh, err := loadLayers(t, root, in.data, in.shapes)
	if err != nil {
		return nil, err
	}
	s := t.begin("fragserver.new", root, -1)
	srv, err := fragserver.New(fragserver.Config{
		Graph: sg, Schema: sh, CacheTriples: w.cache(sz),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	t.end(s, 0)
	rg, rh, err := loadLayers(t, root, in.data, in.shapes)
	if err != nil {
		return nil, err
	}
	r, err := newReplay(t, root, rg, rh, w.cache(sz))
	if err != nil {
		return nil, err
	}
	t.end(root, 0)
	res.r = r

	if in.subscribe != "" {
		def, err := defIndex(r.names, in.subscribe)
		if err != nil {
			return nil, err
		}
		for _, m := range []*live.Maintainer{srv.Live(), r.live} {
			stop, err := drain(m, def)
			if err != nil {
				return nil, err
			}
			defer stop()
		}
		ev := core.NewExtractor(r.st.Current().Reader(), r.h).Evaluator()
		res.targets = len(ev.ConformingNodes(r.h.Definitions()[def].Target))
	}

	for i := range in.round[0] {
		if err := res.replayOne(srv, &in.round[0][i]); err != nil {
			return nil, err
		}
	}
	res.layerMicro()
	return res, nil
}

// replayOne sends one request through the server's own handler and then
// through the replay, and compares the two bodies.
func (res *traceResult) replayOne(srv *fragserver.Server, q *request) error {
	t, r, n := res.t, res.r, res.replayed
	req := t.begin("request."+kindNames[q.kind], -1, n)

	hs := t.begin("fragserver.handler_"+kindNames[q.kind], req, n)
	method := "GET"
	if q.kind == opUpdate {
		method = "POST"
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, q.path, strings.NewReader(q.body)))
	handler := t.end(hs, int64(rec.Body.Len()))

	rs := t.begin("replay", req, n)
	first := len(t.spans)
	var got bytes.Buffer
	var err error
	switch q.kind {
	case opNode:
		r.node(t, rs, n, q.focus, &got)
	case opFragment:
		err = r.fragment(t, rs, n, q.shape, &got)
	case opUpdate:
		err = r.update(t, rs, n, q.body, q.del, &got)
	}
	if err != nil {
		return fmt.Errorf("replaying %s: %w", q.path, err)
	}
	t.end(rs, int64(got.Len()))
	t.end(req, 0)

	if rec.Code != 200 || !bytes.Equal(got.Bytes(), rec.Body.Bytes()) {
		res.mismatches++
	}
	var covered time.Duration
	for _, c := range t.spans[first:] {
		for _, name := range coveredBy[q.kind] {
			if c.Name == name {
				covered += time.Duration(c.EndNS - c.StartNS)
			}
		}
	}
	res.handler[q.kind] = append(res.handler[q.kind], ms(handler))
	res.self[q.kind] = append(res.self[q.kind], ms(handler-covered))
	res.replayed++
	return nil
}

// sink keeps the micro-benchmarks' results alive.
var sink int

// countWriter counts bytes and discards them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// layerMicro times the layers that a request only touches in passing, each
// over the whole of the workload's graph and schema: index reads, decode,
// serialization, validation, uncached extraction, a warm cache and path
// tracing.
func (res *traceResult) layerMicro() {
	t, r := res.t, res.r
	g := r.st.Current().Reader()
	root := t.begin("micro", -1, -1)
	// Each section starts from a collected heap, so one section's garbage is
	// not collected on the next one's time.
	section := func(name string) int {
		runtime.GC()
		return t.begin(name, root, -1)
	}

	nodes := g.NodeIDs()
	terms := make([]rdf.Term, len(nodes))
	for i, id := range nodes {
		terms[i] = g.Term(id)
	}
	s := section("rdfgraph.lookup_all")
	for _, term := range terms {
		sink += int(g.LookupTerm(term))
	}
	t.end(s, int64(len(terms)))

	s = section("rdfgraph.scan")
	edges := 0
	for _, id := range nodes {
		g.PredicatesFrom(id, func(p, o rdfgraph.ID) { edges++ })
	}
	t.end(s, int64(edges))

	all := rdfgraph.NewIDTripleSet()
	g.EachTriple(func(s, p, o rdfgraph.ID) { all.Add(rdfgraph.IDTriple{S: s, P: p, O: o}) })
	s = section("rdfgraph.decode_all")
	triples := all.Triples(g.Dict())
	t.end(s, int64(len(triples)))

	var cw countWriter
	s = section("turtle.serialize_all")
	nw := turtle.NewNTriplesWriter(&cw)
	nw.WriteAll(triples) //nolint:errcheck — countWriter cannot fail
	nw.Flush()           //nolint:errcheck
	d := t.end(s, int64(len(triples)))
	res.micro["turtle.serialize_mb_per_s"] = float64(cw.n) / 1e6 / d.Seconds()

	s = section("schema.validate")
	report := r.h.ValidateWith(core.NewExtractor(g, r.h).Evaluator())
	validate := t.end(s, int64(report.TargetedNodes))

	s = section("core.extract_schema")
	frag, _ := core.NewExtractor(g, r.h).FragmentParallel(r.reqs, core.ParallelOptions{Plans: r.planSet})
	extract := t.end(s, int64(len(frag)))
	res.micro["core.extract_over_validate"] = extract.Seconds() / validate.Seconds()

	// A warm cache: fill it for a few hundred nodes, then time the hits.
	cache := core.NewNeighborhoodCache(0)
	x := core.NewExtractor(g, r.h)
	sample := nodes[:min(len(nodes), 200)]
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			s = section("core.cache_get")
		}
		for _, id := range sample {
			for _, phi := range r.defShapes {
				sink += len(x.NeighborhoodIDsCached(cache, 0, id, phi))
			}
		}
	}
	t.end(s, int64(len(sample)*len(r.defShapes)))

	// Every path of the compiled plans that is more than one property,
	// traced from every node to everything it reaches.
	s = section("paths.trace")
	seen := map[string]bool{}
	traced := 0
	for _, p := range r.planSet.Programs {
		if p == nil {
			continue
		}
		for _, e := range p.Paths {
			if _, plain := e.(paths.Prop); plain || seen[e.String()] {
				continue
			}
			seen[e.String()] = true
			ev := paths.NewEvaluator(e, g)
			for _, a := range nodes {
				if targets := ev.Eval(a); len(targets) > 0 {
					traced += len(ev.TraceUnionIDs(a, targets))
				}
			}
		}
	}
	t.end(s, int64(traced))
	t.end(root, 0)
}
