// Benchmarks regenerating the paper's evaluation artifacts in testing.B
// form. Each figure/table of the evaluation section has a corresponding
// bench; `cmd/paperbench` prints the same series as human-readable tables.
//
//	Figure 1  → BenchmarkFig1Validation / BenchmarkFig1Extraction
//	Figure 2  → BenchmarkFig2SPARQLProvenance
//	Figure 3  → BenchmarkFig3HubDistance3
//	§4.1      → BenchmarkTabQueriesFragments
//	Prop 6.2  → BenchmarkTabTPF
//
// The Ablation benches quantify the design choices DESIGN.md calls out:
// direct extraction vs. SPARQL translation, and NFA product tracing on
// atomic vs. star paths.
package shaclfrag_test

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	shaclfrag "shaclfrag"
	"shaclfrag/internal/contain"
	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/fragserver"
	"shaclfrag/internal/live"
	"shaclfrag/internal/obs"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/sparql"
	"shaclfrag/internal/sparqltrans"
	"shaclfrag/internal/store"
	"shaclfrag/internal/tpf"
	"shaclfrag/internal/turtle"
	"shaclfrag/internal/validator"
)

// benchSizes are the individuals counts for the Figure 1/2 size sweeps,
// scaled to keep `go test -bench=.` in the minutes range.
var benchSizes = []int{500, 1000, 2000}

func tyrolGraph(individuals int) *rdfgraph.Graph {
	return datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 42})
}

// BenchmarkFig1Validation is the Figure 1 baseline: validation alone, over
// the whole 57-shape suite.
func BenchmarkFig1Validation(b *testing.B) {
	defs := datagen.BenchmarkShapes()
	for _, size := range benchSizes {
		g := tyrolGraph(size)
		b.Run(fmt.Sprintf("triples=%d", g.Len()), func(b *testing.B) {
			h := schema.MustNew(defs...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				validator.Validate(g, h, validator.Options{})
			}
		})
	}
}

// BenchmarkFig1Extraction is Figure 1's instrumented run: validation plus
// neighborhood extraction for every conforming focus node. The overhead is
// the gap to BenchmarkFig1Validation.
func BenchmarkFig1Extraction(b *testing.B) {
	defs := datagen.BenchmarkShapes()
	for _, size := range benchSizes {
		g := tyrolGraph(size)
		b.Run(fmt.Sprintf("triples=%d", g.Len()), func(b *testing.B) {
			h := schema.MustNew(defs...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				validator.Validate(g, h, validator.Options{CollectProvenance: true})
			}
		})
	}
}

// BenchmarkFig2SPARQLProvenance computes shape fragments through the SPARQL
// translation (Proposition 5.3 / Corollary 5.5) for a cross-section of the
// benchmark shapes, as in Figure 2.
func BenchmarkFig2SPARQLProvenance(b *testing.B) {
	defs := datagen.BenchmarkShapes()
	indices := []int{0, 7, 30, 46}
	for _, size := range benchSizes[:2] {
		g := tyrolGraph(size)
		for _, i := range indices {
			d := defs[i]
			request := shape.AndOf(d.Shape, d.Target)
			b.Run(fmt.Sprintf("shape=S%02d/triples=%d", i+1, g.Len()), func(b *testing.B) {
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					tr := sparqltrans.New(nil)
					op := tr.FragmentQuery([]shape.Shape{request}, "s", "p", "o")
					sparql.Select(op, g, "s", "p", "o")
				}
			})
		}
	}
}

// BenchmarkFig3HubDistance3 runs the Figure 3 analytic query over growing
// coauthorship slices, with all three computation strategies: the AST
// walker, the SPARQL translation, and the compiled instruction plan.
func BenchmarkFig3HubDistance3(b *testing.B) {
	corpus := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: 1200, Seed: 42})
	request := datagen.HubDistance3Shape()
	for _, since := range []int{2020, 2017, 2014} {
		g := corpus.Graph(since)
		b.Run(fmt.Sprintf("direct/since=%d/triples=%d", since, g.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewExtractor(g, nil).Fragment([]shape.Shape{request})
			}
		})
		b.Run(fmt.Sprintf("sparql/since=%d/triples=%d", since, g.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := sparqltrans.New(nil)
				op := tr.FragmentQuery([]shape.Shape{request}, "s", "p", "o")
				sparql.Select(op, g, "s", "p", "o")
			}
		})
		b.Run(fmt.Sprintf("plan/since=%d/triples=%d", since, g.Len()), func(b *testing.B) {
			prog := plan.Compile(request, nil) // once per schema in production
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd := prog.Bind(g)
				out := rdfgraph.NewIDTripleSet()
				bd.CollectAllInto(g.NodeIDs(), out) // as the server does: a set, then Release
				bd.Release()
				out.Triples(g.Dict())
			}
		})
	}
}

// BenchmarkHubFragmentCold is the serving benchmark's hub-path request in
// process: one cold Figure 3 fragment over the 250-paper corpus since
// 2014 (561 triples), target objects-of-authoredBy, compiled once, bound,
// extracted as one source set and released per iteration. internal/plan's TestHubTraceAllocs gates the
// allocs/op of exactly this loop.
func BenchmarkHubFragmentCold(b *testing.B) {
	g := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: 250, Seed: 1}).Graph(2014)
	request := shape.AndOf(datagen.HubDistance3Shape(), schema.TargetObjectsOf(datagen.PropAuthoredBy))
	prog := plan.Compile(request, nil)
	nodes := g.NodeIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := prog.Bind(g)
		out := rdfgraph.NewIDTripleSet()
		bd.CollectAllInto(nodes, out)
		bd.Release()
	}
}

// BenchmarkPlanExtraction isolates the compiled-plan extractor on the
// whole benchmark schema: bind+extract is the cold path a fresh epoch
// pays, steady-state re-extracts with dense memo and visited rows already
// allocated — the approaches-zero-allocs regime the plan design targets.
func BenchmarkPlanExtraction(b *testing.B) {
	g := tyrolGraph(1000)
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	store.WarmDictionary(g, h)
	g.Freeze()
	requests := core.SchemaRequests(h)
	plans := plan.CompileAll(requests, h)
	nodes := g.NodeIDs()

	b.Run("bind+extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := rdfgraph.NewIDTripleSet()
			for _, p := range plans.Programs {
				bd := p.Bind(g)
				for _, v := range nodes {
					bd.CollectInto(v, out)
				}
			}
			out.Triples(g.Dict())
		}
	})
	b.Run("steady-state", func(b *testing.B) {
		bounds := make([]*plan.Bound, len(plans.Programs))
		out := rdfgraph.NewIDTripleSet()
		for i, p := range plans.Programs {
			bounds[i] = p.Bind(g)
			for _, v := range nodes {
				bounds[i].CollectInto(v, out) // warm rows and accumulator
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, bd := range bounds {
				bd.ResetVisited()
				for _, v := range nodes {
					bd.CollectInto(v, out)
				}
			}
		}
	})
}

// BenchmarkTabQueriesFragments evaluates every expressible benchmark query
// of the §4.1 study as a shape fragment.
func BenchmarkTabQueriesFragments(b *testing.B) {
	g := tyrolGraph(500)
	queries := datagen.BenchmarkQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := core.NewExtractor(g, nil)
		for _, q := range queries {
			if q.Expressible {
				x.Fragment([]shape.Shape{q.Request})
			}
		}
	}
}

// BenchmarkTabTPF compares a raw triple-pattern scan against the equivalent
// shape fragment (Proposition 6.2).
func BenchmarkTabTPF(b *testing.B) {
	g := tyrolGraph(1000)
	pattern := tpf.Pattern{
		S: tpf.V("x"),
		P: tpf.C(shaclfrag.IRI(datagen.PropName)),
		O: tpf.V("y"),
	}
	phi, ok := pattern.RequestShape()
	if !ok {
		b.Fatal("pattern must be expressible")
	}
	b.Run("tpf-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pattern.Eval(g)
		}
	})
	b.Run("shape-fragment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewExtractor(g, nil).Fragment([]shape.Shape{phi})
		}
	})
}

// BenchmarkAblationStrategies compares the neighborhood computation
// strategies head-to-head on one shape: the two of Section 5 plus the
// compiled instruction plan the strategy planner routes to.
func BenchmarkAblationStrategies(b *testing.B) {
	g := tyrolGraph(1000)
	defs := datagen.BenchmarkShapes()
	request := shape.AndOf(defs[0].Shape, defs[0].Target)
	b.Run("direct-extractor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewExtractor(g, nil).Fragment([]shape.Shape{request})
		}
	})
	b.Run("sparql-translation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := sparqltrans.New(nil)
			op := tr.FragmentQuery([]shape.Shape{request}, "s", "p", "o")
			sparql.Select(op, g, "s", "p", "o")
		}
	})
	b.Run("compiled-plan", func(b *testing.B) {
		prog := plan.Compile(request, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bd := prog.Bind(g)
			out := rdfgraph.NewIDTripleSet()
			for _, v := range g.NodeIDs() {
				bd.CollectInto(v, out)
			}
			out.Triples(g.Dict())
		}
	})
}

// BenchmarkAblationPathTracing isolates graph(paths(E,G,a,b)) computation:
// the atomic fast path versus the product-automaton search on star paths.
func BenchmarkAblationPathTracing(b *testing.B) {
	g := tyrolGraph(1000)
	sources := g.NodeIDs()
	if len(sources) > 200 {
		sources = sources[:200]
	}
	run := func(b *testing.B, e paths.Expr) {
		for i := 0; i < b.N; i++ {
			ev := paths.NewEvaluator(e, g)
			for _, s := range sources {
				targets := ev.Eval(s)
				ev.TraceUnionIDs(s, targets)
			}
		}
	}
	b.Run("atomic", func(b *testing.B) {
		run(b, paths.P(datagen.PropKnows))
	})
	b.Run("star", func(b *testing.B) {
		run(b, paths.Star{X: paths.P(datagen.PropKnows)})
	})
	b.Run("sequence-star", func(b *testing.B) {
		run(b, paths.SeqOf(paths.P(datagen.PropInDistrict),
			paths.Star{X: paths.P(datagen.PropInDistrict)}))
	})
}

// BenchmarkFragmentParallel compares serial Fragment against
// FragmentParallel at increasing worker counts, over the whole benchmark
// schema. The serial baseline uses the same extractor entry point the
// fragserver subsystem did before parallelization; speedups materialize on
// multi-core hosts (workers beyond GOMAXPROCS only add coordination cost).
func BenchmarkFragmentParallel(b *testing.B) {
	g := tyrolGraph(1000)
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	requests := core.SchemaRequests(h)
	g.Freeze() // serving configuration: immutable graph shared by workers

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewExtractor(g, h).Fragment(requests)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewExtractor(g, h).FragmentParallel(requests,
					core.ParallelOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("workers=4/cached", func(b *testing.B) {
		cache := core.NewNeighborhoodCache(1 << 22)
		opts := core.ParallelOptions{Workers: 4, Cache: cache}
		if _, err := core.NewExtractor(g, h).FragmentParallel(requests, opts); err != nil {
			b.Fatal(err) // warm the cache before timing
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewExtractor(g, h).FragmentParallel(requests, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracedExtraction prices the span tree against extraction without
// one on the identical workload: off passes a nil span (what the CLI and the
// serving benchmark's replay do — every span call must compile to a
// nil-check), on roots a fresh SpanTrace per op as the server does for every
// request, so the delta is the full cost of growing and timing the request's
// span tree. check.sh separately gates that the off variant's allocs/op
// match BenchmarkFragmentParallel's — the plumbing must cost nothing when
// no span is handed down.
func BenchmarkTracedExtraction(b *testing.B) {
	g := tyrolGraph(1000)
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	requests := core.SchemaRequests(h)
	g.Freeze()

	b.Run("trace=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewExtractor(g, h).FragmentParallel(requests,
				core.ParallelOptions{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace=on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trace := obs.NewSpanTrace("bench", obs.SpanContext{})
			if _, err := core.NewExtractor(g, h).FragmentParallel(requests,
				core.ParallelOptions{Workers: 4, Span: trace.Root()}); err != nil {
				b.Fatal(err)
			}
			trace.Root().End()
		}
	})
}

// BenchmarkWhyNot measures why-not provenance extraction across a whole
// violation report (Remark 3.7).
func BenchmarkWhyNot(b *testing.B) {
	g := tyrolGraph(500)
	defs := datagen.BenchmarkShapes()
	h := schema.MustNew(defs...)
	report := h.Validate(g)
	violations := report.Violations()
	if len(violations) == 0 {
		b.Fatal("expected violations")
	}
	byName := map[string]schema.Definition{}
	for _, d := range defs {
		byName[d.Name.Value] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := core.NewExtractor(g, h)
		for _, v := range violations {
			d := byName[v.ShapeName.Value]
			x.WhyNot(v.Focus, shape.AndOf(d.Shape, d.Target))
		}
	}
}

// BenchmarkFragmentSharded sweeps the store tier's shard counts: the same
// whole-schema extraction as BenchmarkFragmentParallel, read through the
// store so that several shards switch FragmentParallel to scatter-gather
// scheduling. One shard is the baseline; the sweep's value on a one-core
// runner is the scheduling overhead (shard partitioning cannot buy
// parallel speedup without cores), on a multicore one the scaling curve.
func BenchmarkFragmentSharded(b *testing.B) {
	h := schema.MustNew(datagen.BenchmarkShapes()...)
	requests := core.SchemaRequests(h)
	build := func(cfg store.Config) store.Store {
		g := tyrolGraph(1000)
		store.WarmDictionary(g, h)
		st, err := store.New(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	run := func(b *testing.B, st store.Store) {
		r := st.Current().Reader()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewExtractor(r, h).FragmentParallel(requests,
				core.ParallelOptions{Workers: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			run(b, build(store.Config{Shards: shards}))
		})
	}
}

// BenchmarkSharded10M is the scale acceptance run behind the committed
// trajectory snapshots: a 10M-triple synthetic graph streamed into the
// store (load sub-benchmark, reporting triples/s) and served
// from it (extract sub-benchmarks at 1, 4 and 16 shards, one-shape
// whole-graph extraction per op — the full 57-shape suite at 10M triples
// is hours per op and adds nothing to the shard comparison). Gated
// behind SHACLFRAG_SCALE_10M=1: a full run needs ~15 GiB of heap and tens
// of minutes. `make bench-sharded-10m` runs it and snapshots the result.
func BenchmarkSharded10M(b *testing.B) {
	if os.Getenv("SHACLFRAG_SCALE_10M") != "1" {
		b.Skip("set SHACLFRAG_SCALE_10M=1 to run the 10M-triple scale benchmarks")
	}
	const target = 10_000_000
	individuals := datagen.IndividualsForTriples(target)
	h := schema.MustNew(datagen.BenchmarkShapes()[:1]...)
	requests := core.SchemaRequests(h)

	b.Run("load/shards=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loader, err := store.NewLoader(store.Config{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			datagen.TyrolStream(datagen.TyrolConfig{Individuals: individuals, Seed: 1},
				func(t rdf.Triple) { loader.Add(t) })
			if loader.Len() < target*97/100 {
				b.Fatalf("loaded only %d triples", loader.Len())
			}
			b.ReportMetric(float64(loader.Len())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		}
	})

	// One shared base graph: one shard adopts it, the others repartition it
	// against the same dictionary, so the extract series differ only in the
	// shard count. Sharing is safe because no store here is ever updated.
	base := rdfgraph.New()
	datagen.TyrolStream(datagen.TyrolConfig{Individuals: individuals, Seed: 1},
		func(t rdf.Triple) { base.Add(t) })
	store.WarmDictionary(base, h)
	for _, shards := range []int{1, 4, 16} {
		st, err := store.New(base, store.Config{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("extract/shards=%d", shards), func(b *testing.B) {
			r := st.Current().Reader()
			var triples int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frag, err := core.NewExtractor(r, h).FragmentParallel(requests,
					core.ParallelOptions{Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				triples = len(frag)
			}
			b.ReportMetric(float64(r.Len())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
			b.ReportMetric(float64(triples), "frag-triples")
		})
	}
}

// BenchmarkContainment measures the static containment analysis that
// backs cache sharing, schema diffing and the subsumption lints: building
// a checker and answering every pairwise Contains question over a schema,
// plus the equivalence-class computation fragserver runs once at load.
// classes/<schema> sizes it over the request shapes alone; classes/served57
// is the list fragserver.New passes when it serves the benchmark schema
// from Turtle, as bench/ and `fragserver -shapes` do: named property shapes
// make it 183 definitions, requests + definition shapes 366 shapes in 254
// classes.
func BenchmarkContainment(b *testing.B) {
	schemas := []struct {
		name string
		defs []schema.Definition
	}{
		{"benchmark57", datagen.BenchmarkShapes()},
	}
	for _, path := range []string{"examples/shapes/tourism.ttl", "examples/shapes/workshop.ttl"} {
		src, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		h, err := shaclsyn.ParseSchema(string(src))
		if err != nil {
			b.Fatal(err)
		}
		schemas = append(schemas, struct {
			name string
			defs []schema.Definition
		}{name: pathBase(path), defs: h.Definitions()})
	}

	for _, sc := range schemas {
		h := schema.MustNew(sc.defs...)
		defs := h.Definitions()
		b.Run("pairs/"+sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := contain.New(h, h)
				n := 0
				for x := range defs {
					for y := range defs {
						if x != y && c.Contains(defs[x].Shape, defs[y].Shape) == contain.Contained {
							n++
						}
					}
				}
				_ = n
			}
		})
		requests := core.SchemaRequests(h)
		b.Run("classes/"+sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				contain.ComputeClasses(h, requests)
			}
		})
	}

	served := servedBenchmarkSchema(b)
	shapes := core.SchemaRequests(served)
	for _, d := range served.Definitions() {
		shapes = append(shapes, d.Shape)
	}
	b.Run("classes/served57", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			contain.ComputeClasses(served, shapes)
		}
	})
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

// BenchmarkLiveUpdates is the write-heavy serving benchmark behind the
// /subscribe feature: one op is one effective update (Apply + incremental
// fragment maintenance + fanout) against a Tyrol background graph, with
// the given number of open subscriptions draining their streams. The
// subs=N cases mutate a hot node detached from the Tyrol graph and call the
// maintainer directly: a best case that prices the fanout, nothing else.
// heap-MB reports the post-run live heap — the materialized fragment,
// replay rings and queues must stay bounded as subscriptions scale to
// 1000+. The giant case is the write path as served: a Review wired into
// the typed component (one weakly-connected component, so the delta
// dirties every node), added and deleted through POST /update on
// Server.Handler() with one subscriber on S51.
func BenchmarkLiveUpdates(b *testing.B) {
	hot := rdf.NewIRI("http://live.example/hot")
	vi := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://live.example/v%d", i)) }
	for _, subs := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			hasP := shape.Min(1, paths.P("http://live.example/p"), shape.TrueShape())
			h := schema.MustNew(schema.Definition{Name: rdf.NewIRI("http://live.example/S"), Shape: hasP, Target: hasP})
			g := tyrolGraph(1000)
			g.Add(rdf.Triple{S: hot, P: rdf.NewIRI("http://live.example/p"), O: vi(0)})
			store.WarmDictionary(g, h)
			st, err := store.New(g, store.Config{})
			if err != nil {
				b.Fatal(err)
			}
			m := live.NewMaintainer(live.Config{
				Schema:         h,
				Requests:       core.SchemaRequests(h),
				MaxSubscribers: subs + 1,
				Queue:          256,
			}, st.Current())
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub, _, err := m.Subscribe(0, 0)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range sub.Events() {
					}
				}()
			}
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				res := st.Apply(rdfgraph.Delta{
					Add: []rdf.Triple{{S: hot, P: rdf.NewIRI("http://live.example/p"), O: vi(i)}},
					Del: []rdf.Triple{{S: hot, P: rdf.NewIRI("http://live.example/p"), O: vi(i - 1)}},
				})
				if !res.Changed {
					b.Fatal("update was a no-op")
				}
				m.Notify(res, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
			if ev := m.Stats().Evicted; ev > 0 {
				b.ReportMetric(float64(ev), "evicted-subs")
			}
			m.Drain()
			wg.Wait()
		})
	}

	b.Run("giant", func(b *testing.B) {
		srv, err := fragserver.New(fragserver.Config{
			Graph: tyrolGraph(1000), Schema: datagen.BenchmarkSchema(),
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			b.Fatal(err)
		}
		sub, _, err := srv.Live().Subscribe(50, 0) // S51: every review is referenced
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Events() {
			}
		}()
		review := rdf.NewIRI(datagen.NS + "review/bench")
		body := turtle.FormatNTriples([]rdf.Triple{
			rdf.T(review, rdf.NewIRI(rdf.RDFType), datagen.ClassReview),
			rdf.T(review, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(4)),
			rdf.T(review, rdf.NewIRI(datagen.PropAuthor), rdf.NewIRI(datagen.NS+"person/0")),
			rdf.T(review, rdf.NewIRI(datagen.PropText), rdf.NewLangString("bench review", "en")),
			rdf.T(rdf.NewIRI(datagen.NS+"lodging/0"), rdf.NewIRI(datagen.PropReview), review),
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := "/update"
			if i%2 == 1 {
				target = "/update?op=delete"
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"changed":true`) {
				b.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		srv.Live().Drain()
		wg.Wait()
	})
}

// discardResponse is an http.ResponseWriter that keeps nothing, so the
// serve benchmarks measure the handler, not a recorder's buffer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// servedBenchmarkSchema is the benchmark schema as cmd/fragserver sees it:
// written out as SHACL and parsed back, which names the nested shapes.
func servedBenchmarkSchema(b *testing.B) *schema.Schema {
	shapes, err := shaclsyn.Format(datagen.BenchmarkSchema())
	if err != nil {
		b.Fatal(err)
	}
	h, err := shaclsyn.ParseSchema(shapes)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// benchServe drives one GET through Server.Handler() per iteration, the
// neighborhood cache warm, over the served benchmark schema.
func benchServe(b *testing.B, individuals int, target string) {
	srv, err := fragserver.New(fragserver.Config{
		Graph: tyrolGraph(individuals), Schema: servedBenchmarkSchema(b),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", target, nil)
	w := &discardResponse{h: http.Header{}}
	srv.Handler().ServeHTTP(w, req) // fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		srv.Handler().ServeHTTP(w, req)
	}
}

// BenchmarkServeNodeWarm is the node-hot request in process: GET /node over
// every definition for one focus node of Tyrol 10000, every lookup a cache
// hit. What is left is middleware, sort and N-Triples encoding.
func BenchmarkServeNodeWarm(b *testing.B) {
	benchServe(b, 10000, "/node?iri="+url.QueryEscape("<"+datagen.NS+"lodging/0>"))
}

// BenchmarkServeFragmentShape is one shape-scan request in process: a
// one-shape GET /fragment on Tyrol 1500 with its neighborhoods cached.
func BenchmarkServeFragmentShape(b *testing.B) {
	benchServe(b, 1500, "/fragment?shape=S01")
}
