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
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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
// whole benchmark schema: bind+extract is what a served request pays per
// program — a bind from the program's pool (its resolution for the
// dictionary kept, its rows reused), extraction, and a release back to the
// pool — and steady-state re-extracts on bounds held across iterations,
// memo and visited pages already taken: the approaches-zero-allocs
// regime the plan design targets.
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
				bd.Release()
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
// compiled instruction plan the serving path binds.
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
}

// BenchmarkTracedExtraction prices the span tree against extraction without
// one on the identical workload: off passes a nil span (what the CLI and the
// serving benchmark's replay do — every span call must compile to a
// nil-check), on roots a fresh SpanTrace per op as the server does for every
// request, so the delta is the full cost of growing and timing the request's
// span tree. That the plumbing costs nothing when no span is handed down is
// gated by TestSpanNilSafety (internal/obs): no Span method allocates on a
// nil receiver.
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

// BenchmarkScale10M is the scale acceptance run: a 10M-triple synthetic
// graph streamed into rdfgraph.New (load sub-benchmark, reporting
// triples/s and the heap in use once loaded), made a store's first epoch
// and served from it (extract: one-shape whole-graph extraction per op at
// two workers — the full 57-shape suite at 10M triples is hours per op).
// Gated behind SHACLFRAG_SCALE_10M=1: it needs more memory than a small
// machine has and tens of minutes. `make bench-scale-10m` runs it and
// snapshots the result.
func BenchmarkScale10M(b *testing.B) {
	if os.Getenv("SHACLFRAG_SCALE_10M") != "1" {
		b.Skip("set SHACLFRAG_SCALE_10M=1 to run the 10M-triple scale benchmarks")
	}
	const target = 10_000_000
	individuals := datagen.IndividualsForTriples(target)
	h := schema.MustNew(datagen.BenchmarkShapes()[:1]...)
	requests := core.SchemaRequests(h)
	load := func() *rdfgraph.Graph {
		g := rdfgraph.New()
		datagen.TyrolStream(datagen.TyrolConfig{Individuals: individuals, Seed: 1},
			func(t rdf.Triple) { g.Add(t) })
		if g.Len() < target*97/100 {
			b.Fatalf("loaded only %d triples", g.Len())
		}
		return g
	}

	b.Run("load", func(b *testing.B) {
		var g *rdfgraph.Graph
		for i := 0; i < b.N; i++ {
			g = nil // the previous graph is garbage before the next load
			g = load()
		}
		b.ReportMetric(float64(g.Len())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap-MiB")
	})

	g := load()
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("extract", func(b *testing.B) {
		r := st.Current().Reader()
		var triples int
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

// BenchmarkContainment measures the static containment analysis that
// backs cache sharing, schema diffing and the subsumption lints: building
// a checker and answering every pairwise Contains question over a schema,
// plus the equivalence-class computation fragserver runs once at load.
// classes/<schema> sizes it over the request shapes alone; classes/served57
// is the list fragserver.New passes when it serves the benchmark schema
// from Turtle, as bench/ and `fragserver -shapes` do: named property shapes
// make it 183 definition shapes, in 104 classes.
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
	var shapes []shape.Shape
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
// With no subscription no fragment is materialized, so that case times
// Store.Apply plus a Notify with nothing to maintain, and is named for it:
// empty-notify.
// heap-MB reports the post-run live heap — the materialized fragment,
// replay rings and queues must stay bounded as subscriptions scale to
// 1000+. The giant cases are the write path as served: a Review wired into
// the typed component (one weakly-connected component), added and deleted
// through POST /update on Server.Handler() with one subscriber on S51.
// giant runs on Tyrol(1000); giant10k on the serving benchmark's
// update-mix graph, Tyrol(10 000) with seed 1 and the served schema.
// giant10k-star subscribes S57 instead, a star path live keeps without
// support counts, and toggles knows and worksFor edges.
func BenchmarkLiveUpdates(b *testing.B) {
	hot := rdf.NewIRI("http://live.example/hot")
	vi := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://live.example/v%d", i)) }
	for _, subs := range []int{0, 100, 1000} {
		name := fmt.Sprintf("subs=%d", subs)
		if subs == 0 {
			name = "empty-notify"
		}
		b.Run(name, func(b *testing.B) {
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

	review := rdf.NewIRI(datagen.NS + "review/bench")
	addReview := []rdf.Triple{
		rdf.T(review, rdf.NewIRI(rdf.RDFType), datagen.ClassReview),
		rdf.T(review, rdf.NewIRI(datagen.PropRating), rdf.NewInteger(4)),
		rdf.T(review, rdf.NewIRI(datagen.PropAuthor), rdf.NewIRI(datagen.NS+"person/0")),
		rdf.T(review, rdf.NewIRI(datagen.PropText), rdf.NewLangString("bench review", "en")),
		rdf.T(rdf.NewIRI(datagen.NS+"lodging/0"), rdf.NewIRI(datagen.PropReview), review),
	}
	// S57 is ≥1 knows*.(≥1 worksFor.⊤) on persons: its neighborhoods are
	// whole forward knows subgraphs, and a knows edge into person/0 reaches
	// every person that reaches person/0.
	person := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%sperson/%d", datagen.NS, i)) }
	addKnows := []rdf.Triple{
		rdf.T(person(1), rdf.NewIRI(datagen.PropKnows), person(0)),
		rdf.T(person(0), rdf.NewIRI(datagen.PropWorksFor), rdf.NewIRI(datagen.NS+"org/bench")),
	}
	b.Run("giant", func(b *testing.B) {
		benchLiveGiant(b, tyrolGraph(1000), datagen.BenchmarkSchema(), 50, addReview, 0)
	})
	b.Run("giant10k", func(b *testing.B) {
		g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 10000, Seed: 1})
		benchLiveGiant(b, g, servedBenchmarkSchema(b), 50, addReview, 0)
	})
	b.Run("giant10k-reads", func(b *testing.B) {
		g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 10000, Seed: 1})
		benchLiveGiant(b, g, servedBenchmarkSchema(b), 50, addReview, 20)
	})
	b.Run("giant10k-star", func(b *testing.B) {
		g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 10000, Seed: 1})
		benchLiveGiant(b, g, servedBenchmarkSchema(b), 56, addKnows, 0)
	})
}

// benchLiveGiant is one giant case of BenchmarkLiveUpdates: an add and a
// delete of update through POST /update, alternating, with a subscriber
// on definition def draining its stream. It reports the foci live
// re-extracts per update and what the untimed first Subscribe, which
// materializes def, took. With reads > 0 every update is followed
// by that many GET /node requests drawn like the serving benchmark's
// update-mix draws them — Zipf over 2 000 typed individuals, the cache
// warmed by 2 000 such reads first — and the case reports the hit ratio of
// the timed reads and the share of cache entries updates kept valid.
func benchLiveGiant(b *testing.B, g *rdfgraph.Graph, h *schema.Schema, def int, update []rdf.Triple, reads int) {
	srv, err := fragserver.New(fragserver.Config{
		Graph: g, Schema: h,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	sub, _, err := srv.Live().Subscribe(def, 0)
	subscribe := time.Since(begin)
	runtime.ReadMemStats(&after)
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
	body := turtle.FormatNTriples(update)
	var draw func() string
	if reads > 0 {
		draw = updateMixDraws(g)
		for i := 0; i < 2000; i++ {
			serveNode(b, srv, draw())
		}
	}
	cacheStat := func(name string) float64 {
		v, _ := srv.Metrics().Snapshot()[name].(float64)
		return v
	}
	hits, misses := cacheStat("fragserver_cache_hits_total"), cacheStat("fragserver_cache_misses_total")
	foci := srv.Live().Stats().Reextracted
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
		for r := 0; r < reads; r++ {
			serveNode(b, srv, draw())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
	b.ReportMetric(float64(srv.Live().Stats().Reextracted-foci)/float64(b.N), "foci/update")
	b.ReportMetric(subscribe.Seconds()*1e3, "subscribe-ms")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024, "subscribe-kB")
	if reads > 0 {
		hits, misses = cacheStat("fragserver_cache_hits_total")-hits, cacheStat("fragserver_cache_misses_total")-misses
		b.ReportMetric(hits/(hits+misses), "hit-ratio")
		if kept, invalidated := cacheStat("fragserver_cache_kept_total"), cacheStat("fragserver_cache_invalidated_total"); kept+invalidated > 0 {
			b.ReportMetric(kept/(kept+invalidated), "kept-ratio")
		}
	}
	srv.Live().Drain()
	wg.Wait()
}

// updateMixDraws returns a generator of /node targets drawn as the serving
// benchmark's update-mix draws them at seed 1: Zipf(s 1.1, v 10) over 2 000
// subjects of rdf:type triples, shuffled by the same seeded source.
func updateMixDraws(g *rdfgraph.Graph) func() string {
	typ := g.LookupTerm(rdf.NewIRI(rdf.RDFType))
	seen := map[rdfgraph.ID]bool{}
	var pop []rdf.Term
	for _, e := range g.EdgesByPredicate(typ) {
		if !seen[e.S] {
			seen[e.S] = true
			pop = append(pop, g.Term(e.S))
		}
	}
	sort.Slice(pop, func(i, j int) bool { return rdf.Compare(pop[i], pop[j]) < 0 })
	rng := rand.New(rand.NewSource(1*7919 + 3))
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	pop = pop[:min(2000, len(pop))]
	z := rand.NewZipf(rng, 1.1, 10, uint64(len(pop)-1))
	return func() string { return "/node?iri=" + url.QueryEscape(pop[z.Uint64()].String()) }
}

// serveNode serves one GET through srv's handler and fails b on a non-200.
func serveNode(b *testing.B, srv *fragserver.Server, target string) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s: %d", target, rec.Code)
	}
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
	return servedSchema(b, datagen.BenchmarkSchema())
}

// servedSchema is h as cmd/fragserver sees it: written out as SHACL and
// parsed back.
func servedSchema(b *testing.B, h *schema.Schema) *schema.Schema {
	shapes, err := shaclsyn.Format(h)
	if err != nil {
		b.Fatal(err)
	}
	served, err := shaclsyn.ParseSchema(shapes)
	if err != nil {
		b.Fatal(err)
	}
	return served
}

// benchServe drives every target, in order, through Server.Handler() of a
// server built from cfg per iteration, after one untimed pass that warms
// the neighborhood cache and the pools.
func benchServe(b *testing.B, cfg fragserver.Config, targets ...string) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := fragserver.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*http.Request, len(targets))
	for i, target := range targets {
		reqs[i] = httptest.NewRequest("GET", target, nil)
	}
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Triple-Count") == "0" {
			b.Fatalf("GET %s: %d, %s triples", req.URL, rec.Code, rec.Header().Get("X-Triple-Count"))
		}
	}
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			clear(w.h)
			srv.Handler().ServeHTTP(w, req)
		}
	}
}

// BenchmarkDictRank prices the term ranking a root dictionary's Freeze
// does at load, on the serving benchmark's Tyrol 10 000 (38 997 terms):
// the graph is generated afresh per iteration, outside the timer.
func BenchmarkDictRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := tyrolGraph(10000)
		b.StartTimer()
		g.Freeze()
	}
}

// BenchmarkServeNodeWarm is the node-hot request in process: GET /node over
// every definition for one focus node of Tyrol 10000, every lookup a cache
// hit. What is left is middleware, sort and N-Triples encoding.
func BenchmarkServeNodeWarm(b *testing.B) {
	benchServe(b, fragserver.Config{Graph: tyrolGraph(10000), Schema: servedBenchmarkSchema(b)},
		"/node?iri="+url.QueryEscape("<"+datagen.NS+"lodging/0>"))
}

// BenchmarkServeFragmentShape is one shape-scan request in process: a
// one-shape GET /fragment on Tyrol 1500 (the route reads no cache; its
// per-worker sets and sort buffer are pooled by the first request).
func BenchmarkServeFragmentShape(b *testing.B) {
	benchServe(b, fragserver.Config{Graph: tyrolGraph(1500), Schema: servedBenchmarkSchema(b)}, "/fragment?shape=S01")
}

// BenchmarkServeFragmentSweep is one shape-scan round in process: the 57
// one-shape GET /fragments, S01 to S57, on Tyrol 1500 with the serving
// benchmark's 15 000-triple cache budget. One op is the whole sweep.
func BenchmarkServeFragmentSweep(b *testing.B) {
	targets := make([]string, len(datagen.BenchmarkShapes()))
	for i := range targets {
		targets[i] = fmt.Sprintf("/fragment?shape=S%02d", i+1)
	}
	benchServe(b, fragserver.Config{
		Graph: tyrolGraph(1500), Schema: servedBenchmarkSchema(b), CacheTriples: 15000,
	}, targets...)
}

// BenchmarkServeHubFragment is the hub-path request in process: GET
// /fragment of the Fig 3 distance-3 hub shape targeting the objects of
// authoredBy, on 250 papers from 2014, with the cache off.
func BenchmarkServeHubFragment(b *testing.B) {
	h := schema.MustNew(schema.Definition{
		Name:   rdf.NewIRI(datagen.NS + "shape/Hub"),
		Shape:  datagen.HubDistance3Shape(),
		Target: schema.TargetObjectsOf(datagen.PropAuthoredBy),
	})
	benchServe(b, fragserver.Config{
		Graph:        datagen.NewCoauthor(datagen.CoauthorConfig{Papers: 250, Seed: 1}).Graph(2014),
		Schema:       servedSchema(b, h),
		CacheTriples: -1,
	}, "/fragment?shape=Hub")
}
