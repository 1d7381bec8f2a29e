package plan_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// parityCase is one (data graph, schema) pair whose whole-schema fragment
// must come out byte-identical from plan-based and AST-based extraction.
type parityCase struct {
	name string
	g    *rdfgraph.Graph
	h    *schema.Schema
}

// exampleParityCases loads every schema under examples/shapes against the
// example tourism data, plus a synthetic graph under the benchmark shapes —
// the same corpus the sharded-store parity suite gates on.
func exampleParityCases(t *testing.T) []parityCase {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "data", "tourism.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	shapeFiles, err := filepath.Glob(filepath.Join("..", "..", "examples", "shapes", "*.ttl"))
	if err != nil || len(shapeFiles) == 0 {
		t.Fatalf("no example schemas found: %v", err)
	}
	var cases []parityCase
	for _, sf := range shapeFiles {
		src, err := os.ReadFile(sf)
		if err != nil {
			t.Fatal(err)
		}
		h, err := shaclsyn.ParseSchema(string(src))
		if err != nil {
			t.Fatalf("%s: %v", sf, err)
		}
		g, err := turtle.Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, parityCase{name: filepath.Base(sf), g: g, h: h})
	}
	cases = append(cases, parityCase{
		name: "datagen",
		g:    datagen.Tyrol(datagen.TyrolConfig{Individuals: 250, Seed: 11}),
		h:    schema.MustNew(datagen.BenchmarkShapes()...),
	})
	// The shapes the set form has cases of its own for (plan_test.go), each
	// under two targets: without a cache a work unit is a source set, and
	// its size follows shards and workers.
	rng := rand.New(rand.NewSource(17))
	var defs []schema.Definition
	for i, phi := range setShapes(rng) {
		target := schema.TargetSubjectsOf(shapetest.Base + "p")
		if i%2 == 1 {
			target = schema.TargetObjectsOf(shapetest.Base + "q")
		}
		defs = append(defs, schema.Definition{Name: shapetest.IRI(fmt.Sprint("Set", i)), Shape: phi, Target: target})
	}
	cases = append(cases, parityCase{name: "setshapes", g: shapetest.RandomGraph(rng, 150), h: schema.MustNew(defs...)})
	return cases
}

// TestPlanFragmentParity is the tentpole acceptance gate: Frag(G, H)
// extracted by compiled plans through FragmentParallel is byte-identical
// to the AST extractor's output for every example schema, across shard
// counts 1/4 × worker counts 1/2/4, with and without the neighborhood cache.
func TestPlanFragmentParity(t *testing.T) {
	for _, tc := range exampleParityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			store.WarmDictionary(tc.g, tc.h)
			want := turtle.FormatNTriples(core.FragmentSchema(tc.g, tc.h))
			requests := core.SchemaRequests(tc.h)
			plans := plan.CompileAll(requests, tc.h)
			for _, shards := range []int{1, 4} {
				cfg := store.Config{Shards: shards}
				if shards == 1 {
					cfg = store.Config{}
				}
				st, err := store.New(tc.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4} {
					for _, cached := range []bool{false, true} {
						var cache *core.NeighborhoodCache
						if cached {
							cache = core.NewNeighborhoodCache(1 << 20)
						}
						x := core.NewExtractor(st.Current().Reader(), tc.h)
						frag, err := x.FragmentParallel(requests, core.ParallelOptions{
							Workers: workers,
							Plans:   plans,
							Cache:   cache,
						})
						if err != nil {
							t.Fatal(err)
						}
						if got := turtle.FormatNTriples(frag); got != want {
							t.Errorf("shards=%d workers=%d cached=%v: plan fragment differs from AST (%d vs %d bytes)",
								shards, workers, cached, len(got), len(want))
						}
						if cached {
							// Second pass hits the plan-populated cache.
							frag, err = x.FragmentParallel(requests, core.ParallelOptions{
								Workers: workers, Plans: plans, Cache: cache,
							})
							if err != nil {
								t.Fatal(err)
							}
							if got := turtle.FormatNTriples(frag); got != want {
								t.Errorf("shards=%d workers=%d: cached replay differs", shards, workers)
							}
						}
					}
				}
			}
		})
	}
}

// TestPlannerFragmentParity runs the same corpus through the cost-based
// planner's mixed program set (nil entries fall back to the AST walker) —
// the exact configuration fragserver serves with.
func TestPlannerFragmentParity(t *testing.T) {
	for _, tc := range exampleParityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			store.WarmDictionary(tc.g, tc.h)
			want := turtle.FormatNTriples(core.FragmentSchema(tc.g, tc.h))
			requests := core.SchemaRequests(tc.h)
			st, err := store.New(tc.g, store.Config{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			sp := plan.PlanSchema(tc.h, store.SampleStats(st.Current()), plan.Config{})
			x := core.NewExtractor(st.Current().Reader(), tc.h)
			frag, err := x.FragmentParallel(requests, core.ParallelOptions{
				Workers: 4,
				Plans:   sp.ProgramSet(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := turtle.FormatNTriples(frag); got != want {
				t.Errorf("planner-routed fragment differs from AST (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestGoldenWorkshopPlan pins the compiled plan text for the workshop
// schema — the same disassembly `shaclfrag plan -shapes workshop.ttl`
// prints. Regenerate after intended compiler changes with:
//
//	go test ./internal/plan -run Golden -update
func TestGoldenWorkshopPlan(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "shapes", "workshop.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := shaclsyn.ParseSchema(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, d := range h.Definitions() {
		if i > 0 {
			out = append(out, '\n')
		}
		out = append(out, "== "+d.Name.String()+"\n"...)
		out = append(out, plan.Compile(shape.AndOf(d.Shape, d.Target), h).String()...)
	}
	golden := filepath.Join("testdata", "workshop.plan.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(out) != string(want) {
		t.Errorf("compiled plan text drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
	}
}
