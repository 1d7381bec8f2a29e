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
	"shaclfrag/internal/obs"
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
// the same corpus the store's parity suite gates on.
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
	// under two targets: a work unit is a request's whole focus set.
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
// to the AST extractor's output for every example schema, at worker counts
// 1/2/4. So is the union of the per-focus neighborhoods core.Neighborhoods
// extracts over each request's focus nodes on its program — the mode live
// maintenance runs — and, the walker's own check, the union of the AST
// walker's isolated per-focus neighborhoods over the same foci.
func TestPlanFragmentParity(t *testing.T) {
	for _, tc := range exampleParityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			store.WarmDictionary(tc.g, tc.h)
			want := turtle.FormatNTriples(core.FragmentSchema(tc.g, tc.h))
			requests := core.SchemaRequests(tc.h)
			plans := plan.CompileAll(requests, tc.h)
			st, err := store.New(tc.g, store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			r := st.Current().Reader()
			for _, workers := range []int{1, 2, 4} {
				frag, err := core.NewExtractor(r, tc.h).FragmentParallel(requests, core.ParallelOptions{
					Workers: workers,
					Plans:   plans,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := turtle.FormatNTriples(frag); got != want {
					t.Errorf("workers=%d: plan fragment differs from AST (%d vs %d bytes)", workers, len(got), len(want))
				}
			}
			x := core.NewExtractor(r, tc.h)
			planned, walked := rdfgraph.NewIDTripleSet(), rdfgraph.NewIDTripleSet()
			for i, request := range requests {
				var all []rdfgraph.ID
				foci := x.Evaluator().FocusNodes(shape.NNF(request), &all)
				if err := core.Neighborhoods(r, plans.Programs[i], foci, planned.AddAll); err != nil {
					t.Fatal(err)
				}
				for _, v := range foci {
					x.NeighborhoodInto(v, request, walked, make(map[core.VisitKey]struct{}))
				}
			}
			for name, union := range map[string]*rdfgraph.IDTripleSet{"plan": planned, "AST": walked} {
				if got := turtle.FormatNTriples(union.Triples(r.Dict())); got != want {
					t.Errorf("%s: union of per-focus neighborhoods differs from Fragment (%d vs %d bytes)",
						name, len(got), len(want))
				}
			}
		})
	}
}

// servedParityCase is the benchmark schema as fragserver is handed it: a
// Turtle round trip through shaclsyn, which turns every nested shape into a
// definition of its own named _:fN.
func servedParityCase(t *testing.T) parityCase {
	t.Helper()
	src, err := shaclsyn.Format(datagen.BenchmarkSchema())
	if err != nil {
		t.Fatal(err)
	}
	h, err := shaclsyn.ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	return parityCase{name: "served", g: datagen.Tyrol(datagen.TyrolConfig{Individuals: 250, Seed: 11}), h: h}
}

// TestPlannerFragmentParity runs the corpus and the served benchmark schema
// the way fragserver serves them: CompileAll once, then FragmentParallel
// with every program bound.
func TestPlannerFragmentParity(t *testing.T) {
	for _, tc := range append(exampleParityCases(t), servedParityCase(t)) {
		t.Run(tc.name, func(t *testing.T) {
			store.WarmDictionary(tc.g, tc.h)
			want := turtle.FormatNTriples(core.FragmentSchema(tc.g, tc.h))
			requests := core.SchemaRequests(tc.h)
			plans := plan.CompileAll(requests, tc.h)
			st, err := store.New(tc.g, store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			r := st.Current().Reader()
			frag, err := core.NewExtractor(r, tc.h).FragmentParallel(requests, core.ParallelOptions{
				Workers: 4,
				Plans:   plans,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := turtle.FormatNTriples(frag); got != want {
				t.Errorf("plan fragment differs from AST (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// spanNamed reports whether sp or a span below it is called name.
func spanNamed(sp *obs.Span, name string) bool {
	if sp.Name() == name {
		return true
	}
	for _, c := range sp.Children() {
		if spanNamed(c, name) {
			return true
		}
	}
	return false
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
