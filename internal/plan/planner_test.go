package plan_test

import (
	"strings"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/store"
)

func tyrolStats(t *testing.T, individuals int) store.CardStats {
	t.Helper()
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 1})
	g.Freeze()
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return store.SampleStats(st.Current())
}

// TestSampleStats pins the sampling invariants: totals match the reader
// and per-predicate cardinalities sum to the triple count.
func TestSampleStats(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 100, Seed: 3})
	g.Freeze()
	for _, cfg := range []store.Config{{}, {Shards: 4}} {
		st, err := store.New(g.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats := store.SampleStats(st.Current())
		if stats.Triples != g.Len() {
			t.Fatalf("shards=%d: stats.Triples = %d, graph has %d", st.NumShards(), stats.Triples, g.Len())
		}
		if stats.Nodes == 0 || stats.DictTerms < stats.Nodes {
			t.Fatalf("shards=%d: implausible node/dict counts: %+v", st.NumShards(), stats)
		}
		sum := 0
		for _, n := range stats.PredCard {
			sum += n
		}
		if sum != stats.Triples {
			t.Fatalf("shards=%d: predicate cardinalities sum to %d, want %d", st.NumShards(), sum, stats.Triples)
		}
	}
}

// TestPlanSchemaDefault checks the cost model's baseline behavior: on the
// benchmark schema the compiled plan wins everywhere (the BENCH_1 story:
// direct ≈ 4× plan, sparql ≈ 10× direct), every decision carries a
// program, and ProgramSet aligns with Requests.
func TestPlanSchemaDefault(t *testing.T) {
	h := datagen.BenchmarkSchema()
	sp := plan.PlanSchema(h, tyrolStats(t, 200), plan.Config{})
	if len(sp.Decisions) != h.Len() {
		t.Fatalf("%d decisions for %d definitions", len(sp.Decisions), h.Len())
	}
	set := sp.ProgramSet()
	for i, d := range sp.Decisions {
		if d.Program == nil {
			t.Fatalf("%s: no compiled program", d.Name)
		}
		if d.Strategy != plan.StrategyPlan {
			t.Errorf("%s: strategy %s (reason %q), want plan", d.Name, d.Strategy, d.Reason)
		}
		if d.CostSPARQL <= d.CostDirect {
			t.Errorf("%s: sparql estimate %.3g not above direct %.3g", d.Name, d.CostSPARQL, d.CostDirect)
		}
		if (set.Programs[i] != nil) != (d.Strategy == plan.StrategyPlan) {
			t.Errorf("%s: ProgramSet misaligned with strategy", d.Name)
		}
	}
	if sp.Counts()[plan.StrategyPlan] != len(sp.Decisions) {
		t.Fatalf("counts: %v", sp.Counts())
	}
}

// TestPlanSchemaMemoBudget checks the memory veto: a tiny budget degrades
// every plan decision to direct, with the budget named in the reason.
func TestPlanSchemaMemoBudget(t *testing.T) {
	h := datagen.BenchmarkSchema()
	sp := plan.PlanSchema(h, tyrolStats(t, 200), plan.Config{MemoBudget: 1})
	for _, d := range sp.Decisions {
		if d.Strategy != plan.StrategyDirect {
			t.Fatalf("%s: strategy %s, want direct under 1-byte budget", d.Name, d.Strategy)
		}
		if !strings.Contains(d.Reason, "over budget") {
			t.Fatalf("%s: reason %q does not mention the budget", d.Name, d.Reason)
		}
	}
}

// TestPlanSchemaForce checks forcing, and that vetoes outrank it.
func TestPlanSchemaForce(t *testing.T) {
	h := datagen.BenchmarkSchema()
	stats := tyrolStats(t, 200)

	sp := plan.PlanSchema(h, stats, plan.Config{Force: plan.StrategySPARQL, Forced: true})
	forced := 0
	for _, d := range sp.Decisions {
		switch d.Strategy {
		case plan.StrategySPARQL:
			forced++
		case plan.StrategyDirect:
			// The benchmark schema contains SL008 shapes; the veto outranks
			// forcing and must say so.
			if !strings.Contains(d.Reason, "SL008") {
				t.Fatalf("%s: forced sparql got direct for reason %q", d.Name, d.Reason)
			}
		default:
			t.Fatalf("%s: forced sparql got %s", d.Name, d.Strategy)
		}
	}
	if forced == 0 {
		t.Fatal("no definition took the forced sparql strategy")
	}

	sp = plan.PlanSchema(h, stats, plan.Config{Force: plan.StrategyPlan, Forced: true, MemoBudget: 1})
	for _, d := range sp.Decisions {
		if d.Strategy != plan.StrategyDirect {
			t.Fatalf("%s: forced plan over budget got %s, want direct", d.Name, d.Strategy)
		}
	}
}

// TestPlanSchemaExpensivePathVeto checks that an SL008 shape — unbounded
// star path in a universal position — never routes to SPARQL, even forced.
func TestPlanSchemaExpensivePathVeto(t *testing.T) {
	name := rdf.NewIRI(shapetest.Base + "StarShape")
	h, err := schema.New(schema.Definition{
		Name:   name,
		Shape:  shape.All(paths.Star{X: paths.P(shapetest.Base + "knows")}, shape.TrueShape()),
		Target: shape.TrueShape(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := tyrolStats(t, 50)

	sp := plan.PlanSchema(h, stats, plan.Config{Force: plan.StrategySPARQL, Forced: true})
	d := sp.Decisions[0]
	if d.Strategy == plan.StrategySPARQL {
		t.Fatalf("SL008 shape routed to sparql (reason %q)", d.Reason)
	}
	if !strings.Contains(d.Reason, "SL008") {
		t.Fatalf("reason %q does not cite the lint code", d.Reason)
	}
}

// TestParseStrategy round-trips the names the CLI accepts.
func TestParseStrategy(t *testing.T) {
	for _, s := range []plan.Strategy{plan.StrategyPlan, plan.StrategyDirect, plan.StrategySPARQL} {
		got, err := plan.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %s: got %s, err %v", s, got, err)
		}
	}
	if _, err := plan.ParseStrategy("turbo"); err == nil {
		t.Fatal("ParseStrategy accepted nonsense")
	}
}
