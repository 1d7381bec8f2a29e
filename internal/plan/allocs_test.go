package plan_test

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// maxHubFragmentAllocs bounds the allocations of one cold Figure 3 fragment
// (the serving benchmark's hub-path request, BenchmarkHubFragmentCold): 110
// measured, plus 25 %. It was 307 while every focus node ran a search of its
// own on scratch its evaluator grew from nothing, 340 while the searches kept
// their states in three maps, and 196 540 while every product search made its
// own maps, adjacency slices and callbacks.
const maxHubFragmentAllocs = 138

// maxHubFragmentBytes bounds what a cold fragment allocates once an earlier
// one has released its scratch: 30 kB measured, plus 25 % — the output set,
// the owned results and the Bound. The scratch of its searches is some
// 560 kB, so a fragment that grew its own again is twelve times over.
const maxHubFragmentBytes = 38 << 10

// TestHubTraceAllocs is the gate of path tracing, by count: a cold fragment
// runs two product searches per automaton path slot, whatever the number of
// focus nodes — one deciding ≥1 E.ψ for them all, one tracing from those that
// conform — on scratch that a released Bound hands to the next, so what it
// allocates is the owned Eval results and the output set, not something per
// product state, per focus node or per request.
func TestHubTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: 250, Seed: 1}).Graph(2014)
	request := shape.AndOf(datagen.HubDistance3Shape(), schema.TargetObjectsOf(datagen.PropAuthoredBy))
	prog := plan.Compile(request, nil)
	nodes := g.NodeIDs()
	var b *plan.Bound
	cold := func() {
		b = prog.Bind(g)
		b.CollectAllInto(nodes, rdfgraph.NewIDTripleSet())
		b.Release()
	}
	got := testing.AllocsPerRun(5, cold)
	t.Logf("cold hub fragment: %.0f allocs/op (bound %d)", got, maxHubFragmentAllocs)
	if got > maxHubFragmentAllocs {
		t.Errorf("cold hub fragment allocates %.0f times, bound %d", got, maxHubFragmentAllocs)
	}
	// The request has one path that is not a bare property: the hub's.
	if n := b.Searches(); n > 2 {
		t.Errorf("cold hub fragment over %d nodes ran %d product searches, want at most 2", len(nodes), n)
	}
	// The least of five: a collection in between empties the pool once.
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		cold()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("cold hub fragment on released scratch: %d B/op (bound %d)", least, maxHubFragmentBytes)
	if least > maxHubFragmentBytes {
		t.Errorf("a cold hub fragment after Release allocates %d B, bound %d: it grows scratch of its own", least, maxHubFragmentBytes)
	}

	// Warm, a trace allocates its result and nothing else.
	hop := datagen.HubDistance3Shape().(*shape.MinCount).Path
	ev := paths.NewEvaluator(hop, g)
	var a rdfgraph.ID
	var targets []rdfgraph.ID
	for _, v := range nodes {
		if ts := ev.Eval(v); len(ts) > len(targets) {
			a, targets = v, ts
		}
	}
	if len(ev.TraceUnionIDs(a, targets)) == 0 {
		t.Fatal("the fixture traces nothing")
	}
	if got := testing.AllocsPerRun(5, func() { ev.TraceUnionIDs(a, targets) }); got != 1 {
		t.Errorf("a warm TraceUnionIDs allocates %.0f times, want 1: its result", got)
	}
}

// TestReleasedBoundPanics pins Release's contract: the rows go back to the
// pool zeroed, and the Bound they came from cannot be used again.
func TestReleasedBoundPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := shapetest.RandomGraph(rng, 60)
	phi := shape.Min(1, paths.P(shapetest.Base+"p"), &shape.True{})
	prog := plan.Compile(phi, nil)
	nodes := g.NodeIDs()
	extract := func(b *plan.Bound) []rdfgraph.IDTriple {
		out := rdfgraph.NewIDTripleSet()
		for _, v := range nodes {
			b.CollectInto(v, out)
		}
		return out.Sorted(g.Dict())
	}
	first := prog.Bind(g)
	want := extract(first)
	first.Release()
	// A second Bound, most likely on the rows just released, starts clean.
	second := prog.Bind(g)
	if got := extract(second); !slices.Equal(got, want) {
		t.Fatalf("extraction on recycled rows gave %d triples, want %d", len(got), len(want))
	}
	defer func() {
		if recover() == nil {
			t.Error("a released Bound answered instead of panicking")
		}
	}()
	first.ConformsRoot(nodes[0])
}

// TestBoundInterleaving drives one Bound whose two quantifiers share a
// path slot — ≥1 E.(≥1 E.⊤), so deciding or collecting a node re-enters
// that slot's evaluator for each of its E-successors before the trace from
// the node itself — through a seeded random interleaving of conformance
// checks and isolated collections, against the AST walker.
func TestBoundInterleaving(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := shapetest.RandomGraph(rng, 30+rng.Intn(30))
		e := paths.Star{X: shapetest.RandomPath(rng, 2)} // never atomic
		phi := shape.Min(1, e, shape.Min(1, e, &shape.True{}))
		prog := plan.Compile(phi, nil)
		if len(prog.Paths) != 1 {
			t.Fatalf("the two quantifiers over %s compile to %d path slots, want one shared", e, len(prog.Paths))
		}
		b := prog.Bind(g)
		x := core.NewExtractor(g, nil)
		nodes := g.NodeIDs()
		for op := 0; op < 60; op++ {
			v := nodes[rng.Intn(len(nodes))]
			if rng.Intn(2) == 0 {
				if got, want := b.ConformsRoot(v), x.Evaluator().Conforms(v, phi); got != want {
					t.Fatalf("seed %d op %d: %s at %s: plan %v, ast %v", seed, op, phi, g.Term(v), got, want)
				}
				continue
			}
			want := rdfgraph.NewIDTripleSet()
			x.NeighborhoodInto(v, phi, want, make(map[core.VisitKey]struct{}))
			got := rdfgraph.NewIDTripleSet()
			b.ResetVisited()
			b.CollectInto(v, got)
			if !slices.Equal(got.Sorted(g.Dict()), want.Sorted(g.Dict())) {
				t.Fatalf("seed %d op %d: B(%s, G, %s): plan %d triples, ast %d", seed, op, g.Term(v), phi, got.Len(), want.Len())
			}
		}
	}
}
