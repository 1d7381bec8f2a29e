package plan_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/live"
	"shaclfrag/internal/obs"
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

const largeNS = "http://large.example/"

func largeIRI(format string, args ...any) rdf.Term {
	return rdf.NewIRI(largeNS + fmt.Sprintf(format, args...))
}

// largeDictionary is a small graph with a big dictionary: a thousand nodes,
// each with one p and one q edge, and 40 000 literal objects of one more
// node that no shape mentions. The schema's one definition targets the
// thousand nodes by sh:targetNode and asks for a p edge: a 1 004-instruction
// program whose rows, were each the dictionary's length, would take ~86 MB
// over its ~43 000 terms. decoy is the same request asking for q instead: a
// binder given its program serves q edges where the AST walker, reading the
// schema, serves p edges.
func largeDictionary(t *testing.T) (g *rdfgraph.Graph, h *schema.Schema, decoy shape.Shape) {
	t.Helper()
	g = rdfgraph.New()
	var targets []shape.Shape
	for i := 0; i < 1000; i++ {
		n := largeIRI("n%d", i)
		g.Add(rdf.T(n, largeIRI("p"), largeIRI("o%d", i)))
		g.Add(rdf.T(n, largeIRI("q"), largeIRI("r%d", i)))
		targets = append(targets, shape.Value(n))
	}
	for i := 0; i < 40000; i++ {
		g.Add(rdf.T(largeIRI("unused"), largeIRI("z"), rdf.NewInteger(int64(i))))
	}
	target := shape.OrOf(targets...)
	has := func(p string) shape.Shape { return shape.Min(1, paths.P(largeNS+p), shape.TrueShape()) }
	h = schema.MustNew(schema.Definition{Name: largeIRI("S"), Shape: has("p"), Target: target})
	decoy = shape.AndOf(has("q"), target)
	store.WarmDictionary(g, h)
	prog := plan.Compile(decoy, h)
	if dense := 2 * prog.NumInstrs() * g.Dict().Len(); prog.NumInstrs() < 1000 || dense < 80<<20 {
		t.Fatalf("fixture: %d instructions over %d terms, %d B of dictionary-length rows", prog.NumInstrs(), g.Dict().Len(), dense)
	}
	return g, h, decoy
}

// astFragment is the oracle: the AST walker's fragment of requests over r.
func astFragment(r rdfgraph.Reader, h *schema.Schema, requests []shape.Shape) string {
	return turtle.FormatNTriples(core.NewExtractor(r, h).Fragment(requests))
}

// TestLargeDictionaryBindsEveryProgram checks that every binder binds a
// program against a dictionary far larger than the nodes it visits:
// FragmentParallel at one and four workers and the CLI's -strategy plan run
// no work unit on the AST walker, the live maintainer's materialization and
// re-extraction serve the decoy's bytes when given its program, and each
// serves the AST walker's bytes when given the schema's own.
func TestLargeDictionaryBindsEveryProgram(t *testing.T) {
	g, h, decoy := largeDictionary(t)
	requests := core.SchemaRequests(h)
	programs := plan.CompileAll(requests, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Current()
	want, wantDecoy := astFragment(snap.Reader(), h, requests), astFragment(snap.Reader(), h, []shape.Shape{decoy})
	if want == "" || want == wantDecoy {
		t.Fatal("fixture: the decoy's fragment is not a distinct non-empty one")
	}

	parallel := func(workers int) func(t *testing.T) (got string, planned, walked bool) {
		return func(t *testing.T) (string, bool, bool) {
			trace := obs.NewSpanTrace("large", obs.SpanContext{})
			frag, err := core.NewExtractor(snap.Reader(), h).FragmentParallel(requests, core.ParallelOptions{
				Workers: workers,
				Plans:   programs,
				Span:    trace.Root(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return turtle.FormatNTriples(frag), spanNamed(trace.Root(), "plan-exec"), spanNamed(trace.Root(), "ast-exec")
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (got string, planned, walked bool)
	}{
		{"FragmentParallel workers=1", parallel(1)},
		{"FragmentParallel workers=4", parallel(4)},
		{"CLI -strategy plan", func(t *testing.T) (string, bool, bool) {
			if testing.Short() {
				t.Skip("builds a binary")
			}
			stdout, stderr := runCLIFragment(t, g, h, "-strategy", "plan", "-trace")
			return stdout, strings.Contains(stderr, "plan-exec"), strings.Contains(stderr, "ast-exec")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, planned, walked := tc.run(t)
			if !planned || walked {
				t.Errorf("plan-exec recorded %v, ast-exec recorded %v: want a bound program only", planned, walked)
			}
			if got != want {
				t.Errorf("fragment differs from the AST walker's (%d vs %d bytes)", len(got), len(want))
			}
		})
	}

	// The maintainer extracts the schema's request with whichever program
	// it is offered; only a bound decoy serves q edges.
	maintained := func(m *live.Maintainer) string {
		var b strings.Builder
		for _, l := range m.FragmentLines(0) {
			b.WriteString(l + "\n")
		}
		return b.String()
	}
	maintainers := func() (own, bait *live.Maintainer) {
		baitProg := plan.Compile(decoy, h)
		for _, p := range []**live.Maintainer{&own, &bait} {
			prog := programs.Programs[0]
			if p == &bait {
				prog = baitProg
			}
			*p = live.NewMaintainer(live.Config{
				Schema: h, Requests: requests,
				Plans: func(int) *plan.Program { return prog },
			}, snap)
		}
		return own, bait
	}
	check := func(t *testing.T, own, bait *live.Maintainer, want, wantDecoy string) {
		t.Helper()
		if got := maintained(own); got != want {
			t.Errorf("own program: fragment differs from the AST walker's (%d vs %d bytes)", len(got), len(want))
		}
		if got := maintained(bait); got != wantDecoy {
			t.Errorf("decoy program: fragment differs from the decoy's (%d vs %d bytes): it was not bound", len(got), len(wantDecoy))
		}
	}
	t.Run("live materialize", func(t *testing.T) {
		own, bait := maintainers()
		check(t, own, bait, want, wantDecoy)
	})
	t.Run("live re-extract", func(t *testing.T) {
		own, bait := maintainers()
		maintained(own) // materialize at the loaded epoch
		maintained(bait)
		// Each focus the delta touches has both edges changed: live picks
		// the foci to re-extract by the schema's request, which reads p.
		res := st.Apply(rdfgraph.Delta{
			Add: []rdf.Triple{
				rdf.T(largeIRI("n0"), largeIRI("p"), largeIRI("extra")),
				rdf.T(largeIRI("n0"), largeIRI("q"), largeIRI("extra")),
			},
			Del: []rdf.Triple{
				rdf.T(largeIRI("n1"), largeIRI("p"), largeIRI("o1")),
				rdf.T(largeIRI("n1"), largeIRI("q"), largeIRI("r1")),
			},
		})
		for _, m := range []*live.Maintainer{own, bait} {
			if ns := m.Notify(res, nil); ns.Reextracted == 0 {
				t.Fatalf("notify re-extracted nothing: %+v", ns)
			}
		}
		r := res.Snapshot.Reader()
		check(t, own, bait, astFragment(r, h, requests), astFragment(r, h, []shape.Shape{decoy}))
	})
}

// largeBindBytes bounds one cold Bind, CollectAllInto and Release of the
// large-dictionary program: 7 788 040 B measured, plus a tenth. Rows the
// dictionary's length would be ~86 MB.
const largeBindBytes = 8_566_844

// TestLargeDictionaryBindMemory is the gate of the paged rows: what a bind
// allocates follows the (instruction, node) pairs its extraction decides,
// not the dictionary.
func TestLargeDictionaryBindMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, h, _ := largeDictionary(t)
	g.Freeze()
	var foci []rdfgraph.ID
	for i := 0; i < 1000; i++ {
		foci = append(foci, g.LookupTerm(largeIRI("n%d", i)))
	}
	// The least of three, each on a fresh program and emptied pools: a
	// collection in between may run in the middle of one.
	least, instrs := uint64(math.MaxUint64), 0
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		prog := plan.Compile(core.SchemaRequests(h)[0], h)
		instrs = prog.NumInstrs()
		out := rdfgraph.NewIDTripleSet()
		runtime.GC()
		runtime.GC() // sync.Pool keeps a victim generation
		runtime.ReadMemStats(&before)
		b := prog.Bind(g)
		b.CollectAllInto(foci, out)
		b.Release()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if out.Len() != 1000 {
			t.Fatalf("extracted %d triples, want 1000", out.Len())
		}
	}
	t.Logf("cold bind, extract and release: %d B (bound %d)", least, largeBindBytes)
	if least > largeBindBytes {
		t.Errorf("a cold bind of %d instructions over %d terms allocates %d B, bound %d", instrs, g.Dict().Len(), least, largeBindBytes)
	}
}

// runCLIFragment writes g and h to files and runs `shaclfrag fragment` on
// them with args, returning its stdout and stderr.
func runCLIFragment(t *testing.T, g *rdfgraph.Graph, h *schema.Schema, args ...string) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "shaclfrag")
	if out, err := exec.Command("go", "build", "-o", bin, "shaclfrag/cmd/shaclfrag").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	shapes, err := shaclsyn.Format(h)
	if err != nil {
		t.Fatal(err)
	}
	data, shapesPath := filepath.Join(dir, "data.nt"), filepath.Join(dir, "shapes.ttl")
	if err := os.WriteFile(data, []byte(turtle.FormatGraph(g)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shapesPath, []byte(shapes), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"fragment", "-data", data, "-shapes", shapesPath}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("shaclfrag fragment: %v\n%s", err, errOut.String())
	}
	return out.String(), errOut.String()
}
