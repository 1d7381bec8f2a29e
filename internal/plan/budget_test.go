package plan_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

const budgetNS = "http://budget.example/"

func budgetIRI(format string, args ...any) rdf.Term {
	return rdf.NewIRI(budgetNS + fmt.Sprintf(format, args...))
}

// overBudget is a small graph with a big dictionary: a thousand nodes, each
// with one p and one q edge, and 40 000 literal objects of one more node that
// no shape mentions. The schema's one definition targets the thousand nodes
// by sh:targetNode and asks for a p edge: a 1 004-instruction program whose
// dense rows over ~43 000 terms take ~86 MB, over plan.MemoBudget. decoy is
// the same program asking for q instead, and just as far over: a binder that
// ignored the budget and bound it would serve q edges where the AST walker
// serves p edges.
func overBudget(t *testing.T) (g *rdfgraph.Graph, h *schema.Schema, decoy *plan.Program) {
	t.Helper()
	g = rdfgraph.New()
	var targets []shape.Shape
	for i := 0; i < 1000; i++ {
		n := budgetIRI("n%d", i)
		g.Add(rdf.T(n, budgetIRI("p"), budgetIRI("o%d", i)))
		g.Add(rdf.T(n, budgetIRI("q"), budgetIRI("r%d", i)))
		targets = append(targets, shape.Value(n))
	}
	for i := 0; i < 40000; i++ {
		g.Add(rdf.T(budgetIRI("unused"), budgetIRI("z"), rdf.NewInteger(int64(i))))
	}
	target := shape.OrOf(targets...)
	has := func(p string) shape.Shape { return shape.Min(1, paths.P(budgetNS+p), shape.TrueShape()) }
	h = schema.MustNew(schema.Definition{Name: budgetIRI("S"), Shape: has("p"), Target: target})
	decoy = plan.Compile(shape.AndOf(has("q"), target), h)
	store.WarmDictionary(g, h)
	if terms := g.Dict().Len(); decoy.Fits(terms) {
		t.Fatalf("fixture: %d instructions over %d terms fit the budget", decoy.NumInstrs(), terms)
	}
	return g, h, decoy
}

// astFragment is the oracle: the AST walker's fragment of h over r.
func astFragment(r rdfgraph.Reader, h *schema.Schema) string {
	return turtle.FormatNTriples(core.NewExtractor(r, h).Fragment(core.SchemaRequests(h)))
}

// TestMemoBudgetBindsNothing checks that every binder applies the budget:
// against a dictionary interned past it, FragmentParallel at one and four
// workers, the live maintainer's materialization and re-extraction, and the
// CLI's -strategy plan bind no program and serve the AST walker's bytes.
func TestMemoBudgetBindsNothing(t *testing.T) {
	g, h, decoy := overBudget(t)
	requests := core.SchemaRequests(h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Current()
	want := astFragment(snap.Reader(), h)
	if want == "" {
		t.Fatal("fixture: empty fragment")
	}

	parallel := func(workers int) func(t *testing.T) (got, want string, planned bool) {
		return func(t *testing.T) (string, string, bool) {
			trace := obs.NewSpanTrace("budget", obs.SpanContext{})
			frag, err := core.NewExtractor(snap.Reader(), h).FragmentParallel(requests, core.ParallelOptions{
				Workers: workers,
				Plans:   &plan.Set{Programs: []*plan.Program{decoy}},
				Span:    trace.Root(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return turtle.FormatNTriples(frag), want, spanNamed(trace.Root(), "plan-exec")
		}
	}
	// The maintainer offers decoy for the definition; a bound decoy shows up
	// as q edges in its fragment.
	maintained := func(m *live.Maintainer) string {
		var b strings.Builder
		for _, l := range m.FragmentLines(0) {
			b.WriteString(l + "\n")
		}
		return b.String()
	}
	maintainer := func() *live.Maintainer {
		return live.NewMaintainer(live.Config{
			Schema: h, Requests: requests,
			Plans: func(int) *plan.Program { return decoy },
		}, snap)
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (got, want string, planned bool)
	}{
		{"FragmentParallel workers=1", parallel(1)},
		{"FragmentParallel workers=4", parallel(4)},
		{"live materialize", func(t *testing.T) (string, string, bool) {
			return maintained(maintainer()), want, false
		}},
		{"CLI -strategy plan", func(t *testing.T) (string, string, bool) {
			if testing.Short() {
				t.Skip("builds a binary")
			}
			stdout, stderr := runCLIFragment(t, g, h, "-strategy", "plan", "-trace")
			planned := strings.Contains(stderr, "plan-exec")
			if !planned && !strings.Contains(stderr, "ast-exec") {
				t.Fatalf("-trace printed no exec breakdown:\n%s", stderr)
			}
			return stdout, want, planned
		}},
		{"live re-extract", func(t *testing.T) (string, string, bool) {
			m := maintainer()
			maintained(m) // materialize at the loaded epoch
			res := st.Apply(rdfgraph.Delta{
				Add: []rdf.Triple{rdf.T(budgetIRI("n0"), budgetIRI("p"), budgetIRI("extra"))},
				Del: []rdf.Triple{rdf.T(budgetIRI("n1"), budgetIRI("p"), budgetIRI("o1"))},
			})
			if ns := m.Notify(res, nil); ns.Reextracted == 0 {
				t.Fatalf("notify re-extracted nothing: %+v", ns)
			}
			return maintained(m), astFragment(res.Snapshot.Reader(), h), false
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want, planned := tc.run(t)
			if planned {
				t.Error("a program was bound over the memo budget")
			}
			if got != want {
				t.Errorf("fragment differs from the AST walker's (%d vs %d bytes)", len(got), len(want))
			}
		})
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
