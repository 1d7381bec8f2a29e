package sparql

import (
	"math/rand"
	"strings"
	"testing"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/turtle"
)

const base = "http://x/"

func iri(s string) rdf.Term { return rdf.NewIRI(base + s) }

func mustGraph(t *testing.T, src string) *rdfgraph.Graph {
	t.Helper()
	g, err := turtle.Parse("@prefix ex: <" + base + "> .\n" + src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBGPSingleVar(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:a ex:p ex:c . ex:z ex:q ex:b .`)
	rows := Select(&BGP{Patterns: []TriplePattern{
		{S: C(iri("a")), P: C(iri("p")), O: V("o")},
	}}, g, "o")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
}

func TestBGPJoinOverSharedVar(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:b . ex:b ex:q ex:c .
ex:a ex:p ex:d . ex:d ex:q ex:e .
ex:a ex:p ex:lonely .
`)
	rows := Select(&BGP{Patterns: []TriplePattern{
		{S: V("x"), P: C(iri("p")), O: V("y")},
		{S: V("y"), P: C(iri("q")), O: V("z")},
	}}, g, "x", "z")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
}

// TestBGPOnlyPredicateVariable: with subject and object both bound, only
// the predicates linking the two match.
func TestBGPOnlyPredicateVariable(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b ; ex:q ex:c ; ex:r ex:b .`)
	rows := Eval(&BGP{Patterns: []TriplePattern{{S: C(iri("a")), P: V("p"), O: C(iri("b"))}}}, g)
	if len(rows) != 2 || rows[0]["p"] != iri("p") || rows[1]["p"] != iri("r") {
		t.Fatalf("rows = %v, want p then r", rows)
	}
}

func TestBGPAllPositionsVariable(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:c ex:q ex:d .`)
	rows := Select(&BGP{Patterns: []TriplePattern{
		{S: V("s"), P: V("p"), O: V("o")},
	}}, g, "s", "p", "o")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
}

func TestBGPVariablePredicate(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:a ex:q ex:b . ex:a ex:p ex:c .`)
	rows := Select(&BGP{Patterns: []TriplePattern{
		{S: C(iri("a")), P: V("p"), O: C(iri("b"))},
	}}, g, "p")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want p and q", rows)
	}
}

func TestBGPPathPattern(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:b ex:p ex:c .`)
	star := paths.Star{X: paths.P(base + "p")}
	rows := Select(&BGP{Patterns: []TriplePattern{
		{S: C(iri("a")), Path: star, O: V("o")},
	}}, g, "o")
	if len(rows) != 3 { // a, b, c
		t.Fatalf("rows = %v, want 3", rows)
	}
	// Object bound: inverse evaluation.
	rows = Select(&BGP{Patterns: []TriplePattern{
		{S: V("s"), Path: paths.P(base + "p"), O: C(iri("c"))},
	}}, g, "s")
	if len(rows) != 1 || rows[0]["s"] != iri("b") {
		t.Fatalf("rows = %v, want b", rows)
	}
	// Both free: all pairs.
	rows = Select(&BGP{Patterns: []TriplePattern{
		{S: V("s"), Path: paths.P(base + "p"), O: V("o")},
	}}, g, "s", "o")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
}

func TestUnionAndDistinct(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:a ex:q ex:b .`)
	op := UnionOf(
		&BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("o")}}},
		&BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("q")), O: V("o")}}},
	)
	if rows := Eval(op, g); len(rows) != 2 {
		t.Fatalf("union rows = %v", rows)
	}
	if rows := Select(op, g, "s", "o"); len(rows) != 1 {
		t.Fatalf("distinct rows = %v", rows)
	}
}

func TestLeftJoin(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:name "A" . ex:a ex:age 30 .
ex:b ex:name "B" .
`)
	op := &LeftJoin{
		L: &BGP{Patterns: []TriplePattern{{S: V("x"), P: C(iri("name")), O: V("n")}}},
		R: &BGP{Patterns: []TriplePattern{{S: V("x"), P: C(iri("age")), O: V("a")}}},
	}
	rows := Eval(op, g)
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
	bound := 0
	for _, r := range rows {
		if _, ok := r["a"]; ok {
			bound++
		}
	}
	if bound != 1 {
		t.Fatalf("exactly one row should have ?a bound: %v", rows)
	}
}

func TestMinus(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:x . ex:b ex:p ex:x .
ex:a ex:bad ex:y .
`)
	op := &Minus{
		L: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("x")}}},
		R: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("bad")), O: V("y")}}},
	}
	rows := Eval(op, g)
	if len(rows) != 1 || rows[0]["s"] != iri("b") {
		t.Fatalf("rows = %v, want only b", rows)
	}
}

func TestMinusNoSharedVars(t *testing.T) {
	// MINUS with disjoint domains removes nothing.
	g := mustGraph(t, `ex:a ex:p ex:x .`)
	op := &Minus{
		L: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("x")}}},
		R: &BGP{Patterns: []TriplePattern{{S: V("other"), P: C(iri("p")), O: V("x2")}}},
	}
	if rows := Eval(op, g); len(rows) != 1 {
		t.Fatalf("rows = %v, want 1 (no shared vars)", rows)
	}
}

func TestFilterComparisons(t *testing.T) {
	g := mustGraph(t, `ex:a ex:v 1 . ex:b ex:v 5 . ex:c ex:v 9 .`)
	op := &Filter{
		Inner: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("v")), O: V("x")}}},
		Cond:  &Cmp{Op: CmpLess, L: Vx("x"), R: Cx(rdf.NewInteger(5))},
	}
	rows := Eval(op, g)
	if len(rows) != 1 || rows[0]["s"] != iri("a") {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilterExists(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:x . ex:x ex:ok ex:yes .
ex:b ex:p ex:y .
`)
	op := &Filter{
		Inner: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("o")}}},
		Cond: &ExistsExpr{Op: &BGP{Patterns: []TriplePattern{
			{S: V("o"), P: C(iri("ok")), O: V("any")},
		}}},
	}
	rows := Eval(op, g)
	if len(rows) != 1 || rows[0]["s"] != iri("a") {
		t.Fatalf("EXISTS rows = %v", rows)
	}
	op.Cond = &ExistsExpr{Neg: true, Op: &BGP{Patterns: []TriplePattern{
		{S: V("o"), P: C(iri("ok")), O: V("any")},
	}}}
	rows = Eval(op, g)
	if len(rows) != 1 || rows[0]["s"] != iri("b") {
		t.Fatalf("NOT EXISTS rows = %v", rows)
	}
}

func TestFilterInAndBound(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:x . ex:a ex:q ex:y .`)
	op := &Filter{
		Inner: &BGP{Patterns: []TriplePattern{{S: V("s"), P: V("p"), O: V("o")}}},
		Cond:  &InExpr{X: Vx("p"), Terms: []rdf.Term{iri("p")}, Neg: true},
	}
	rows := Eval(op, g)
	if len(rows) != 1 || rows[0]["p"] != iri("q") {
		t.Fatalf("NOT IN rows = %v", rows)
	}
	// bound() on an optional variable.
	opt := &Filter{
		Inner: &LeftJoin{
			L: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("x")}}},
			R: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("nosuch")), O: V("y")}}},
		},
		Cond: &NotExpr{X: &BoundExpr{Name: "y"}},
	}
	if rows := Eval(opt, g); len(rows) != 1 {
		t.Fatalf("!bound rows = %v", rows)
	}
}

func TestExtendAndProject(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b .`)
	op := &Project{
		Inner: &Extend{
			Inner: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("o")}}},
			Var:   "copy",
			E:     Vx("s"),
		},
		Vars: []string{"copy"},
	}
	rows := Eval(op, g)
	if len(rows) != 1 || rows[0]["copy"] != iri("a") || len(rows[0]) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGroupCount(t *testing.T) {
	g := mustGraph(t, `
ex:a ex:p ex:x , ex:y , ex:z .
ex:b ex:p ex:x .
`)
	op := &GroupCount{
		Inner:    &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("o")}}},
		By:       []string{"s"},
		CountVar: "n",
	}
	rows := Eval(op, g)
	counts := map[rdf.Term]int{}
	for _, r := range rows {
		n, ok := CountLiteral(r["n"])
		if !ok {
			t.Fatalf("bad count literal %v", r["n"])
		}
		counts[r["s"]] = n
	}
	if counts[iri("a")] != 3 || counts[iri("b")] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestAllNodes(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:b ex:q "lit" .`)
	rows := Select(&AllNodes{Var: "v"}, g, "v")
	if len(rows) != 3 { // a, b, "lit" — p and q are not nodes
		t.Fatalf("N(G) = %v, want 3", rows)
	}
	// With the variable pre-bound, AllNodes acts as a membership filter.
	op := &Join{L: &Table{Rows: []Binding{{"v": iri("a")}, {"v": iri("ghost")}}}, R: &AllNodes{Var: "v"}}
	rows = Eval(op, g)
	if len(rows) != 1 || rows[0]["v"] != iri("a") {
		t.Fatalf("filtered rows = %v", rows)
	}
}

func TestTableJoin(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b .`)
	op := &Join{
		L: &Table{Rows: []Binding{{"s": iri("a")}}},
		R: &BGP{Patterns: []TriplePattern{{S: V("s"), P: C(iri("p")), O: V("o")}}},
	}
	rows := Eval(op, g)
	if len(rows) != 1 || rows[0]["o"] != iri("b") {
		t.Fatalf("rows = %v", rows)
	}
}

// Property: PathTrace triple rows agree with paths.Trace for every endpoint
// pair, and pair rows agree with the path relation (Lemma 5.1).
func TestPathTraceAgainstDirectTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		g := shapetest.RandomGraph(rng, 10)
		e := shapetest.RandomPath(rng, 2)
		op := &PathTrace{Path: e, TVar: "t", SVar: "s", PVar: "p", OVar: "o", HVar: "h", WithPairs: true}
		rows := Eval(op, g)

		pe := paths.NewEvaluator(e, g)
		wantPairs := make(map[[2]rdf.Term]bool)
		wantTriples := make(map[[2]rdf.Term]map[rdf.Triple]bool)
		for _, a := range g.NodeIDs() {
			for _, b := range pe.Eval(a) {
				key := [2]rdf.Term{g.Term(a), g.Term(b)}
				wantPairs[key] = true
				m := make(map[rdf.Triple]bool)
				for _, tr := range pe.Trace(a, b) {
					m[tr] = true
				}
				wantTriples[key] = m
			}
		}
		gotPairs := make(map[[2]rdf.Term]bool)
		gotTriples := make(map[[2]rdf.Term]map[rdf.Triple]bool)
		for _, r := range rows {
			key := [2]rdf.Term{r["t"], r["h"]}
			if _, ok := r["s"]; !ok {
				gotPairs[key] = true
				continue
			}
			if gotTriples[key] == nil {
				gotTriples[key] = make(map[rdf.Triple]bool)
			}
			gotTriples[key][rdf.T(r["s"], r["p"], r["o"])] = true
		}
		if len(gotPairs) != len(wantPairs) {
			t.Fatalf("trial %d: pair sets differ for %s: got %d want %d", trial, e, len(gotPairs), len(wantPairs))
		}
		for key := range wantPairs {
			if !gotPairs[key] {
				t.Fatalf("trial %d: missing pair %v for %s", trial, key, e)
			}
			got := gotTriples[key]
			want := wantTriples[key]
			if len(got) != len(want) {
				t.Fatalf("trial %d: triple sets differ at %v for %s:\ngot %v\nwant %v", trial, key, e, got, want)
			}
			for tr := range want {
				if !got[tr] {
					t.Fatalf("trial %d: missing triple %v at %v for %s", trial, tr, key, e)
				}
			}
		}
	}
}

func TestPathTraceWithBoundEndpoints(t *testing.T) {
	g := mustGraph(t, `ex:a ex:p ex:b . ex:b ex:p ex:c . ex:z ex:p ex:c .`)
	e := paths.Star{X: paths.P(base + "p")}
	// t bound.
	op := &PathTrace{Path: e, TVar: "t", SVar: "s", PVar: "p", OVar: "o", HVar: "h"}
	rows := Eval(&Join{L: &Table{Rows: []Binding{{"t": iri("a")}}}, R: op}, g)
	for _, r := range rows {
		if r["t"] != iri("a") {
			t.Fatalf("unexpected t: %v", r)
		}
		if r["s"] == iri("z") {
			t.Fatalf("z edge must not be traced from a: %v", r)
		}
	}
	// h bound.
	rows = Eval(&Join{L: &Table{Rows: []Binding{{"h": iri("c")}}}, R: op}, g)
	seenZ := false
	for _, r := range rows {
		if r["h"] != iri("c") {
			t.Fatalf("unexpected h: %v", r)
		}
		if r["s"] == iri("z") {
			seenZ = true
		}
	}
	if !seenZ {
		t.Fatal("trace into c must include the z edge")
	}
}

func TestEffectiveBool(t *testing.T) {
	cases := []struct {
		t    rdf.Term
		want bool
		err  bool
	}{
		{rdf.NewBoolean(true), true, false},
		{rdf.NewBoolean(false), false, false},
		{rdf.NewString(""), false, false},
		{rdf.NewString("x"), true, false},
		{rdf.NewInteger(0), false, false},
		{rdf.NewInteger(7), true, false},
		{iri("a"), false, true},
		{rdf.NewTypedLiteral("junk", rdf.XSDDateTime), false, true},
	}
	for _, c := range cases {
		got, err := effectiveBool(c.t)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("effectiveBool(%v) = %v, %v", c.t, got, err)
		}
	}
}

func TestRenderSmoke(t *testing.T) {
	e := paths.Seq{Left: paths.P(base + "q"), Right: paths.Star{X: paths.P(base + "r")}}
	op := &Filter{
		Inner: &Join{
			L: &AllNodes{Var: "v"},
			R: &Union{
				L: &BGP{Patterns: []TriplePattern{{S: V("v"), P: C(iri("p")), O: V("o")}}},
				R: &PathTrace{Path: e, TVar: "v", SVar: "s", PVar: "p2", OVar: "o2", HVar: "h"},
			},
		},
		Cond: AndOf(
			&Cmp{Op: CmpNeq, L: Vx("v"), R: Cx(iri("x"))},
			&ExistsExpr{Neg: true, Op: &BGP{Patterns: []TriplePattern{{S: V("v"), P: C(iri("bad")), O: V("b")}}}},
			&NodeTestExpr{Name: "v", Test: shape.IsIRI{}},
		),
	}
	out := Render(op, "v")
	for _, want := range []string{"SELECT ?v", "UNION", "NOT EXISTS", "isIRI(?v)", "Lemma 5.1", "FILTER"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Rendering must be deterministic modulo the fresh-variable counter.
	if out2 := Render(op, "v"); out != out2 {
		t.Error("rendering not deterministic")
	}
}

func TestBindingHelpers(t *testing.T) {
	b := Binding{"x": iri("a")}
	if b.extend("x", iri("b")) != nil {
		t.Error("conflicting extend must fail")
	}
	if nb := b.extend("x", iri("a")); nb == nil || len(nb) != 1 {
		t.Error("same-value extend keeps binding")
	}
	if !compatible(Binding{"x": iri("a")}, Binding{"y": iri("b")}) {
		t.Error("disjoint bindings are compatible")
	}
	if compatible(Binding{"x": iri("a")}, Binding{"x": iri("b")}) {
		t.Error("conflicting bindings are incompatible")
	}
	if sharesVar(Binding{"x": iri("a")}, Binding{"y": iri("b")}) {
		t.Error("no shared vars")
	}
	if m := merge(Binding{"x": iri("a")}, Binding{"x": iri("b")}); m != nil {
		t.Error("conflicting merge must fail")
	}
}

// TestEvalOrderIndependentOfHistory: Eval's order is a function of an
// epoch's triples and its (stable) IDs, not of the updates that led to it.
// An epoch that deleted and re-added a triple answers every plain pattern
// in the order a graph loaded with the same triples does.
func TestEvalOrderIndependentOfHistory(t *testing.T) {
	fresh := mustGraph(t, `ex:a ex:p ex:b ; ex:q ex:b . ex:c ex:p ex:d . ex:e ex:p ex:f ; ex:q ex:b .`)
	fresh.Freeze()
	epoch := fresh.CloneCOW()
	for _, tr := range []rdf.Triple{rdf.T(iri("a"), iri("p"), iri("b")), rdf.T(iri("a"), iri("q"), iri("b"))} {
		epoch.Remove(tr)
		epoch.Add(tr)
	}
	epoch.Freeze()
	for _, pat := range []TriplePattern{
		{S: V("s"), P: C(iri("p")), O: V("o")},
		{S: V("s"), P: V("p"), O: C(iri("b"))},
		{S: C(iri("a")), P: V("p"), O: V("o")},
		{S: V("s"), P: V("p"), O: V("o")},
	} {
		var want, got []string
		for _, b := range Eval(&BGP{Patterns: []TriplePattern{pat}}, fresh) {
			want = append(want, bindingKey(b))
		}
		for _, b := range Eval(&BGP{Patterns: []TriplePattern{pat}}, epoch) {
			got = append(got, bindingKey(b))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%v: after a delete and re-add Eval yields\n%s\nwant, as on the fresh graph,\n%s",
				pat, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
