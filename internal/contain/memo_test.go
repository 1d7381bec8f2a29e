package contain_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// randomSchema builds an acyclic schema of n definitions over the
// shapetest universe: definition i may reference definitions j < i, bare,
// negated, and under ≥/≤/∀ — the positions that send the checker through
// its assumption set and its flip.
func randomSchema(rng *rand.Rand, n int) *schema.Schema {
	defs := make([]schema.Definition, n)
	for i := range defs {
		body := shapetest.RandomShape(rng, 2)
		if i > 0 {
			ref := shape.Ref(shapetest.IRI(fmt.Sprintf("D%d", rng.Intn(i))))
			e := paths.P(shapetest.Base + "p")
			switch rng.Intn(6) {
			case 0:
				body = shape.AndOf(body, ref)
			case 1:
				body = shape.OrOf(body, shape.Neg(ref))
			case 2:
				body = shape.Min(1, e, ref)
			case 3:
				body = shape.Max(rng.Intn(2), e, shape.AndOf(ref, body))
			case 4:
				body = shape.All(e, ref)
			case 5:
				body = ref
			}
		}
		defs[i] = schema.Definition{Name: shapetest.IRI(fmt.Sprintf("D%d", i)), Shape: body,
			Target: shape.Min(1, paths.P(shapetest.Base+"q"), shape.TrueShape())}
	}
	return schema.MustNew(defs...)
}

// query is one question put to a checker; equiv selects Equivalent over
// Contains.
type query struct {
	a, b  shape.Shape
	equiv bool
}

func ask(c *contain.Checker, q query) contain.Verdict {
	if q.equiv {
		return c.Equivalent(q.a, q.b)
	}
	return c.Contains(q.a, q.b)
}

// assertSharedAgreesWithFresh is the memo-soundness property: a Checker's
// per-node tables (key, fold, NNF, resolved bodies) and its pair memo are
// caches, so one Checker asked every query — in the given order and in a
// shuffled one — must answer each exactly as a Checker built for that
// query alone.
func assertSharedAgreesWithFresh(t *testing.T, left, right *schema.Schema, qs []query, rng *rand.Rand) {
	t.Helper()
	want := make([]contain.Verdict, len(qs))
	for i, q := range qs {
		want[i] = ask(contain.New(left, right), q)
	}
	order := rng.Perm(len(qs))
	for pass, perm := range [][]int{nil, order} {
		shared := contain.New(left, right)
		for k := range qs {
			i := k
			if perm != nil {
				i = perm[k]
			}
			if got := ask(shared, qs[i]); got != want[i] {
				t.Fatalf("pass %d, query %d (equiv=%v): shared checker says %s, a fresh one %s\n  a = %s\n  b = %s",
					pass, i, qs[i].equiv, got, want[i], qs[i].a, qs[i].b)
			}
		}
	}
}

// allQueries asks Contains on every ordered pair and Equivalent on every
// pair i < j.
func allQueries(shapes []shape.Shape) []query {
	var qs []query
	for i, a := range shapes {
		for j, b := range shapes {
			qs = append(qs, query{a, b, false})
			if i < j {
				qs = append(qs, query{a, b, true})
			}
		}
	}
	return qs
}

func TestSharedCheckerAgreesWithFresh(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	proved := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		left := randomSchema(rng, 5)
		right := left
		if seed%3 == 0 { // two schemas resolving the same names differently
			right = randomSchema(rng, 5)
		}
		var shapes []shape.Shape
		for _, d := range left.Definitions() {
			shapes = append(shapes, d.Shape, shape.Ref(d.Name), shape.Neg(shape.Ref(d.Name)))
		}
		for _, d := range right.Definitions() {
			shapes = append(shapes, d.Shape)
		}
		x := shapetest.RandomShape(rng, 3)
		shapes = append(shapes, x, shape.Neg(x), shape.AndOf(x, shapes[0]), shape.OrOf(x, shapes[0]))
		qs := allQueries(shapes)
		assertSharedAgreesWithFresh(t, left, right, qs, rng)
		for _, q := range qs {
			if q.a != q.b && ask(contain.New(left, right), q) == contain.Contained {
				proved++
			}
		}
	}
	if proved == 0 {
		t.Fatal("no query was ever proved: the property compared Unknown with Unknown")
	}
}

func TestSharedCheckerAgreesWithFreshBenchmarkSchema(t *testing.T) {
	h := datagen.BenchmarkSchema()
	assertSharedAgreesWithFresh(t, h, h, allQueries(servedShapes(h)), rand.New(rand.NewSource(1)))
}

// servedShapes is the list fragserver.New computes classes over: the
// request shapes followed by the definitions' raw shapes.
func servedShapes(h *schema.Schema) []shape.Shape {
	out := append([]shape.Shape{}, core.SchemaRequests(h)...)
	for _, d := range h.Definitions() {
		out = append(out, d.Shape)
	}
	return out
}

// TestComputeClassesPinned pins the class tables of the schemas the
// benchmarks use: shape count, NumClasses, Shared and a checksum of Rep.
func TestComputeClassesPinned(t *testing.T) {
	parse := func(src string) *schema.Schema {
		t.Helper()
		h, err := shaclsyn.ParseSchema(src)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	file := func(name string) *schema.Schema {
		t.Helper()
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "shapes", name))
		if err != nil {
			t.Fatal(err)
		}
		return parse(string(src))
	}
	b57 := datagen.BenchmarkSchema()
	ttl, err := shaclsyn.Format(b57)
	if err != nil {
		t.Fatal(err)
	}
	served57 := parse(ttl) // what bench/ and cmd/fragserver -shapes serve
	tourism, workshop := file("tourism.ttl"), file("workshop.ttl")

	for _, tc := range []struct {
		name                    string
		h                       *schema.Schema
		shapes                  []shape.Shape
		n, classes, shared, sum int
	}{
		{"benchmark57/requests", b57, core.SchemaRequests(b57), 57, 57, 0, 73283},
		{"benchmark57/served", b57, servedShapes(b57), 114, 111, 3, 533054},
		{"served57/requests", served57, core.SchemaRequests(served57), 183, 151, 32, 1936623},
		{"served57/served", served57, servedShapes(served57), 366, 254, 112, 13671624},
		{"tourism/requests", tourism, core.SchemaRequests(tourism), 7, 7, 0, 308},
		{"tourism/served", tourism, servedShapes(tourism), 14, 14, 0, 1645},
		{"workshop/requests", workshop, core.SchemaRequests(workshop), 3, 3, 0, 50},
		{"workshop/served", workshop, servedShapes(workshop), 6, 5, 1, 212},
	} {
		cl := contain.ComputeClasses(tc.h, tc.shapes)
		sum := 0
		for i, r := range cl.Rep {
			sum += (i + 1) * (r + 7)
		}
		if len(tc.shapes) != tc.n || cl.NumClasses != tc.classes || cl.Shared != tc.shared || sum != tc.sum {
			t.Errorf("%s: %d shapes, %d classes, %d shared, Rep checksum %d; pinned %d, %d, %d, %d",
				tc.name, len(tc.shapes), cl.NumClasses, cl.Shared, sum,
				tc.n, tc.classes, tc.shared, tc.sum)
		}
	}
}
