package shape_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
	"shaclfrag/internal/tpf"
)

// clone rebuilds phi node for node with struct literals, bypassing the
// constructors' flattening, so no memo of phi is reachable from the copy.
func clone(phi shape.Shape) shape.Shape {
	switch x := phi.(type) {
	case *shape.True:
		return &shape.True{}
	case *shape.False:
		return &shape.False{}
	case *shape.HasShape:
		return &shape.HasShape{Name: x.Name}
	case *shape.Test:
		return &shape.Test{T: x.T}
	case *shape.HasValue:
		return &shape.HasValue{C: x.C}
	case *shape.Eq:
		return &shape.Eq{Path: x.Path, P: x.P}
	case *shape.Disj:
		return &shape.Disj{Path: x.Path, P: x.P}
	case *shape.Closed:
		return &shape.Closed{Allowed: append([]string(nil), x.Allowed...)}
	case *shape.LessThan:
		return &shape.LessThan{Path: x.Path, P: x.P}
	case *shape.LessThanEq:
		return &shape.LessThanEq{Path: x.Path, P: x.P}
	case *shape.UniqueLang:
		return &shape.UniqueLang{Path: x.Path}
	case *shape.MoreThan:
		return &shape.MoreThan{Path: x.Path, P: x.P}
	case *shape.MoreThanEq:
		return &shape.MoreThanEq{Path: x.Path, P: x.P}
	case *shape.Not:
		return &shape.Not{X: clone(x.X)}
	case *shape.And:
		return &shape.And{Xs: cloneAll(x.Xs)}
	case *shape.Or:
		return &shape.Or{Xs: cloneAll(x.Xs)}
	case *shape.MinCount:
		return &shape.MinCount{N: x.N, Path: x.Path, X: clone(x.X)}
	case *shape.MaxCount:
		return &shape.MaxCount{N: x.N, Path: x.Path, X: clone(x.X)}
	case *shape.Forall:
		return &shape.Forall{Path: x.Path, X: clone(x.X)}
	}
	panic("clone: unknown shape")
}

func cloneAll(xs []shape.Shape) []shape.Shape {
	out := make([]shape.Shape, len(xs))
	for i, x := range xs {
		out[i] = clone(x)
	}
	return out
}

// refNNF is negation normal form without memos, built fresh on every call:
// the specification shape.NNF and shape.NegNNF must render like.
func refNNF(phi shape.Shape, neg bool) shape.Shape {
	switch x := phi.(type) {
	case *shape.True:
		if neg {
			return shape.FalseShape()
		}
		return phi
	case *shape.False:
		if neg {
			return shape.TrueShape()
		}
		return phi
	case *shape.Not:
		return refNNF(x.X, !neg)
	case *shape.And:
		out := make([]shape.Shape, len(x.Xs))
		for i, c := range x.Xs {
			out[i] = refNNF(c, neg)
		}
		if neg {
			return shape.OrOf(out...)
		}
		return shape.AndOf(out...)
	case *shape.Or:
		out := make([]shape.Shape, len(x.Xs))
		for i, c := range x.Xs {
			out[i] = refNNF(c, neg)
		}
		if neg {
			return shape.AndOf(out...)
		}
		return shape.OrOf(out...)
	case *shape.MinCount:
		if !neg {
			return shape.Min(x.N, x.Path, refNNF(x.X, false))
		}
		if x.N == 0 {
			return shape.FalseShape()
		}
		return shape.Max(x.N-1, x.Path, refNNF(x.X, false))
	case *shape.MaxCount:
		if !neg {
			return shape.Max(x.N, x.Path, refNNF(x.X, false))
		}
		return shape.Min(x.N+1, x.Path, refNNF(x.X, false))
	case *shape.Forall:
		if !neg {
			return shape.All(x.Path, refNNF(x.X, false))
		}
		return shape.Min(1, x.Path, refNNF(x.X, true))
	}
	if neg {
		return shape.Neg(phi)
	}
	return phi
}

// idCorpus returns seeded random shapes with every subshape, each also as
// an independently built copy, a struct-literal clone, its normal forms,
// and, for counting quantifiers, a sibling with a different bound.
func idCorpus() []shape.Shape {
	var out []shape.Shape
	for seed := int64(0); seed < 200; seed++ {
		roots := []shape.Shape{
			shapetest.RandomShape(rand.New(rand.NewSource(seed)), 3),
			shapetest.RandomShape(rand.New(rand.NewSource(seed)), 3),
		}
		roots = append(roots, clone(roots[0]), shape.NNF(roots[0]), shape.NegNNF(roots[1]))
		for _, r := range roots {
			shape.Walk(r, func(s shape.Shape) {
				out = append(out, s)
				switch x := s.(type) {
				case *shape.MinCount:
					out = append(out, shape.Min(x.N+1, x.Path, x.X))
				case *shape.MaxCount:
					out = append(out, shape.Max(x.N+1, x.Path, x.X))
				}
			})
		}
	}
	// Struct literals the constructors never build: groups of zero and one
	// argument render as "" and as their argument in argument position.
	a, b := shape.NodeTestShape(shape.IsIRI{}), shape.Value(rdf.NewIRI("http://x/a"))
	ab := &shape.And{Xs: []shape.Shape{a, b}}
	return append(out,
		&shape.And{}, &shape.Or{},
		&shape.And{Xs: []shape.Shape{a}}, &shape.Or{Xs: []shape.Shape{a}},
		&shape.And{Xs: []shape.Shape{ab}}, &shape.Or{Xs: []shape.Shape{ab}},
		&shape.And{Xs: []shape.Shape{&shape.And{Xs: []shape.Shape{ab}}}},
		&shape.And{Xs: []shape.Shape{ab, b}}, shape.AndOf(ab, b),
		&shape.Not{X: &shape.And{Xs: []shape.Shape{a}}}, shape.Neg(a),
		&shape.Or{Xs: []shape.Shape{&shape.And{Xs: []shape.Shape{a}}, b}},
		shape.OrOf(a, b),
	)
}

// TestIDMatchesRendering: ID(a) == ID(b) exactly when a and b render
// equally, across copies, clones, normal forms and struct literals.
func TestIDMatchesRendering(t *testing.T) {
	byText := make(map[string]uint32)
	byID := make(map[uint32]string)
	for _, s := range idCorpus() {
		text, id := s.String(), shape.ID(s)
		if id == 0 {
			t.Fatalf("%q got id 0", text)
		}
		if prev, ok := byText[text]; ok && prev != id {
			t.Fatalf("%q has ids %d and %d", text, prev, id)
		}
		if prev, ok := byID[id]; ok && prev != text {
			t.Fatalf("id %d names both %q and %q", id, prev, text)
		}
		byText[text], byID[id] = id, text
	}
	if len(byText) < 1000 {
		t.Fatalf("corpus has only %d distinct renderings", len(byText))
	}
}

// TestNNFMemoized: NNF and NegNNF answer one pointer per node, render like
// a fresh unmemoized normalization, and are idempotent.
func TestNNFMemoized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		phi := shapetest.RandomShape(rand.New(rand.NewSource(seed)), 4)
		n, neg := shape.NNF(phi), shape.NegNNF(phi)
		if shape.NNF(phi) != n || shape.NegNNF(phi) != neg {
			t.Fatalf("seed %d: repeated normalization returned a new pointer", seed)
		}
		if want := refNNF(phi, false).String(); n.String() != want {
			t.Fatalf("seed %d: NNF(%s) = %s, want %s", seed, phi, n, want)
		}
		if want := refNNF(phi, true).String(); neg.String() != want {
			t.Fatalf("seed %d: NegNNF(%s) = %s, want %s", seed, phi, neg, want)
		}
		if !isNNF(n) || !isNNF(neg) {
			t.Fatalf("seed %d: result not in NNF", seed)
		}
		if shape.NNF(n) != n || shape.NNF(neg) != neg {
			t.Fatalf("seed %d: NNF is not idempotent on its own results", seed)
		}
	}
}

// TestIDAndNNFConcurrent: goroutines asking for the ids and normal forms
// of the same fresh shapes agree on one id and one pointer each. Run
// under -race, it also checks the memos are published safely.
func TestIDAndNNFConcurrent(t *testing.T) {
	const workers = 8
	shapes := make([]shape.Shape, 100)
	for i := range shapes {
		shapes[i] = shapetest.RandomShape(rand.New(rand.NewSource(int64(1000+i))), 4)
	}
	type answer struct {
		id       uint32
		nnf, neg shape.Shape
	}
	answers := make([][]answer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, s := range shapes {
				answers[w] = append(answers[w], answer{shape.ID(s), shape.NNF(s), shape.NegNNF(s)})
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i, a := range answers[w] {
			if a != answers[0][i] {
				t.Fatalf("shape %d: worker %d saw %+v, worker 0 saw %+v", i, w, a, answers[0][i])
			}
		}
	}
}

// TestRequestShapesLeaveIDTableAlone: /tpf builds a request shape out of
// client constants on every request and only prints it. The identity
// table must not grow with such traffic (ids are assigned on first ask).
func TestRequestShapesLeaveIDTableAlone(t *testing.T) {
	before := shape.IDTableSize()
	p := tpf.C(rdf.NewIRI("http://x/p"))
	for i := 0; i < 1000; i++ {
		c := tpf.C(rdf.NewIRI("http://x/c" + strconv.Itoa(i)))
		pattern := tpf.Pattern{S: c, P: p, O: tpf.V("o")}
		if i%2 == 1 {
			pattern = tpf.Pattern{S: tpf.V("s"), P: p, O: c}
		}
		phi, ok := pattern.RequestShape()
		if !ok {
			t.Fatalf("%s must be expressible", pattern)
		}
		_ = phi.String()
	}
	if after := shape.IDTableSize(); after != before {
		t.Fatalf("identity table grew from %d to %d keys", before, after)
	}
}
