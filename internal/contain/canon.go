package contain

import (
	"cmp"
	"slices"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// Canonical returns phi's canonical form under the neighborhood
// congruence: two shapes whose canonical forms have equal shape.IDs
// conform on exactly the same nodes AND have byte-identical neighborhoods
// B(v, G, ·) on every graph and focus node, so a neighborhood cache may
// serve one's entries for the other (see ComputeClasses).
//
// This is deliberately stricter than mutual containment. Equivalent
// shapes can trace different triples — Or(φ) and Or(φ, φ∧eq(q)) are
// mutually contained, but the second traces the eq edges of its extra
// disjunct — so the congruence admits only rewrites proved to commute
// with the Table 2 trace semantics AND with negation normal form (≤n
// bodies are traced through their negation):
//
//   - NNF normalization;
//   - hasShape inlining (B(v, hasShape(s)) is exactly B(v, nnf(def(s)));
//     undefined names are ⊤, the evaluator's default);
//   - ∧/∨ argument sorting and deduplication (arguments are already flat:
//     the constructors flatten, and canonical arguments are not merged
//     into their parent);
//   - dropping literal ⊤ conjuncts and literal ⊥ disjuncts.
//
// Notably absent: shapelint's folding (≥0 E.φ → ⊤ changes traced bytes:
// a conforming ≥0 still traces its conforming successors), ⊥-collapse of
// conjunctions (¬(φ∧⊥) = ¬φ∨⊤ still traces ¬φ under a ≤n body), and
// ⊤-collapse of disjunctions (a ⊤ disjunct flips conformance of the
// whole disjunction without contributing triples).
func Canonical(h *schema.Schema, phi shape.Shape) shape.Shape {
	c := canonizer{h: h, visiting: make(map[rdf.Term]bool)}
	return c.canon(shape.NNF(phi))
}

type canonizer struct {
	h        *schema.Schema
	visiting map[rdf.Term]bool
}

// canon builds the canonical node of an NNF shape. Callers must pass NNF
// input; recursion preserves it.
func (c *canonizer) canon(phi shape.Shape) shape.Shape {
	switch x := phi.(type) {
	case *shape.HasShape:
		return c.inline(x.Name, false)
	case *shape.Not:
		if ref, ok := x.X.(*shape.HasShape); ok {
			return c.inline(ref.Name, true)
		}
	case *shape.And:
		return c.nary(x.Xs, shape.TrueShape(), func(xs []shape.Shape) shape.Shape { return &shape.And{Xs: xs} })
	case *shape.Or:
		return c.nary(x.Xs, shape.FalseShape(), func(xs []shape.Shape) shape.Shape { return &shape.Or{Xs: xs} })
	case *shape.MinCount:
		if body := c.canon(x.X); body != x.X {
			return &shape.MinCount{N: x.N, Path: x.Path, X: body}
		}
	case *shape.MaxCount:
		if body := c.canon(x.X); body != x.X {
			return &shape.MaxCount{N: x.N, Path: x.Path, X: body}
		}
	case *shape.Forall:
		if body := c.canon(x.X); body != x.X {
			return &shape.Forall{Path: x.Path, X: body}
		}
	}
	// ⊤, ⊥, atoms, negated atoms and unchanged quantifiers are canonical.
	return phi
}

// nary canonicalizes ∧/∨ arguments: drop the unit (⊤ for ∧, ⊥ for ∨; the
// opposite constant must NOT be dropped or collapsed), dedupe and sort by
// id. It builds the node directly: a canonical argument that is itself a
// conjunction stays one argument, as the congruence requires.
func (c *canonizer) nary(xs []shape.Shape, unit shape.Shape, build func([]shape.Shape) shape.Shape) shape.Shape {
	kids, unitID := make([]shape.Shape, 0, len(xs)), shape.ID(unit)
	for _, x := range xs {
		k := c.canon(x)
		id := shape.ID(k)
		if id == unitID || slices.ContainsFunc(kids, func(y shape.Shape) bool { return shape.ID(y) == id }) {
			continue
		}
		kids = append(kids, k)
	}
	switch len(kids) {
	case 0:
		return unit
	case 1:
		return kids[0]
	}
	slices.SortFunc(kids, func(a, b shape.Shape) int { return cmp.Compare(shape.ID(a), shape.ID(b)) })
	return build(kids)
}

// inline resolves a (possibly negated) reference to its definition's
// canonical form, mirroring the extractor: B(v, hasShape(s)) is
// B(v, nnf(def)) and B(v, ¬hasShape(s)) is B(v, negNNF(def)); undefined
// names resolve to ⊤. The cycle guard keeps recursive references as
// they are — schema.New rejects cycles, so it only protects hand-built
// schemas from divergence.
func (c *canonizer) inline(name rdf.Term, negated bool) shape.Shape {
	if c.visiting[name] {
		if negated {
			return shape.Neg(shape.Ref(name))
		}
		return shape.Ref(name)
	}
	body := shape.Shape(shape.TrueShape())
	if c.h != nil {
		if b, ok := c.h.Def(name); ok {
			body = b
		}
	}
	c.visiting[name] = true
	defer delete(c.visiting, name)
	if negated {
		return c.canon(shape.NegNNF(body))
	}
	return c.canon(shape.NNF(body))
}
