// Package contain decides shape containment: given two shape formulas
// φ1 and φ2 (each interpreted against its own schema), is every node
// conforming to φ1 on every graph also conforming to φ2? The full
// problem is intractable for the paper's shape algebra, so the checker
// is three-valued and sound-but-incomplete:
//
//   - Contained — proved: ⟦φ1⟧ ⊆ ⟦φ2⟧ on every graph.
//   - NotContained — refuted: a concrete witness graph and node conform
//     to φ1 but not φ2 (produced by the random-graph refuter, refute.go).
//   - Unknown — neither; always safe for callers to treat as "no".
//
// The structural core (this file) applies subsumption rules over NNF:
// conjunct weakening, disjunct widening, cardinality interval inclusion
// (≥n ⊑ ≥m for n ≥ m), node-test implication, value/class inclusion,
// path language inclusion (paths.go), and coinductive discharge of
// hasShape pairs through an assumption set. It reuses shapelint's
// constant folder as validity/unsatisfiability probes: φ1 folding to ⊥
// or φ2 folding to ⊤ settles containment immediately.
//
// On top of the checker the package derives three operational analyses:
// cache-sharing equivalence classes for fragserver (classes.go, canon.go),
// schema diffing for `shaclfrag schema-diff` (diff.go), and the SL010/
// SL011 subsumption lints (lint.go).
package contain

import (
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapelint"
)

// Verdict is the checker's three-valued answer.
type Verdict int

const (
	// Unknown means the checker could neither prove nor refute
	// containment. Sound callers treat it as "not contained".
	Unknown Verdict = iota
	// Contained means containment is proved: on every graph, every node
	// conforming to the left shape conforms to the right shape.
	Contained
	// NotContained means containment is refuted by a concrete witness
	// (see Checker.Check and Witness).
	NotContained
)

func (v Verdict) String() string {
	switch v {
	case Contained:
		return "contained"
	case NotContained:
		return "not-contained"
	case Unknown:
		return "unknown"
	}
	return "verdict(?)"
}

// Checker decides φ1 ⊑ φ2 with φ1 interpreted against a left schema and
// φ2 against a right schema (the two coincide for single-schema
// questions; they differ when diffing schema versions). A Checker is not
// safe for concurrent use, and it keeps every shape it is asked about
// alive: what it derives from a shape node alone is tabled by the node's
// pointer (see side), so shapes must not be mutated once asked about.
type Checker struct {
	l, r *side // φ1's and φ2's schema; one side when the schemas coincide

	// flip decides the reverse direction (right ⊑ left) and serves the
	// contravariant positions: ≤n bodies and negated atoms.
	flip *Checker

	// memo caches sub results per (left key id, right key id) pair. Only
	// entries derived without live coinductive assumptions are stored.
	memo map[[2]uint32]Verdict
	// assume holds hasShape pairs currently being discharged: while
	// proving hasShape(a) ⊑ hasShape(b) the pair is assumed, so a
	// recursive re-encounter concludes coinductively.
	assume map[[2]rdf.Term]bool
	// active guards against divergence on schemas with reference cycles
	// (schema.New rejects them, but hand-built Defs could not).
	active map[[2]uint32]bool
}

// side is one schema's view of the shape nodes a checker meets. Rendering
// a node, folding it and normalising it depend on the node and the schema
// only — never on the question asked — so each is done on first sight and
// tabled by the node's pointer; NNF shares unchanged subtrees, so a shape
// asked about twice is the same nodes twice. Sound because Shape.String,
// shape.NNF and Folder.Fold are pure (TestSharedCheckerAgreesWithFresh).
type side struct {
	h    *schema.Schema
	fold *shapelint.Folder
	// keys interns renderings; both sides of a checker and of its flip
	// share one table, so equal ids mean equal renderings across sides.
	keys  map[string]uint32
	nnfs  map[shape.Shape]shape.Shape
	facts map[shape.Shape]facts
}

// facts is what a side knows about one NNF node.
type facts struct {
	id           uint32 // interned key(node)
	unsat, valid bool   // the side's folder rewrites the node to ⊥, to ⊤
}

func newSide(h *schema.Schema, keys map[string]uint32) *side {
	return &side{h: h, fold: shapelint.NewFolder(h), keys: keys,
		nnfs: make(map[shape.Shape]shape.Shape), facts: make(map[shape.Shape]facts)}
}

func (s *side) nnf(phi shape.Shape) shape.Shape {
	n, ok := s.nnfs[phi]
	if !ok {
		n = shape.NNF(phi)
		s.nnfs[phi] = n
	}
	return n
}

func (s *side) of(x shape.Shape) facts {
	f, ok := s.facts[x]
	if !ok {
		k := key(x)
		if f.id, ok = s.keys[k]; !ok {
			f.id = uint32(len(s.keys))
			s.keys[k] = f.id
		}
		folded := s.fold.Fold(x)
		f.unsat, f.valid = isFalse(folded), isTrue(folded)
		s.facts[x] = f
	}
	return f
}

// resolve returns the NNF body of a reference; undefined names are ⊤, the
// evaluator's default.
func (s *side) resolve(r *shape.HasShape) shape.Shape {
	if s.h != nil {
		if def, ok := s.h.Def(r.Name); ok {
			return s.nnf(def)
		}
	}
	return top
}

var top = shape.TrueShape()

// New builds a checker for φ1 ⊑ φ2 with φ1 resolved against left and φ2
// against right. Nil schemas are allowed (hasShape then resolves to ⊤,
// matching the evaluator's default for undefined names).
func New(left, right *schema.Schema) *Checker {
	l := newSide(left, make(map[string]uint32))
	r := l
	if left != right {
		r = newSide(right, l.keys)
	}
	c, f := newChecker(l, r), newChecker(r, l)
	c.flip, f.flip = f, c
	return c
}

func newChecker(l, r *side) *Checker {
	return &Checker{l: l, r: r, memo: make(map[[2]uint32]Verdict),
		assume: make(map[[2]rdf.Term]bool), active: make(map[[2]uint32]bool)}
}

// sameSchema reports whether both sides resolve hasShape identically, so
// syntactic equality implies semantic equality.
func (c *Checker) sameSchema() bool { return c.l == c.r }

// Contains runs the structural checker on φ1 ⊑ φ2. It returns Contained
// or Unknown, never NotContained — use Check to also attempt refutation.
func (c *Checker) Contains(phi1, phi2 shape.Shape) Verdict {
	return c.sub(c.l.nnf(phi1), c.r.nnf(phi2))
}

// Equivalent reports mutual containment: Contained when φ1 ⊑ φ2 and
// φ2 ⊑ φ1 are both proved, Unknown otherwise.
func (c *Checker) Equivalent(phi1, phi2 shape.Shape) Verdict {
	if c.Contains(phi1, phi2) == Contained && c.flip.Contains(phi2, phi1) == Contained {
		return Contained
	}
	return Unknown
}

// sub is the structural subsumption judgment over NNF shapes: a is
// interpreted in the left schema, b in the right. It returns Contained
// only when the applied rules prove ⟦a⟧ ⊆ ⟦b⟧ on every graph.
func (c *Checker) sub(a, b shape.Shape) Verdict {
	if isFalse(a) || isTrue(b) {
		return Contained
	}
	fa, fb := c.l.of(a), c.r.of(b)
	pair := [2]uint32{fa.id, fb.id}
	if v, ok := c.memo[pair]; ok {
		return v
	}
	if c.active[pair] {
		return Unknown
	}
	c.active[pair] = true
	v := c.subRules(a, b, fa, fb)
	delete(c.active, pair)
	// Results proved under a live assumption are provisional until the
	// assumption discharges; only assumption-free results are cached.
	if len(c.assume) == 0 && len(c.flip.assume) == 0 {
		c.memo[pair] = v
	}
	return v
}

func (c *Checker) subRules(a, b shape.Shape, fa, fb facts) Verdict {
	// Validity probes through the constant folder: an unsatisfiable left
	// or valid right side settles the question.
	if fa.unsat || fb.valid {
		return Contained
	}

	// Reflexivity. Cross-schema it only applies when the formula cannot
	// reference definitions, since hasShape resolves differently per side.
	if fa.id == fb.id && (c.sameSchema() || len(shape.ShapeRefs(a)) == 0) {
		return Contained
	}

	// hasShape: discharge pairs coinductively via the assumption set,
	// unfold single-sided references through their own schema.
	ra, aRef := a.(*shape.HasShape)
	rb, bRef := b.(*shape.HasShape)
	switch {
	case aRef && bRef:
		k := [2]rdf.Term{ra.Name, rb.Name}
		if c.assume[k] {
			return Contained
		}
		c.assume[k] = true
		v := c.sub(c.l.resolve(ra), c.r.resolve(rb))
		delete(c.assume, k)
		return v
	case aRef:
		return c.sub(c.l.resolve(ra), b)
	case bRef:
		return c.sub(a, c.r.resolve(rb))
	}

	// a ⊑ ∧ψi iff a ⊑ ψi for every i.
	if and, ok := b.(*shape.And); ok {
		all := true
		for _, bi := range and.Xs {
			if c.sub(a, bi) != Contained {
				all = false
				break
			}
		}
		if all {
			return Contained
		}
	}
	// ∨φi ⊑ b iff φi ⊑ b for every i.
	if or, ok := a.(*shape.Or); ok {
		all := true
		for _, ai := range or.Xs {
			if c.sub(ai, b) != Contained {
				all = false
				break
			}
		}
		if all {
			return Contained
		}
	}
	// Conjunct weakening: ∧φi ⊑ b if some φi ⊑ b.
	if and, ok := a.(*shape.And); ok {
		for _, ai := range and.Xs {
			if c.sub(ai, b) == Contained {
				return Contained
			}
		}
	}
	// Disjunct widening: a ⊑ ∨ψi if a ⊑ some ψi.
	if or, ok := b.(*shape.Or); ok {
		for _, bi := range or.Xs {
			if c.sub(a, bi) == Contained {
				return Contained
			}
		}
	}

	return c.atomSub(a, b)
}

// atomSub covers the quantifier and atom rules once the boolean
// structure is exhausted.
func (c *Checker) atomSub(a, b shape.Shape) Verdict {
	switch x := a.(type) {
	case *shape.MinCount:
		// ≥n E.φ ⊑ ≥m F.ψ when n ≥ m, L(E) ⊆ L(F) and φ ⊑ ψ: the n
		// witnesses are m-or-more F-successors conforming to ψ.
		if y, ok := b.(*shape.MinCount); ok {
			if x.N >= y.N && pathSub(x.Path, y.Path) && c.sub(x.X, y.X) == Contained {
				return Contained
			}
		}
	case *shape.MaxCount:
		// ≤n E.φ ⊑ ≤m F.ψ when n ≤ m, L(F) ⊆ L(E) and ψ ⊑ φ: every
		// F-successor conforming to ψ is an E-successor conforming to φ,
		// of which there are at most n ≤ m. ψ ⊑ φ is right-in-left — the
		// flipped judgment.
		if y, ok := b.(*shape.MaxCount); ok {
			if x.N <= y.N && pathSub(y.Path, x.Path) && c.flip.sub(y.X, x.X) == Contained {
				return Contained
			}
		}
	case *shape.Forall:
		switch y := b.(type) {
		case *shape.Forall:
			// ∀E.φ ⊑ ∀F.ψ when L(F) ⊆ L(E) and φ ⊑ ψ.
			if pathSub(y.Path, x.Path) && c.sub(x.X, y.X) == Contained {
				return Contained
			}
		case *shape.MaxCount:
			// ∀E.φ ⊑ ≤m F.ψ when L(F) ⊆ L(E) and φ ∧ ψ is unsatisfiable:
			// every F-successor conforms to φ, so none conforms to ψ and
			// the count is 0 ≤ m. The joint probe needs both bodies in
			// one schema; restrict to reference-free bodies otherwise.
			if pathSub(y.Path, x.Path) &&
				(c.sameSchema() || len(shape.ShapeRefs(x.X))+len(shape.ShapeRefs(y.X)) == 0) &&
				isFalse(c.l.fold.Fold(shape.AndOf(x.X, y.X))) {
				return Contained
			}
		}
	case *shape.HasValue:
		switch y := b.(type) {
		case *shape.Test:
			if y.T.Holds(x.C) {
				return Contained
			}
		case *shape.Not:
			switch z := y.X.(type) {
			case *shape.Test:
				if !z.T.Holds(x.C) {
					return Contained
				}
			case *shape.HasValue:
				if x.C != z.C {
					return Contained
				}
			}
		}
	case *shape.Test:
		switch y := b.(type) {
		case *shape.Test:
			if testImplies(x.T, y.T) {
				return Contained
			}
		case *shape.Not:
			switch z := y.X.(type) {
			case *shape.Test:
				if shapelint.TestsConflict(x.T, z.T) {
					return Contained
				}
			case *shape.HasValue:
				if !x.T.Holds(z.C) {
					return Contained
				}
			}
		}
	case *shape.Closed:
		// closed(P) ⊑ closed(Q) when P ⊆ Q: allowing fewer properties is
		// stricter.
		if y, ok := b.(*shape.Closed); ok && subsetSorted(x.Allowed, y.Allowed) {
			return Contained
		}
	case *shape.Not:
		// ¬φ ⊑ ¬ψ iff ψ ⊑ φ (contrapositive, sides swapped).
		if y, ok := b.(*shape.Not); ok {
			if c.flip.sub(y.X, x.X) == Contained {
				return Contained
			}
		}
	}
	return Unknown
}

// subsetSorted reports a ⊆ b for ascending string slices.
func subsetSorted(a, b []string) bool {
	i := 0
	for _, p := range a {
		for i < len(b) && b[i] < p {
			i++
		}
		if i == len(b) || b[i] != p {
			return false
		}
	}
	return true
}

func isTrue(s shape.Shape) bool  { _, ok := s.(*shape.True); return ok }
func isFalse(s shape.Shape) bool { _, ok := s.(*shape.False); return ok }

// key renders a shape for memoization; String renderings are
// deterministic and parameter-complete.
func key(s shape.Shape) string { return s.String() }
