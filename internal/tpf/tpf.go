// Package tpf implements Triple Pattern Fragments (Section 6.1): the
// subgraph-returning queries defined by a single triple pattern, and the
// Proposition 6.2 mapping of expressible TPFs onto request shapes whose
// shape fragments return the same subgraph.
package tpf

import (
	"fmt"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Pos is one position of a triple pattern: a variable (Var non-empty) or a
// constant term.
type Pos struct {
	Var  string
	Term rdf.Term
}

// V makes a variable position.
func V(name string) Pos { return Pos{Var: name} }

// C makes a constant position.
func C(t rdf.Term) Pos { return Pos{Term: t} }

// IsVar reports whether the position is a variable.
func (p Pos) IsVar() bool { return p.Var != "" }

func (p Pos) String() string {
	if p.IsVar() {
		return "?" + p.Var
	}
	return p.Term.String()
}

// Pattern is a triple pattern (u, v, w). Repeated variable names impose
// equality, e.g. (?x, p, ?x) matches only self-loops.
type Pattern struct {
	S, P, O Pos
}

func (p Pattern) String() string {
	return fmt.Sprintf("(%s, %s, %s)", p.S, p.P, p.O)
}

// Eval returns the TPF of g for the pattern: all images of the pattern in
// g, i.e. the matching triples, in canonical order.
func (p Pattern) Eval(g rdfgraph.Reader) []rdf.Triple {
	return g.Dict().DecodeTriples(p.EvalIDs(g))
}

// EvalIDs is Eval short of decoding. It decides Matches on dictionary IDs:
// a constant the dictionary has never seen matches nothing, and equal IDs
// are equal terms.
func (p Pattern) EvalIDs(g rdfgraph.Reader) []rdfgraph.IDTriple {
	pos := [3]Pos{p.S, p.P, p.O}
	var want [3]rdfgraph.ID // a constant's ID, NoID for a variable
	var same [3]int         // the first position holding the same variable
	for i, q := range pos {
		want[i], same[i] = rdfgraph.NoID, i
		if !q.IsVar() {
			if want[i] = g.LookupTerm(q.Term); want[i] == rdfgraph.NoID {
				return nil
			}
			continue
		}
		for j := 0; j < i; j++ {
			if pos[j].Var == q.Var {
				same[i] = j
				break
			}
		}
	}
	var out []rdfgraph.IDTriple
	g.EachTriple(func(s, pr, o rdfgraph.ID) {
		t := [3]rdfgraph.ID{s, pr, o}
		for i := range t {
			if (want[i] != rdfgraph.NoID && t[i] != want[i]) || t[i] != t[same[i]] {
				return
			}
		}
		out = append(out, rdfgraph.IDTriple{S: s, P: pr, O: o})
	})
	rdfgraph.SortIDTriples(g.Dict(), out)
	return out
}

// Matches reports whether the triple is an image of the pattern.
func (p Pattern) Matches(t rdf.Triple) bool {
	bind := map[string]rdf.Term{}
	for _, pair := range []struct {
		pos  Pos
		term rdf.Term
	}{{p.S, t.S}, {p.P, t.P}, {p.O, t.O}} {
		if !pair.pos.IsVar() {
			if pair.pos.Term != pair.term {
				return false
			}
			continue
		}
		if prev, ok := bind[pair.pos.Var]; ok {
			if prev != pair.term {
				return false
			}
			continue
		}
		bind[pair.pos.Var] = pair.term
	}
	return true
}

// RequestShape implements Proposition 6.2: it returns a request shape φ
// with Frag(G, {φ}) = pattern(G) for every graph G, and ok = false for the
// TPF forms that are not expressible as shape fragments (variables in the
// property position combined with constants or repeated variables).
//
// The seven expressible forms and their shapes:
//
//	(?x, p, ?y) → ≥1 p.⊤
//	(?x, p, c)  → ≥1 p.hasValue(c)
//	(c, p, ?x)  → ≥1 p⁻.hasValue(c)
//	(c, p, d)   → hasValue(c) ∧ ≥1 p.hasValue(d)
//	(?x, p, ?x) → ¬disj(id, p)
//	(?x, ?y, ?z) → ¬closed(∅)
//	(c, ?y, ?z)  → hasValue(c) ∧ ¬closed(∅)
func (p Pattern) RequestShape() (shape.Shape, bool) {
	if !p.P.IsVar() {
		if !p.P.Term.IsIRI() {
			return nil, false // predicates must be IRIs
		}
		prop := p.P.Term.Value
		e := paths.P(prop)
		switch {
		case !p.S.IsVar() && !p.O.IsVar():
			// (c, p, d)
			return shape.AndOf(shape.Value(p.S.Term), shape.Min(1, e, shape.Value(p.O.Term))), true
		case !p.S.IsVar():
			// (c, p, ?x)
			return shape.Min(1, paths.Inv(e), shape.Value(p.S.Term)), true
		case !p.O.IsVar():
			// (?x, p, c)
			return shape.Min(1, e, shape.Value(p.O.Term)), true
		case p.S.Var == p.O.Var:
			// (?x, p, ?x)
			return shape.Neg(shape.DisjID(prop)), true
		default:
			// (?x, p, ?y)
			return shape.Min(1, e, shape.TrueShape()), true
		}
	}
	// Variable property position: only full scans (?x,?y,?z) and
	// subject-constant scans (c,?y,?z) are expressible, via ¬closed(∅).
	if p.O.IsVar() && p.O.Var != p.P.Var {
		switch {
		case !p.S.IsVar():
			return shape.AndOf(shape.Value(p.S.Term), shape.Neg(shape.ClosedShape())), true
		case p.S.Var != p.P.Var && p.S.Var != p.O.Var:
			return shape.Neg(shape.ClosedShape()), true
		}
	}
	return nil, false
}
