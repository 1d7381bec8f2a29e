package sparqltrans

import (
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/sparql"
)

// Neighborhood builds Q_φ(?v,?s,?p,?o) (Proposition 5.3): its rows are
// exactly the tuples (v, s, p, o) with (s, p, o) ∈ B(v, G, φ), for v
// ranging over N(G). The shape is normalized to NNF internally, matching
// Definition 3.2.
func (t *Translator) Neighborhood(phi shape.Shape, v, s, p, o string) sparql.Op {
	return &sparql.Distinct{
		Inner: &sparql.Project{
			Inner: t.neigh(shape.NNF(phi), v, s, p, o),
			Vars:  []string{v, s, p, o},
		},
	}
}

// FragmentQuery builds Q_S(?s,?p,?o) (Corollary 5.5): its rows are exactly
// Frag(G, S).
func (t *Translator) FragmentQuery(requests []shape.Shape, s, p, o string) sparql.Op {
	ops := make([]sparql.Op, len(requests))
	for i, phi := range requests {
		v := t.freshVar("v")
		ops[i] = &sparql.Project{
			Inner: t.neigh(shape.NNF(phi), v, s, p, o),
			Vars:  []string{s, p, o},
		}
	}
	return &sparql.Distinct{Inner: sparql.UnionOf(ops...)}
}

// tripleRow extends inner (which binds subjVar/objVar etc.) with the output
// triple variables (s, p, o) := (subj, pred, obj).
func tripleRow(inner sparql.Op, s, p, o string, subj, pred, obj sparql.Expr) sparql.Op {
	return &sparql.Extend{
		Inner: &sparql.Extend{
			Inner: &sparql.Extend{Inner: inner, Var: s, E: subj},
			Var:   p, E: pred,
		},
		Var: o, E: obj,
	}
}

// neigh implements the Appendix C constructions. phi must be in NNF.
func (t *Translator) neigh(phi shape.Shape, v, s, p, o string) sparql.Op {
	empty := &sparql.Table{}
	switch x := phi.(type) {
	case *shape.True, *shape.False, *shape.Test, *shape.HasValue,
		*shape.Closed, *shape.Disj, *shape.LessThan, *shape.LessThanEq,
		*shape.MoreThan, *shape.MoreThanEq, *shape.UniqueLang:
		return empty

	case *shape.HasShape:
		return t.neigh(shape.NNF(shape.Resolve(t.defs, x.Name)), v, s, p, o)

	case *shape.And:
		ops := make([]sparql.Op, len(x.Xs))
		for i, c := range x.Xs {
			ops[i] = t.neigh(c, v, s, p, o)
		}
		return &sparql.Join{L: t.Conformance(phi, v), R: sparql.UnionOf(ops...)}

	case *shape.Or:
		// Every triple-producing construction guards itself with its own
		// conformance query, so non-conforming disjuncts contribute nothing.
		ops := make([]sparql.Op, len(x.Xs))
		for i, c := range x.Xs {
			ops[i] = t.neigh(c, v, s, p, o)
		}
		return &sparql.Join{L: t.Conformance(phi, v), R: sparql.UnionOf(ops...)}

	case *shape.MinCount:
		return t.quantified(phi, x.Path, x.X, v, s, p, o)

	case *shape.MaxCount:
		return t.quantified(phi, x.Path, shape.NegNNF(x.X), v, s, p, o)

	case *shape.Forall:
		h := t.freshVar("h")
		succ := &sparql.BGP{Patterns: []sparql.TriplePattern{
			{S: sparql.V(v), Path: x.Path, O: sparql.V(h)},
		}}
		trace := &sparql.Join{L: succ, R: &sparql.PathTrace{
			Path: x.Path, TVar: v, SVar: s, PVar: p, OVar: o, HVar: h,
		}}
		rec := &sparql.Join{L: succ, R: t.neigh(x.X, h, s, p, o)}
		return &sparql.Join{
			L: t.Conformance(phi, v),
			R: &sparql.Union{L: trace, R: rec},
		}

	case *shape.Eq:
		if x.Path == nil {
			inner := &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(v)},
			}}
			return &sparql.Join{
				L: t.Conformance(phi, v),
				R: tripleRow(inner, s, p, o, sparql.Vx(v), sparql.Cx(rdf.NewIRI(x.P)), sparql.Vx(v)),
			}
		}
		h := t.freshVar("h")
		union := paths.Alt{Left: x.Path, Right: paths.P(x.P)}
		return &sparql.Join{
			L: t.Conformance(phi, v),
			R: &sparql.PathTrace{Path: union, TVar: v, SVar: s, PVar: p, OVar: o, HVar: h},
		}

	case *shape.Not:
		return t.neighNegatedAtom(x.X, v, s, p, o)
	}
	panic("sparqltrans: shape not in NNF in neigh: " + phi.String())
}

// quantified builds the ≥n / ≤n / branch shared by the counting
// quantifiers: trace E-paths to witnesses satisfying body, plus the
// witnesses' own body-neighborhoods. body is ψ for ≥n and nnf(¬ψ) for ≤n.
func (t *Translator) quantified(phi shape.Shape, path paths.Expr, body shape.Shape, v, s, p, o string) sparql.Op {
	h := t.freshVar("h")
	witnesses := &sparql.Join{
		L: &sparql.BGP{Patterns: []sparql.TriplePattern{
			{S: sparql.V(v), Path: path, O: sparql.V(h)},
		}},
		R: t.Conformance(body, h),
	}
	trace := &sparql.Join{L: witnesses, R: &sparql.PathTrace{
		Path: path, TVar: v, SVar: s, PVar: p, OVar: o, HVar: h,
	}}
	rec := &sparql.Join{L: witnesses, R: t.neigh(body, h, s, p, o)}
	return &sparql.Join{
		L: t.Conformance(phi, v),
		R: &sparql.Union{L: trace, R: rec},
	}
}

// neighNegatedAtom implements the negated-atom rows of Appendix C.
func (t *Translator) neighNegatedAtom(atom shape.Shape, v, s, p, o string) sparql.Op {
	conf := t.Conformance(shape.Neg(atom), v)
	switch x := atom.(type) {
	case *shape.HasShape:
		return t.neigh(shape.NegNNF(shape.Resolve(t.defs, x.Name)), v, s, p, o)

	case *shape.True, *shape.False, *shape.Test, *shape.HasValue:
		return &sparql.Table{}

	case *shape.Closed:
		pp, oo := t.freshVar("p"), t.freshVar("o")
		allowed := make([]rdf.Term, len(x.Allowed))
		for i, a := range x.Allowed {
			allowed[i] = rdf.NewIRI(a)
		}
		inner := &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.V(pp), O: sparql.V(oo)},
			}},
			Cond: &sparql.InExpr{X: sparql.Vx(pp), Terms: allowed, Neg: true},
		}
		return &sparql.Join{
			L: conf,
			R: tripleRow(inner, s, p, o, sparql.Vx(v), sparql.Vx(pp), sparql.Vx(oo)),
		}

	case *shape.Eq:
		pTerm := rdf.NewIRI(x.P)
		if x.Path == nil {
			y := t.freshVar("y")
			inner := &sparql.Filter{
				Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
					{S: sparql.V(v), P: sparql.C(pTerm), O: sparql.V(y)},
				}},
				Cond: &sparql.Cmp{Op: sparql.CmpNeq, L: sparql.Vx(y), R: sparql.Vx(v)},
			}
			return &sparql.Join{
				L: conf,
				R: tripleRow(inner, s, p, o, sparql.Vx(v), sparql.Cx(pTerm), sparql.Vx(y)),
			}
		}
		h := t.freshVar("h")
		eNotP := &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(h)},
			}},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.C(pTerm), O: sparql.V(h)},
			}}},
		}
		branch1 := &sparql.Join{L: eNotP, R: &sparql.PathTrace{
			Path: x.Path, TVar: v, SVar: s, PVar: p, OVar: o, HVar: h,
		}}
		y := t.freshVar("y")
		pNotE := &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.C(pTerm), O: sparql.V(y)},
			}},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(y)},
			}}},
		}
		branch2 := tripleRow(pNotE, s, p, o, sparql.Vx(v), sparql.Cx(pTerm), sparql.Vx(y))
		return &sparql.Join{L: conf, R: &sparql.Union{L: branch1, R: branch2}}

	case *shape.Disj:
		pTerm := rdf.NewIRI(x.P)
		if x.Path == nil {
			inner := &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.C(pTerm), O: sparql.V(v)},
			}}
			return &sparql.Join{
				L: conf,
				R: tripleRow(inner, s, p, o, sparql.Vx(v), sparql.Cx(pTerm), sparql.Vx(v)),
			}
		}
		h := t.freshVar("h")
		common := &sparql.BGP{Patterns: []sparql.TriplePattern{
			{S: sparql.V(v), Path: x.Path, O: sparql.V(h)},
			{S: sparql.V(v), P: sparql.C(pTerm), O: sparql.V(h)},
		}}
		branch1 := &sparql.Join{L: common, R: &sparql.PathTrace{
			Path: x.Path, TVar: v, SVar: s, PVar: p, OVar: o, HVar: h,
		}}
		branch2 := tripleRow(common, s, p, o, sparql.Vx(v), sparql.Cx(pTerm), sparql.Vx(h))
		return &sparql.Join{L: conf, R: &sparql.Union{L: branch1, R: branch2}}

	case *shape.LessThan:
		return t.negOrder(conf, x.Path, x.P, sparql.CmpNotLess, false, v, s, p, o)

	case *shape.LessThanEq:
		return t.negOrder(conf, x.Path, x.P, sparql.CmpNotLessEq, false, v, s, p, o)

	case *shape.MoreThan:
		return t.negOrder(conf, x.Path, x.P, sparql.CmpNotLess, true, v, s, p, o)

	case *shape.MoreThanEq:
		return t.negOrder(conf, x.Path, x.P, sparql.CmpNotLessEq, true, v, s, p, o)

	case *shape.UniqueLang:
		a, b := t.freshVar("h"), t.freshVar("y")
		clash := &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(a)},
				{S: sparql.V(v), Path: x.Path, O: sparql.V(b)},
			}},
			Cond: sparql.AndOf(
				&sparql.Cmp{Op: sparql.CmpNeq, L: sparql.Vx(a), R: sparql.Vx(b)},
				&sparql.SameLangExpr{L: sparql.Vx(a), R: sparql.Vx(b)},
			),
		}
		return &sparql.Join{
			L: conf,
			R: &sparql.Join{L: clash, R: &sparql.PathTrace{
				Path: x.Path, TVar: v, SVar: s, PVar: p, OVar: o, HVar: a,
			}},
		}
	}
	panic("sparqltrans: unexpected negated atom " + atom.String())
}

// negOrder builds the ¬lessThan / ¬lessThanEq (and, with swap, ¬moreThan /
// ¬moreThanEq) rows: witness pairs (x, y) violating the order contribute
// the E-trace to x and the (v, p, y) edge.
func (t *Translator) negOrder(conf sparql.Op, path paths.Expr, p string, violation sparql.CmpOp, swap bool, v, s, pp, o string) sparql.Op {
	a, b := t.freshVar("h"), t.freshVar("y")
	pTerm := rdf.NewIRI(p)
	l, r := sparql.Vx(a), sparql.Vx(b)
	if swap {
		l, r = r, l
	}
	pairs := &sparql.Filter{
		Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
			{S: sparql.V(v), Path: path, O: sparql.V(a)},
			{S: sparql.V(v), P: sparql.C(pTerm), O: sparql.V(b)},
		}},
		Cond: &sparql.Cmp{Op: violation, L: l, R: r},
	}
	branch1 := &sparql.Join{L: pairs, R: &sparql.PathTrace{
		Path: path, TVar: v, SVar: s, PVar: pp, OVar: o, HVar: a,
	}}
	branch2 := tripleRow(pairs, s, pp, o, sparql.Vx(v), sparql.Cx(pTerm), sparql.Vx(b))
	return &sparql.Join{L: conf, R: &sparql.Union{L: branch1, R: branch2}}
}
