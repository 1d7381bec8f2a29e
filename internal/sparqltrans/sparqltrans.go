// Package sparqltrans translates shapes into SPARQL algebra, implementing
// Section 5.1 of the paper:
//
//   - Conformance queries CQ_φ(?v) return the nodes of N(G) that conform
//     to φ (the known result the paper builds on);
//   - Neighborhood queries Q_φ(?v,?s,?p,?o) return exactly the tuples with
//     (s,p,o) ∈ B(v,G,φ) (Proposition 5.3);
//   - Fragment queries Q_S(?s,?p,?o) return Frag(G,S) (Corollary 5.5).
//
// The constructions follow Appendix C, with the path-trace subqueries Q_E of
// Lemma 5.1 realized by the sparql.PathTrace operator. Rendering the
// resulting algebra with sparql.Render produces concrete SPARQL text whose
// shape mirrors the paper's generated queries.
package sparqltrans

import (
	"fmt"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/sparql"
)

// Translator builds SPARQL algebra from shapes in the context of a schema.
type Translator struct {
	defs  shape.Defs
	fresh int
}

// New returns a translator; defs may be nil for schema-free shapes.
func New(defs shape.Defs) *Translator {
	return &Translator{defs: defs}
}

func (t *Translator) freshVar(prefix string) string {
	t.fresh++
	return fmt.Sprintf("%s%d", prefix, t.fresh)
}

// Conformance builds CQ_φ(?v): the query returning every node of N(G)
// conforming to φ. Unlike neighborhoods, CQ accepts arbitrary shapes (not
// only NNF).
func (t *Translator) Conformance(phi shape.Shape, v string) sparql.Op {
	switch x := phi.(type) {
	case *shape.True:
		return &sparql.AllNodes{Var: v}
	case *shape.False:
		return &sparql.Table{}
	case *shape.HasValue:
		return &sparql.Join{
			L: &sparql.Table{Rows: []sparql.Binding{{v: x.C}}},
			R: &sparql.AllNodes{Var: v},
		}
	case *shape.Test:
		return &sparql.Filter{
			Inner: &sparql.AllNodes{Var: v},
			Cond:  &sparql.NodeTestExpr{Name: v, Test: x.T},
		}
	case *shape.HasShape:
		return t.Conformance(shape.Resolve(t.defs, x.Name), v)
	case *shape.Not:
		return &sparql.Minus{L: &sparql.AllNodes{Var: v}, R: t.Conformance(x.X, v)}
	case *shape.And:
		ops := make([]sparql.Op, len(x.Xs))
		for i, c := range x.Xs {
			ops[i] = t.Conformance(c, v)
		}
		return sparql.JoinOf(ops...)
	case *shape.Or:
		ops := make([]sparql.Op, len(x.Xs))
		for i, c := range x.Xs {
			ops[i] = t.Conformance(c, v)
		}
		return &sparql.Distinct{Inner: sparql.UnionOf(ops...)}
	case *shape.MinCount:
		if x.N == 0 {
			return &sparql.AllNodes{Var: v}
		}
		h := t.freshVar("x")
		c := t.freshVar("cnt")
		inner := &sparql.Join{
			L: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(h)},
			}},
			R: t.Conformance(x.X, h),
		}
		return &sparql.Project{
			Inner: &sparql.Filter{
				Inner: &sparql.GroupCount{Inner: inner, By: []string{v}, CountVar: c},
				Cond: &sparql.Cmp{Op: sparql.CmpNotLess,
					L: sparql.Vx(c), R: sparql.Cx(rdf.NewInteger(int64(x.N)))},
			},
			Vars: []string{v},
		}
	case *shape.MaxCount:
		h := t.freshVar("x")
		c := t.freshVar("cnt")
		inner := &sparql.Join{
			L: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(h)},
			}},
			R: t.Conformance(x.X, h),
		}
		tooMany := &sparql.Project{
			Inner: &sparql.Filter{
				Inner: &sparql.GroupCount{Inner: inner, By: []string{v}, CountVar: c},
				Cond: &sparql.Cmp{Op: sparql.CmpNotLessEq,
					L: sparql.Vx(c), R: sparql.Cx(rdf.NewInteger(int64(x.N)))},
			},
			Vars: []string{v},
		}
		return &sparql.Minus{L: &sparql.AllNodes{Var: v}, R: tooMany}
	case *shape.Forall:
		h := t.freshVar("x")
		violating := &sparql.Project{
			Inner: &sparql.Join{
				L: &sparql.BGP{Patterns: []sparql.TriplePattern{
					{S: sparql.V(v), Path: x.Path, O: sparql.V(h)},
				}},
				R: &sparql.Minus{L: &sparql.AllNodes{Var: h}, R: t.Conformance(x.X, h)},
			},
			Vars: []string{v},
		}
		return &sparql.Minus{L: &sparql.AllNodes{Var: v}, R: violating}
	case *shape.Eq:
		if x.Path == nil {
			y := t.freshVar("x")
			return &sparql.Filter{
				Inner: &sparql.AllNodes{Var: v},
				Cond: sparql.AndOf(
					&sparql.ExistsExpr{Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
						{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(v)},
					}}},
					&sparql.ExistsExpr{Neg: true, Op: &sparql.Filter{
						Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
							{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(y)},
						}},
						Cond: &sparql.Cmp{Op: sparql.CmpNeq, L: sparql.Vx(y), R: sparql.Vx(v)},
					}},
				),
			}
		}
		y := t.freshVar("x")
		onlyE := &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(y)},
			}},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(y)},
			}}},
		}
		onlyP := &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(y)},
			}},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(y)},
			}}},
		}
		return &sparql.Filter{
			Inner: &sparql.AllNodes{Var: v},
			Cond: sparql.AndOf(
				&sparql.ExistsExpr{Neg: true, Op: onlyE},
				&sparql.ExistsExpr{Neg: true, Op: onlyP},
			),
		}
	case *shape.Disj:
		if x.Path == nil {
			return &sparql.Filter{
				Inner: &sparql.AllNodes{Var: v},
				Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
					{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(v)},
				}}},
			}
		}
		y := t.freshVar("x")
		return &sparql.Filter{
			Inner: &sparql.AllNodes{Var: v},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: x.Path, O: sparql.V(y)},
				{S: sparql.V(v), P: sparql.C(rdf.NewIRI(x.P)), O: sparql.V(y)},
			}}},
		}
	case *shape.Closed:
		pp, oo := t.freshVar("p"), t.freshVar("o")
		allowed := make([]rdf.Term, len(x.Allowed))
		for i, a := range x.Allowed {
			allowed[i] = rdf.NewIRI(a)
		}
		return &sparql.Filter{
			Inner: &sparql.AllNodes{Var: v},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.Filter{
				Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
					{S: sparql.V(v), P: sparql.V(pp), O: sparql.V(oo)},
				}},
				Cond: &sparql.InExpr{X: sparql.Vx(pp), Terms: allowed, Neg: true},
			}},
		}
	case *shape.LessThan:
		return t.orderConformance(v, x.Path, x.P, sparql.CmpNotLess, false)
	case *shape.LessThanEq:
		return t.orderConformance(v, x.Path, x.P, sparql.CmpNotLessEq, false)
	case *shape.MoreThan:
		return t.orderConformance(v, x.Path, x.P, sparql.CmpNotLess, true)
	case *shape.MoreThanEq:
		return t.orderConformance(v, x.Path, x.P, sparql.CmpNotLessEq, true)
	case *shape.UniqueLang:
		a, b := t.freshVar("x"), t.freshVar("x")
		return &sparql.Filter{
			Inner: &sparql.AllNodes{Var: v},
			Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.Filter{
				Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
					{S: sparql.V(v), Path: x.Path, O: sparql.V(a)},
					{S: sparql.V(v), Path: x.Path, O: sparql.V(b)},
				}},
				Cond: sparql.AndOf(
					&sparql.Cmp{Op: sparql.CmpNeq, L: sparql.Vx(a), R: sparql.Vx(b)},
					&sparql.SameLangExpr{L: sparql.Vx(a), R: sparql.Vx(b)},
				),
			}},
		}
	}
	panic("sparqltrans: unknown shape in Conformance")
}

// orderConformance builds CQ for the four order-pair constraints: no
// witness pair may violate the order. swap compares the p-value against the
// path value instead (the moreThan family of Remark 2.3).
func (t *Translator) orderConformance(v string, path paths.Expr, p string, violation sparql.CmpOp, swap bool) sparql.Op {
	a, b := t.freshVar("x"), t.freshVar("y")
	l, r := sparql.Vx(a), sparql.Vx(b)
	if swap {
		l, r = r, l
	}
	return &sparql.Filter{
		Inner: &sparql.AllNodes{Var: v},
		Cond: &sparql.ExistsExpr{Neg: true, Op: &sparql.Filter{
			Inner: &sparql.BGP{Patterns: []sparql.TriplePattern{
				{S: sparql.V(v), Path: path, O: sparql.V(a)},
				{S: sparql.V(v), P: sparql.C(rdf.NewIRI(p)), O: sparql.V(b)},
			}},
			Cond: &sparql.Cmp{Op: violation, L: l, R: r},
		}},
	}
}
