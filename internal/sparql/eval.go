package sparql

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// Eval evaluates an algebra tree against a graph and returns its solutions.
// The result order is deterministic for deterministic trees: a triple
// pattern yields its matches in dictionary ID order — by subject, then
// predicate, then object — so the epochs of one graph, whose IDs are
// stable, agree whatever their update history. IDs follow interning
// order, not rdf.Compare; Select sorts its rows canonically.
func Eval(op Op, g rdfgraph.Reader) []Binding {
	e := newEvaluator(g)
	return e.eval(op, []Binding{{}})
}

// Select evaluates op and projects the given variables, deduplicating rows
// and returning them in a canonical order.
func Select(op Op, g rdfgraph.Reader, vars ...string) []Binding {
	rows := Eval(&Distinct{Inner: &Project{Inner: op, Vars: vars}}, g)
	sort.Slice(rows, func(i, j int) bool { return bindingKey(rows[i]) < bindingKey(rows[j]) })
	return rows
}

type evaluator struct {
	g         rdfgraph.Reader
	pathEvals map[paths.Expr]*paths.Evaluator
}

func newEvaluator(g rdfgraph.Reader) *evaluator {
	return &evaluator{g: g, pathEvals: make(map[paths.Expr]*paths.Evaluator)}
}

func (e *evaluator) pathEval(p paths.Expr) *paths.Evaluator {
	pe, ok := e.pathEvals[p]
	if !ok {
		pe = paths.NewEvaluator(p, e.g)
		e.pathEvals[p] = pe
	}
	return pe
}

// eval computes the solutions of op laterally: input solutions are extended
// rather than joined after the fact, which makes correlated subpatterns
// (EXISTS, trace queries over bound focus nodes) efficient.
func (e *evaluator) eval(op Op, input []Binding) []Binding {
	switch o := op.(type) {
	case *BGP:
		rows := input
		for _, p := range o.Patterns {
			rows = e.matchPattern(p, rows)
		}
		return rows

	case *Join:
		return e.eval(o.R, e.eval(o.L, input))

	case *LeftJoin:
		var out []Binding
		for _, l := range e.eval(o.L, input) {
			rs := e.eval(o.R, []Binding{l})
			if len(rs) == 0 {
				out = append(out, l)
			} else {
				out = append(out, rs...)
			}
		}
		return out

	case *Union:
		out := append([]Binding{}, e.eval(o.L, input)...)
		return append(out, e.eval(o.R, input)...)

	case *Minus:
		ls := e.eval(o.L, input)
		rs := e.eval(o.R, []Binding{{}})
		var out []Binding
		for _, l := range ls {
			removed := false
			for _, r := range rs {
				if sharesVar(l, r) && compatible(l, r) {
					removed = true
					break
				}
			}
			if !removed {
				out = append(out, l)
			}
		}
		return out

	case *Filter:
		var out []Binding
		for _, b := range e.eval(o.Inner, input) {
			if v, err := e.evalBool(o.Cond, b); err == nil && v {
				out = append(out, b)
			}
		}
		return out

	case *Extend:
		var out []Binding
		for _, b := range e.eval(o.Inner, input) {
			t, err := e.evalTerm(o.E, b)
			if err != nil {
				out = append(out, b) // expression error: variable stays unbound
				continue
			}
			if nb := b.extend(o.Var, t); nb != nil {
				out = append(out, nb)
			}
		}
		return out

	case *Project:
		// Lateral projection: inner variables outside Vars are dropped, but
		// the variables already bound by the *input* solution survive, so
		// that eval(Project, input) = join(input, project(eval(inner))).
		var out []Binding
		for _, b := range input {
			for _, row := range e.eval(o.Inner, []Binding{b}) {
				nb := make(Binding, len(b)+len(o.Vars))
				for k, v := range b {
					nb[k] = v
				}
				ok := true
				for _, v := range o.Vars {
					if t, bound := row[v]; bound {
						if old, exists := nb[v]; exists && old != t {
							ok = false
							break
						}
						nb[v] = t
					}
				}
				if ok {
					out = append(out, nb)
				}
			}
		}
		return out

	case *Distinct:
		seen := make(map[string]struct{})
		var out []Binding
		for _, b := range e.eval(o.Inner, input) {
			k := bindingKey(b)
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, b)
			}
		}
		return out

	case *GroupCount:
		// Grouping is lateral as well: groups form within each input
		// solution, whose bindings survive into the output rows.
		var out []Binding
		for _, in := range input {
			groups := make(map[string]Binding)
			counts := make(map[string]int)
			var order []string
			for _, b := range e.eval(o.Inner, []Binding{in}) {
				proj := make(Binding, len(o.By))
				for _, v := range o.By {
					if t, ok := b[v]; ok {
						proj[v] = t
					}
				}
				k := bindingKey(proj)
				if _, ok := groups[k]; !ok {
					groups[k] = proj
					order = append(order, k)
				}
				counts[k]++
			}
			for _, k := range order {
				row := groups[k].extend(o.CountVar, rdf.NewInteger(int64(counts[k])))
				if m := merge(in, row); m != nil {
					out = append(out, m)
				}
			}
		}
		return out

	case *Table:
		var out []Binding
		for _, b := range input {
			for _, row := range o.Rows {
				if m := merge(b, row); m != nil {
					out = append(out, m)
				}
			}
		}
		return out

	case *AllNodes:
		nodes := e.g.NodeIDs()
		var out []Binding
		for _, b := range input {
			if t, bound := b[o.Var]; bound {
				if id := e.g.LookupTerm(t); id != rdfgraph.NoID && e.g.IsNode(id) {
					out = append(out, b)
				}
				continue
			}
			for _, n := range nodes {
				out = append(out, mustExtend(b, o.Var, e.g.Term(n)))
			}
		}
		return out

	case *PathTrace:
		return e.evalPathTrace(o, input)
	}
	panic("sparql: unknown operator")
}

func mustExtend(b Binding, v string, t rdf.Term) Binding {
	nb := b.extend(v, t)
	if nb == nil {
		panic("sparql: conflicting extend")
	}
	return nb
}

// matchPattern extends each input solution with all matches of one triple
// pattern (plain predicate or property path).
func (e *evaluator) matchPattern(p TriplePattern, input []Binding) []Binding {
	var out []Binding
	for _, b := range input {
		if p.Path != nil {
			out = e.matchPath(p, b, out)
			continue
		}
		out = e.matchPlain(p, b, out)
	}
	return out
}

// resolve returns the constant value of a position under a binding, if any.
func resolve(tv TermOrVar, b Binding) (rdf.Term, bool) {
	if !tv.IsVar() {
		return tv.Term, true
	}
	t, ok := b[tv.Var]
	return t, ok
}

func (e *evaluator) matchPlain(p TriplePattern, b Binding, out []Binding) []Binding {
	g := e.g
	s, sOK := resolve(p.S, b)
	pr, pOK := resolve(p.P, b)
	o, oOK := resolve(p.O, b)

	emit := func(st, pt, ot rdf.Term) {
		nb := b
		if p.S.IsVar() {
			if nb = nb.extend(p.S.Var, st); nb == nil {
				return
			}
		}
		if p.P.IsVar() {
			if nb = nb.extend(p.P.Var, pt); nb == nil {
				return
			}
		}
		if p.O.IsVar() {
			if nb = nb.extend(p.O.Var, ot); nb == nil {
				return
			}
		}
		out = append(out, nb)
	}

	// The matches of a pattern whose predicate is unbound, emitted in ID
	// order below.
	var ts []rdfgraph.IDTriple
	switch {
	case sOK && pOK && oOK:
		if g.Has(rdf.T(s, pr, o)) {
			emit(s, pr, o)
		}
	case sOK && pOK:
		sid, pid := g.LookupTerm(s), g.LookupTerm(pr)
		if sid == rdfgraph.NoID || pid == rdfgraph.NoID {
			return out
		}
		var objs []rdfgraph.ID
		g.Objects(sid, pid, func(oid rdfgraph.ID) { objs = append(objs, oid) })
		sortIDs(objs)
		for _, oid := range objs {
			emit(s, pr, g.Term(oid))
		}
	case pOK && oOK:
		pid, oid := g.LookupTerm(pr), g.LookupTerm(o)
		if pid == rdfgraph.NoID || oid == rdfgraph.NoID {
			return out
		}
		var subs []rdfgraph.ID
		g.Subjects(pid, oid, func(sid rdfgraph.ID) { subs = append(subs, sid) })
		sortIDs(subs)
		for _, sid := range subs {
			emit(g.Term(sid), pr, o)
		}
	case pOK:
		pid := g.LookupTerm(pr)
		if pid == rdfgraph.NoID {
			return out
		}
		for _, edge := range g.EdgesByPredicate(pid) {
			emit(g.Term(edge.S), pr, g.Term(edge.O))
		}
	case sOK:
		sid := g.LookupTerm(s)
		if sid == rdfgraph.NoID {
			return out
		}
		g.PredicatesFrom(sid, func(pid, oid rdfgraph.ID) {
			if !oOK || g.Term(oid) == o { // a constant object is not checked by emit
				ts = append(ts, rdfgraph.IDTriple{S: sid, P: pid, O: oid})
			}
		})
	case oOK:
		oid := g.LookupTerm(o)
		if oid == rdfgraph.NoID {
			return out
		}
		g.PredicatesTo(oid, func(sid, pid rdfgraph.ID) { ts = append(ts, rdfgraph.IDTriple{S: sid, P: pid, O: oid}) })
	default:
		ts = make([]rdfgraph.IDTriple, 0, g.Len())
		g.EachTriple(func(sid, pid, oid rdfgraph.ID) { ts = append(ts, rdfgraph.IDTriple{S: sid, P: pid, O: oid}) })
	}
	slices.SortFunc(ts, func(a, b rdfgraph.IDTriple) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
	})
	for _, t := range ts {
		emit(g.Term(t.S), g.Term(t.P), g.Term(t.O))
	}
	return out
}

func (e *evaluator) matchPath(p TriplePattern, b Binding, out []Binding) []Binding {
	g := e.g
	s, sOK := resolve(p.S, b)
	o, oOK := resolve(p.O, b)
	pe := e.pathEval(p.Path)

	emit := func(st, ot rdf.Term) {
		nb := b
		if p.S.IsVar() {
			if nb = nb.extend(p.S.Var, st); nb == nil {
				return
			}
		}
		if p.O.IsVar() {
			if nb = nb.extend(p.O.Var, ot); nb == nil {
				return
			}
		}
		out = append(out, nb)
	}

	switch {
	case sOK:
		for _, oid := range pe.Eval(g.TermID(s)) {
			ot := g.Term(oid)
			if oOK && ot != o {
				continue
			}
			emit(s, ot)
		}
	case oOK:
		inv := e.pathEval(paths.Inverse{X: p.Path})
		for _, sid := range inv.Eval(g.TermID(o)) {
			emit(g.Term(sid), o)
		}
	default:
		pe.AllPairs(func(a, bID rdfgraph.ID) {
			emit(g.Term(a), g.Term(bID))
		})
	}
	return out
}

// evalPathTrace implements Q_E (Lemma 5.1): pair rows relate ⟦E⟧G
// endpoints, triple rows enumerate graph(paths(E, G, a, b)) per endpoint
// pair.
func (e *evaluator) evalPathTrace(o *PathTrace, input []Binding) []Binding {
	g := e.g
	pe := e.pathEval(o.Path)
	var out []Binding
	for _, b := range input {
		tTerm, tOK := b[o.TVar]
		hTerm, hOK := b[o.HVar]

		var sources []rdfgraph.ID
		if tOK {
			sources = []rdfgraph.ID{g.TermID(tTerm)}
		} else if hOK {
			// Only the head is bound: find sources via the inverse path.
			inv := e.pathEval(paths.Inverse{X: o.Path})
			sources = inv.Eval(g.TermID(hTerm))
		} else {
			sources = g.NodeIDs()
		}
		for _, a := range sources {
			row := b
			if !tOK {
				if row = row.extend(o.TVar, g.Term(a)); row == nil {
					continue
				}
			}
			for _, h := range pe.Eval(a) {
				ht := g.Term(h)
				if hOK && ht != hTerm {
					continue
				}
				pairRow := row
				if !hOK {
					if pairRow = pairRow.extend(o.HVar, ht); pairRow == nil {
						continue
					}
				}
				if o.WithPairs {
					out = append(out, pairRow)
				}
				for _, tr := range pe.Trace(a, h) {
					tb := pairRow.extend(o.SVar, tr.S)
					if tb == nil {
						continue
					}
					if tb = tb.extend(o.PVar, tr.P); tb == nil {
						continue
					}
					if tb = tb.extend(o.OVar, tr.O); tb == nil {
						continue
					}
					out = append(out, tb)
				}
			}
		}
	}
	return out
}

func sortIDs(ids []rdfgraph.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// bindingKey canonically serializes a binding for dedup and sorting.
func bindingKey(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(b[k].String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// CountLiteral parses a COUNT result produced by GroupCount.
func CountLiteral(t rdf.Term) (int, bool) {
	if !t.IsLiteral() || t.Datatype != rdf.XSDInteger {
		return 0, false
	}
	n, err := strconv.Atoi(t.Value)
	return n, err == nil
}
