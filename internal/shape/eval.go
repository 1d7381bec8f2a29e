package shape

import (
	"sort"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// Defs resolves shape names for hasShape references; it is implemented by
// schema.Schema. def(s, H) returns ⊤ for undefined names, mirroring real
// SHACL, which Evaluator handles when ok is false.
type Defs interface {
	Def(name rdf.Term) (Shape, bool)
}

// Evaluator decides conformance H, G, a ⊨ φ (Table 1) against one graph and
// one schema. It memoizes per-(shape, node) results and per-expression path
// evaluators, which makes evaluating many focus nodes (validation, fragment
// computation) close to linear. An Evaluator is not safe for concurrent use.
type Evaluator struct {
	G    rdfgraph.Reader
	Defs Defs

	pathEvals map[paths.Expr]*paths.Evaluator
	cache     map[evalKey]bool
	// stop is handed to every path evaluator; see SetStop.
	stop func() bool

	// Checks counts conformance checks actually evaluated (cache misses);
	// used by the instrumentation experiments.
	Checks int
}

type evalKey struct {
	shape Shape
	node  rdfgraph.ID
}

// NewEvaluator returns an evaluator for g in the context of defs (which may
// be nil when shapes contain no hasShape references).
func NewEvaluator(g rdfgraph.Reader, defs Defs) *Evaluator {
	return &Evaluator{
		G:         g,
		Defs:      defs,
		pathEvals: make(map[paths.Expr]*paths.Evaluator),
		cache:     make(map[evalKey]bool),
	}
}

// PathEval returns the (cached) path evaluator for e.
func (ev *Evaluator) PathEval(e paths.Expr) *paths.Evaluator {
	pe, ok := ev.pathEvals[e]
	if !ok {
		pe = paths.NewEvaluator(e, ev.G)
		pe.SetStop(ev.stop)
		ev.pathEvals[e] = pe
	}
	return pe
}

// SetStop installs stop on every path evaluator of ev, those built later
// included: their searches then panic with paths.ErrStopped once stop
// reports true (paths.Evaluator.SetStop). Nil, the default, uninstalls it.
func (ev *Evaluator) SetStop(stop func() bool) {
	ev.stop = stop
	for _, pe := range ev.pathEvals {
		pe.SetStop(stop)
	}
}

// Def resolves a shape name, defaulting to ⊤ for undefined names.
func (ev *Evaluator) Def(name rdf.Term) Shape { return Resolve(ev.Defs, name) }

// Resolve returns def(s, H): name's shape in defs, or ⊤ when defs is nil
// or does not define it (real-SHACL behavior).
func Resolve(defs Defs, name rdf.Term) Shape {
	if defs != nil {
		if s, ok := defs.Def(name); ok {
			return s
		}
	}
	return &True{}
}

// ConformsTerm reports H, G, a ⊨ φ for a focus node given as a term.
func (ev *Evaluator) ConformsTerm(a rdf.Term, phi Shape) bool {
	return ev.Conforms(ev.G.TermID(a), phi)
}

// Conforms reports H, G, a ⊨ φ for a dictionary-encoded focus node.
func (ev *Evaluator) Conforms(a rdfgraph.ID, phi Shape) bool {
	key := evalKey{shape: phi, node: a}
	if v, ok := ev.cache[key]; ok {
		return v
	}
	ev.Checks++
	v := ev.eval(a, phi)
	ev.cache[key] = v
	return v
}

// PropValues returns ⟦p⟧G(a), the objects of a's p-triples, sorted.
func (ev *Evaluator) PropValues(a rdfgraph.ID, p string) []rdfgraph.ID {
	pid := ev.G.LookupTerm(rdf.NewIRI(p))
	if pid == rdfgraph.NoID {
		return nil
	}
	var out []rdfgraph.ID
	ev.G.Objects(a, pid, func(o rdfgraph.ID) { out = append(out, o) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Values returns ⟦F⟧G(a) where F is a path expression or id (nil).
func (ev *Evaluator) Values(a rdfgraph.ID, e paths.Expr) []rdfgraph.ID {
	if e == nil {
		return []rdfgraph.ID{a}
	}
	return ev.PathEval(e).Eval(a)
}

func (ev *Evaluator) eval(a rdfgraph.ID, phi Shape) bool {
	switch x := phi.(type) {
	case *True:
		return true
	case *False:
		return false
	case *HasShape:
		return ev.Conforms(a, ev.Def(x.Name))
	case *Test:
		return x.T.Holds(ev.G.Term(a))
	case *HasValue:
		return ev.G.Term(a) == x.C
	case *Not:
		return !ev.Conforms(a, x.X)
	case *And:
		for _, c := range x.Xs {
			if !ev.Conforms(a, c) {
				return false
			}
		}
		return true
	case *Or:
		for _, c := range x.Xs {
			if ev.Conforms(a, c) {
				return true
			}
		}
		return false
	case *MinCount:
		count := 0
		for _, b := range ev.Values(a, x.Path) {
			if ev.Conforms(b, x.X) {
				count++
				if count >= x.N {
					return true
				}
			}
		}
		return count >= x.N // covers n = 0
	case *MaxCount:
		count := 0
		for _, b := range ev.Values(a, x.Path) {
			if ev.Conforms(b, x.X) {
				count++
				if count > x.N {
					return false
				}
			}
		}
		return true
	case *Forall:
		for _, b := range ev.Values(a, x.Path) {
			if !ev.Conforms(b, x.X) {
				return false
			}
		}
		return true
	case *Eq:
		return equalIDSets(ev.Values(a, x.Path), ev.PropValues(a, x.P))
	case *Disj:
		return disjointIDSets(ev.Values(a, x.Path), ev.PropValues(a, x.P))
	case *Closed:
		ok := true
		ev.G.PredicatesFrom(a, func(p, _ rdfgraph.ID) {
			if !ok {
				return
			}
			iri := ev.G.Term(p).Value
			i := sort.SearchStrings(x.Allowed, iri)
			if i >= len(x.Allowed) || x.Allowed[i] != iri {
				ok = false
			}
		})
		return ok
	case *LessThan:
		cs := ev.PropValues(a, x.P)
		for _, b := range ev.Values(a, x.Path) {
			bt := ev.G.Term(b)
			for _, c := range cs {
				if !rdf.Less(bt, ev.G.Term(c)) {
					return false
				}
			}
		}
		return true
	case *LessThanEq:
		cs := ev.PropValues(a, x.P)
		for _, b := range ev.Values(a, x.Path) {
			bt := ev.G.Term(b)
			for _, c := range cs {
				if !rdf.LessEq(bt, ev.G.Term(c)) {
					return false
				}
			}
		}
		return true
	case *MoreThan:
		cs := ev.PropValues(a, x.P)
		for _, b := range ev.Values(a, x.Path) {
			bt := ev.G.Term(b)
			for _, c := range cs {
				if !rdf.Less(ev.G.Term(c), bt) {
					return false
				}
			}
		}
		return true
	case *MoreThanEq:
		cs := ev.PropValues(a, x.P)
		for _, b := range ev.Values(a, x.Path) {
			bt := ev.G.Term(b)
			for _, c := range cs {
				if !rdf.LessEq(ev.G.Term(c), bt) {
					return false
				}
			}
		}
		return true
	case *UniqueLang:
		langs := make(map[string]rdfgraph.ID)
		for _, b := range ev.Values(a, x.Path) {
			bt := ev.G.Term(b)
			if !bt.IsLiteral() || bt.Lang == "" {
				continue
			}
			if prev, seen := langs[bt.Lang]; seen && prev != b {
				return false
			}
			langs[bt.Lang] = b
		}
		return true
	}
	panic("shape: unknown shape type in eval")
}

func equalIDSets(a, b []rdfgraph.ID) bool {
	if len(a) != len(b) {
		return false
	}
	// Both inputs are sorted and duplicate-free.
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func disjointIDSets(a, b []rdfgraph.ID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// ConformingNodes returns all nodes of N(G) that conform to φ, sorted by ID.
// This is the "shape as unary query" view of the paper.
func (ev *Evaluator) ConformingNodes(phi Shape) []rdfgraph.ID {
	var out []rdfgraph.ID
	for _, n := range ev.G.NodeIDs() {
		if ev.Conforms(n, phi) {
			out = append(out, n)
		}
	}
	return out
}
