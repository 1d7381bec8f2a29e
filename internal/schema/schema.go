// Package schema implements shape schemas (the formalization of SHACL
// shapes graphs): named shape definitions with target expressions,
// nonrecursiveness checking, the four real-SHACL target forms, and graph
// validation with reports.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Definition is a shape definition (s, φ, τ): a shape name, the shape
// expression constraining targeted nodes, and the target expression
// selecting them.
type Definition struct {
	Name   rdf.Term
	Shape  shape.Shape
	Target shape.Shape
}

// Schema is a finite set of shape definitions with distinct names. Schemas
// are nonrecursive, as in the SHACL recommendation; New rejects cycles.
type Schema struct {
	defs   []Definition
	byName map[rdf.Term]int
}

// New builds a schema, rejecting duplicate names and recursive reference
// cycles through hasShape.
func New(defs ...Definition) (*Schema, error) {
	s := &Schema{byName: make(map[rdf.Term]int, len(defs))}
	for _, d := range defs {
		if d.Shape == nil {
			return nil, fmt.Errorf("schema: definition %s has no shape expression", d.Name)
		}
		if d.Target == nil {
			d.Target = shape.FalseShape() // no target: constrains nothing
		}
		if _, dup := s.byName[d.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate shape name %s", d.Name)
		}
		s.byName[d.Name] = len(s.defs)
		s.defs = append(s.defs, d)
	}
	if cycle := s.findCycle(); cycle != nil {
		parts := make([]string, len(cycle))
		for i, n := range cycle {
			parts[i] = n.String()
		}
		return nil, fmt.Errorf("schema: recursive shape definitions: %s", strings.Join(parts, " → "))
	}
	return s, nil
}

// MustNew is New panicking on error, for tests and examples.
func MustNew(defs ...Definition) *Schema {
	s, err := New(defs...)
	if err != nil {
		panic(err)
	}
	return s
}

// findCycle returns a cycle of shape names if the reference graph
// (s1 → s2 iff hasShape(s2) occurs in the definition of s1, in the shape or
// the target) is cyclic, else nil.
func (s *Schema) findCycle() []rdf.Term {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[rdf.Term]int)
	var stack, cycle []rdf.Term
	var visit func(name rdf.Term) bool
	visit = func(name rdf.Term) bool {
		switch state[name] {
		case inStack:
			// Report exactly the cycle, in reference order and closed by
			// repeating its first member (s1 → s2 → s1) — not the whole
			// path that happened to lead into it.
			for i, n := range stack {
				if n == name {
					cycle = append(append(cycle, stack[i:]...), name)
					break
				}
			}
			return true
		case done:
			return false
		}
		state[name] = inStack
		stack = append(stack, name)
		if i, ok := s.byName[name]; ok {
			refs := shape.ShapeRefs(s.defs[i].Shape)
			refs = append(refs, shape.ShapeRefs(s.defs[i].Target)...)
			for _, ref := range refs {
				if visit(ref) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[name] = done
		return false
	}
	for _, d := range s.defs {
		if visit(d.Name) {
			return cycle
		}
	}
	return nil
}

// Def implements shape.Defs: resolve a shape name to its shape expression.
func (s *Schema) Def(name rdf.Term) (shape.Shape, bool) {
	if i, ok := s.byName[name]; ok {
		return s.defs[i].Shape, true
	}
	return nil, false
}

// Definitions returns the definitions in declaration order. The slice must
// not be modified.
func (s *Schema) Definitions() []Definition { return s.defs }

// Len returns the number of definitions.
func (s *Schema) Len() int { return len(s.defs) }

// The four target forms of real SHACL. All are monotone.

// TargetNode returns the node target hasValue(c).
func TargetNode(c rdf.Term) shape.Shape { return shape.Value(c) }

// TargetClass returns the class-based target
// ≥1 rdf:type/rdfs:subClassOf*.hasValue(c).
func TargetClass(c rdf.Term) shape.Shape {
	return shape.Min(1,
		paths.SeqOf(paths.P(rdf.RDFType), paths.Star{X: paths.P(rdf.RDFSSubClassOf)}),
		shape.Value(c))
}

// TargetSubjectsOf returns the subjects-of target ≥1 p.⊤.
func TargetSubjectsOf(p string) shape.Shape {
	return shape.Min(1, paths.P(p), shape.TrueShape())
}

// TargetObjectsOf returns the objects-of target ≥1 p⁻.⊤.
func TargetObjectsOf(p string) shape.Shape {
	return shape.Min(1, paths.Inv(paths.P(p)), shape.TrueShape())
}

// IsMonotone reports whether φ is syntactically monotone: adding triples to
// a graph can never falsify it. All real-SHACL target forms pass this
// check; Theorem 4.1 (fragment conformance) requires monotone targets.
// hasShape references are resolved through the schema (nonrecursive, so
// this terminates); unresolved references default to ⊤, which is monotone.
func (s *Schema) IsMonotone(phi shape.Shape) bool {
	switch x := phi.(type) {
	case *shape.True, *shape.False, *shape.HasValue, *shape.Test:
		return true
	case *shape.HasShape:
		if def, ok := s.Def(x.Name); ok {
			return s.IsMonotone(def)
		}
		return true
	case *shape.And:
		for _, c := range x.Xs {
			if !s.IsMonotone(c) {
				return false
			}
		}
		return true
	case *shape.Or:
		for _, c := range x.Xs {
			if !s.IsMonotone(c) {
				return false
			}
		}
		return true
	case *shape.MinCount:
		return s.IsMonotone(x.X)
	default:
		// ≤n, ∀, eq, disj, closed, lessThan(Eq), uniqueLang, ¬ are all
		// non-monotone in general.
		return false
	}
}

// TargetConstants returns the hasValue constants occurring in τ. Nodes
// named by node targets must be validated even when they do not occur in
// the data graph, since H, G, c ⊨ hasValue(c) holds for any G.
func TargetConstants(tau shape.Shape) []rdf.Term {
	var out []rdf.Term
	seen := make(map[rdf.Term]struct{})
	shape.Walk(tau, func(sh shape.Shape) {
		if hv, ok := sh.(*shape.HasValue); ok {
			if _, dup := seen[hv.C]; !dup {
				seen[hv.C] = struct{}{}
				out = append(out, hv.C)
			}
		}
	})
	return out
}

// Result records the outcome of checking one targeted focus node against
// one shape definition.
type Result struct {
	ShapeName rdf.Term
	Focus     rdf.Term
	Conforms  bool
}

// Report is the outcome of validating a graph against a schema.
type Report struct {
	// Conforms is true when every targeted node conforms to its shape.
	Conforms bool
	// Results holds one entry per (definition, targeted node) pair, in
	// deterministic order (definition order, then focus term order).
	Results []Result
	// TargetedNodes counts the (definition, node) pairs checked.
	TargetedNodes int
}

// Violations returns the failing results.
func (r *Report) Violations() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Conforms {
			out = append(out, res)
		}
	}
	return out
}

// Validate checks whether g conforms to the schema: for every definition
// (s, φ, τ) and every node a with H, G, a ⊨ τ, it checks H, G, a ⊨ φ.
// Candidate nodes are N(G) plus any node-target constants.
func (s *Schema) Validate(g rdfgraph.Reader) *Report {
	ev := shape.NewEvaluator(g, s)
	return s.ValidateWith(ev)
}

// ValidateWith validates using a caller-supplied evaluator (so callers can
// share evaluation caches or count conformance checks). A definition's τ is
// tested on its focus nodes (shape.Evaluator.FocusNodes) — one
// index lookup for each of the four real-SHACL target forms — and on all of
// N(G) only when τ's syntax yields none.
func (s *Schema) ValidateWith(ev *shape.Evaluator) *Report {
	g := ev.G
	report := &Report{Conforms: true}
	var all []rdfgraph.ID
	for _, d := range s.defs {
		nodes := ev.FocusNodes(d.Target, &all)
		for _, c := range TargetConstants(d.Target) {
			id := g.TermID(c)
			if !containsID(nodes, id) {
				nodes = append(append([]rdfgraph.ID(nil), nodes...), id)
			}
		}
		var results []Result
		for _, n := range nodes {
			if !ev.Conforms(n, d.Target) {
				continue
			}
			conforms := ev.Conforms(n, d.Shape)
			results = append(results, Result{ShapeName: d.Name, Focus: g.Term(n), Conforms: conforms})
			if !conforms {
				report.Conforms = false
			}
		}
		sort.Slice(results, func(i, j int) bool {
			return rdf.Compare(results[i].Focus, results[j].Focus) < 0
		})
		report.Results = append(report.Results, results...)
	}
	report.TargetedNodes = len(report.Results)
	return report
}

func containsID(ids []rdfgraph.ID, id rdfgraph.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
