package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Justification records why one triple entered a neighborhood: the Table 2
// rule that fired. It names the enclosing shape definition (zero Term for
// anonymous request shapes), the constraint whose rule emitted the triple,
// whether the rule was a negated-atom row, the focus node the rule fired
// at, and — for triples pulled in by path tracing — the product-automaton
// Step the triple rides on. Justification is a comparable value type, so
// Explanation deduplicates with it as a map key.
type Justification struct {
	// Shape is the innermost named shape definition whose constraint fired,
	// or the zero Term when extraction started from an anonymous shape.
	Shape rdf.Term
	// Constraint is the (NNF) shape whose Table 2 row emitted the triple.
	Constraint shape.Shape
	// Negated marks the negated-atom rows of Table 2 (¬eq, ¬disj, ¬closed, …).
	Negated bool
	// Focus is the node the rule fired at — the v of B(v, G, φ).
	Focus rdfgraph.ID
	// Step is the product-automaton transition for path-traced triples;
	// meaningful only when HasStep is set.
	Step    paths.Step
	HasStep bool
}

// Kind returns a bounded label for the constraint operator: one of
// ConstraintKinds.
func (j Justification) Kind() string {
	var k string
	switch j.Constraint.(type) {
	case *shape.HasShape:
		k = "hasShape"
	case *shape.Eq:
		k = "eq"
	case *shape.Disj:
		k = "disj"
	case *shape.LessThan:
		k = "lessThan"
	case *shape.LessThanEq:
		k = "lessThanEq"
	case *shape.MoreThan:
		k = "moreThan"
	case *shape.MoreThanEq:
		k = "moreThanEq"
	case *shape.UniqueLang:
		k = "uniqueLang"
	case *shape.Closed:
		k = "closed"
	case *shape.MinCount:
		k = "minCount"
	case *shape.MaxCount:
		k = "maxCount"
	case *shape.Forall:
		k = "forall"
	default:
		k = "other"
	}
	if j.Negated {
		return "not_" + k
	}
	return k
}

// ConstraintKinds enumerates every label Justification.Kind can return —
// the closed set of the kind field /explain reports.
var ConstraintKinds = []string{
	"eq", "minCount", "maxCount", "forall",
	"not_hasShape", "not_eq", "not_disj", "not_lessThan", "not_lessThanEq",
	"not_moreThan", "not_moreThanEq", "not_uniqueLang", "not_closed",
	"hasShape", "disj", "lessThan", "lessThanEq", "moreThan", "moreThanEq",
	"uniqueLang", "closed", "other",
}

// Render formats the justification for human consumption, decoding IDs
// through g's dictionary: "shape: constraint [focus <v>] (step qI <p>→ qJ)".
func (j Justification) Render(g rdfgraph.Reader) string {
	var b strings.Builder
	if j.Shape != (rdf.Term{}) {
		b.WriteString(j.Shape.String())
		b.WriteString(": ")
	}
	if j.Negated {
		b.WriteString("¬")
	}
	b.WriteString(j.Constraint.String())
	b.WriteString(" [focus ")
	b.WriteString(g.Term(j.Focus).String())
	b.WriteString("]")
	if j.HasStep {
		dir := "→"
		if !j.Step.Fwd {
			dir = "←"
		}
		fmt.Fprintf(&b, " (step q%d %s%s q%d)", j.Step.From, g.Term(j.Step.Pred).String(), dir, j.Step.To)
	}
	return b.String()
}

// Explanation records attribution: a map from triple to the ordered list
// of justifications that pulled it into the fragment. Every Table 2
// emission is recorded while Explain, ExplainInto or ExplainFragment runs.
// Safe for concurrent Record calls; reads are consistent once recording
// has finished.
type Explanation struct {
	g  rdfgraph.Reader
	mu sync.Mutex
	// byTriple preserves first-recorded order per triple.
	byTriple map[rdfgraph.IDTriple][]Justification
	seen     map[explKey]struct{}
}

type explKey struct {
	t rdfgraph.IDTriple
	j Justification
}

// NewExplanation returns an empty explanation over g's dictionary.
func NewExplanation(g rdfgraph.Reader) *Explanation {
	return &Explanation{
		g:        g,
		byTriple: make(map[rdfgraph.IDTriple][]Justification),
		seen:     make(map[explKey]struct{}),
	}
}

// Record adds one justification for t, deduplicating exact repeats.
func (e *Explanation) Record(t rdfgraph.IDTriple, j Justification) {
	k := explKey{t: t, j: j}
	e.mu.Lock()
	if _, dup := e.seen[k]; !dup {
		e.seen[k] = struct{}{}
		e.byTriple[t] = append(e.byTriple[t], j)
	}
	e.mu.Unlock()
}

// Graph returns the graph whose dictionary decodes the recorded IDs.
func (e *Explanation) Graph() rdfgraph.Reader { return e.g }

// Len returns the number of distinct explained triples.
func (e *Explanation) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.byTriple)
}

// IDTriples returns the explained triples in canonical (decoded) order.
func (e *Explanation) IDTriples() []rdfgraph.IDTriple {
	e.mu.Lock()
	ids := make([]rdfgraph.IDTriple, 0, len(e.byTriple))
	for t := range e.byTriple {
		ids = append(ids, t)
	}
	e.mu.Unlock()
	rdfgraph.SortIDTriples(e.g.Dict(), ids)
	return ids
}

// Justifications returns the justification list recorded for t, in
// first-recorded order. The returned slice is shared; treat as read-only.
func (e *Explanation) Justifications(t rdfgraph.IDTriple) []Justification {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.byTriple[t]
}

// AnnotatedTriple pairs a decoded triple with its justifications, sorted by
// rendered form for deterministic output (the internal recording order
// depends on trace iteration order).
type AnnotatedTriple struct {
	Triple         rdf.Triple
	Justifications []Justification
	Rendered       []string
}

// Annotated returns every explained triple with its justifications, in
// canonical triple order with justifications sorted by rendered string.
func (e *Explanation) Annotated() []AnnotatedTriple {
	ids := e.IDTriples()
	d := e.g.Dict()
	out := make([]AnnotatedTriple, 0, len(ids))
	for _, t := range ids {
		js := append([]Justification(nil), e.Justifications(t)...)
		rendered := make([]string, len(js))
		for i, j := range js {
			rendered[i] = j.Render(e.g)
		}
		sort.Sort(&byRendered{js: js, r: rendered})
		out = append(out, AnnotatedTriple{Triple: d.Triple(t), Justifications: js, Rendered: rendered})
	}
	return out
}

type byRendered struct {
	js []Justification
	r  []string
}

func (b *byRendered) Len() int           { return len(b.r) }
func (b *byRendered) Less(i, j int) bool { return b.r[i] < b.r[j] }
func (b *byRendered) Swap(i, j int) {
	b.r[i], b.r[j] = b.r[j], b.r[i]
	b.js[i], b.js[j] = b.js[j], b.js[i]
}

// ExplainDiff reports the triples present in a but absent from b, each with
// a's justifications — i.e. which constraint accounts for the extra triples
// of one fragment over another. Both explanations must share a dictionary
// (be computed over the same graph).
func ExplainDiff(a, b *Explanation) []AnnotatedTriple {
	inB := make(map[rdfgraph.IDTriple]struct{})
	for _, t := range b.IDTriples() {
		inB[t] = struct{}{}
	}
	ids := a.IDTriples()
	ann := a.Annotated() // same canonical order as ids
	var diff []AnnotatedTriple
	for i, id := range ids {
		if _, ok := inB[id]; !ok {
			diff = append(diff, ann[i])
		}
	}
	return diff
}

// Explain computes B(v, G, φ) with attribution, returning the explanation.
// name, when non-zero, labels the top-level shape in every justification
// (recursion into hasShape atoms switches to the referenced definition).
func (x *Extractor) Explain(v rdf.Term, name rdf.Term, phi shape.Shape) *Explanation {
	ex := NewExplanation(x.ev.G)
	x.ExplainInto(ex, v, name, phi)
	return ex
}

// ExplainInto accumulates B(v, G, φ) with attribution into an existing
// explanation, so one explanation can cover several (node, shape) pairs —
// the /explain endpoint merges one definition per call this way.
func (x *Extractor) ExplainInto(ex *Explanation, v rdf.Term, name rdf.Term, phi shape.Shape) {
	prevRec, prevName := x.rec, x.curName
	x.rec, x.curName = ex, name
	// Deferred: a search stopped under WithStop unwinds through a pooled x.
	defer func() { x.rec, x.curName = prevRec, prevName }()
	if id, ok := x.FocusID(v); ok {
		x.NeighborhoodInto(id, phi, rdfgraph.NewIDTripleSet(), make(map[VisitKey]struct{}))
	}
}

// ExplainFragment computes Frag(G, S) with attribution: the explanation
// covers the union of all neighborhoods over all nodes and request shapes,
// exactly the triples Fragment(requests) returns.
func (x *Extractor) ExplainFragment(requests []shape.Shape) *Explanation {
	ex := NewExplanation(x.ev.G)
	prevRec, prevName := x.rec, x.curName
	x.rec, x.curName = ex, rdf.Term{}
	out := rdfgraph.NewIDTripleSet()
	visited := make(map[VisitKey]struct{})
	for _, phi := range requests {
		nnf := shape.NNF(phi)
		for _, v := range x.ev.G.NodeIDs() {
			x.collect(v, nnf, out, visited)
		}
	}
	x.rec, x.curName = prevRec, prevName
	return ex
}
