package paths

import (
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// transition is one labeled NFA edge: consume one graph step over predicate
// pred, forward (subject→object) or backward (object→subject).
type transition struct {
	pred rdfgraph.ID
	fwd  bool
	to   int
}

// NFA is a Thompson automaton for a path expression, compiled against a
// particular graph dictionary (predicates are dictionary IDs). A predicate
// absent from the graph gets ID rdfgraph.NoID; its transitions can never
// fire, which is exactly the semantics of a property with no triples.
type NFA struct {
	start, accept int
	eps           [][]int        // state → epsilon successors
	trans         [][]transition // state → labeled transitions
	// reverse adjacency, for backward reachability
	repsilon [][]int
	rtrans   [][]transition // rtrans[q'] holds transitions (pred, fwd, q) arriving at q'
}

// Compile builds the NFA for e against g's dictionary. The graph is only
// used to resolve predicate IRIs to IDs; the NFA does not retain it.
func Compile(e Expr, g rdfgraph.Reader) *NFA {
	b := &nfaBuilder{g: g}
	start, accept := b.build(e)
	n := &NFA{start: start, accept: accept, eps: b.eps, trans: b.trans}
	n.repsilon = make([][]int, len(n.eps))
	n.rtrans = make([][]transition, len(n.eps))
	for q, succs := range n.eps {
		for _, q2 := range succs {
			n.repsilon[q2] = append(n.repsilon[q2], q)
		}
	}
	for q, ts := range n.trans {
		for _, t := range ts {
			n.rtrans[t.to] = append(n.rtrans[t.to], transition{pred: t.pred, fwd: t.fwd, to: q})
		}
	}
	return n
}

type nfaBuilder struct {
	g     rdfgraph.Reader
	eps   [][]int
	trans [][]transition
}

func (b *nfaBuilder) newState() int {
	b.eps = append(b.eps, nil)
	b.trans = append(b.trans, nil)
	return len(b.eps) - 1
}

func (b *nfaBuilder) addEps(from, to int) {
	b.eps[from] = append(b.eps[from], to)
}

func (b *nfaBuilder) build(e Expr) (start, accept int) {
	switch x := e.(type) {
	case Prop:
		s, a := b.newState(), b.newState()
		b.trans[s] = append(b.trans[s], transition{pred: b.g.LookupTerm(rdf.NewIRI(x.IRI)), fwd: true, to: a})
		return s, a
	case Inverse:
		return b.buildInverted(x.X, false)
	case Seq:
		s1, a1 := b.build(x.Left)
		s2, a2 := b.build(x.Right)
		b.addEps(a1, s2)
		return s1, a2
	case Alt:
		s, a := b.newState(), b.newState()
		s1, a1 := b.build(x.Left)
		s2, a2 := b.build(x.Right)
		b.addEps(s, s1)
		b.addEps(s, s2)
		b.addEps(a1, a)
		b.addEps(a2, a)
		return s, a
	case Star:
		s, a := b.newState(), b.newState()
		s1, a1 := b.build(x.X)
		b.addEps(s, s1)
		b.addEps(s, a)
		b.addEps(a1, s1)
		b.addEps(a1, a)
		return s, a
	case ZeroOrOne:
		s, a := b.newState(), b.newState()
		s1, a1 := b.build(x.X)
		b.addEps(s, s1)
		b.addEps(s, a)
		b.addEps(a1, a)
		return s, a
	}
	panic("paths: unknown expression type")
}

// buildInverted builds the automaton for an expression with all step
// directions flipped when invert is false entering an Inverse (double
// inversion cancels). It exploits (E1/E2)⁻ = E2⁻/E1⁻ etc.
func (b *nfaBuilder) buildInverted(e Expr, fwd bool) (start, accept int) {
	switch x := e.(type) {
	case Prop:
		s, a := b.newState(), b.newState()
		b.trans[s] = append(b.trans[s], transition{pred: b.g.LookupTerm(rdf.NewIRI(x.IRI)), fwd: fwd, to: a})
		return s, a
	case Inverse:
		if fwd {
			return b.buildInverted(x.X, false)
		}
		return b.build(x.X)
	case Seq:
		// Reverse the order of the parts.
		s2, a2 := b.buildInverted(x.Right, fwd)
		s1, a1 := b.buildInverted(x.Left, fwd)
		b.addEps(a2, s1)
		return s2, a1
	case Alt:
		s, a := b.newState(), b.newState()
		s1, a1 := b.buildInverted(x.Left, fwd)
		s2, a2 := b.buildInverted(x.Right, fwd)
		b.addEps(s, s1)
		b.addEps(s, s2)
		b.addEps(a1, a)
		b.addEps(a2, a)
		return s, a
	case Star:
		s, a := b.newState(), b.newState()
		s1, a1 := b.buildInverted(x.X, fwd)
		b.addEps(s, s1)
		b.addEps(s, a)
		b.addEps(a1, s1)
		b.addEps(a1, a)
		return s, a
	case ZeroOrOne:
		s, a := b.newState(), b.newState()
		s1, a1 := b.buildInverted(x.X, fwd)
		b.addEps(s, s1)
		b.addEps(s, a)
		b.addEps(a1, a)
		return s, a
	}
	panic("paths: unknown expression type")
}
