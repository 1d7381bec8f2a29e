// Package paths implements SHACL property path expressions: their syntax,
// their evaluation ⟦E⟧G as binary relations over a graph, and — the key
// ingredient of provenance computation — the *path tracing* operation
// graph(paths(E, G, a, b)) of the paper, which returns the subgraph of G
// traced out by all E-paths between two nodes.
//
// Tracing is implemented by compiling E into a Thompson NFA and exploring
// the product of the NFA with the graph: a triple lies on some accepting
// walk from a to b if and only if its product edge links a state
// forward-reachable from (a, start) to a state backward-reachable from
// (b, accept). The unit of a search is a *source set*: Frag(G, S) needs only
// the union of the traces, and a quantifier's targets are fixed by its body,
// so one forward search seeded with every source — recording each product
// edge as it discovers it, a reachable set being closed under successors —
// and one backward pass from the targets trace them all in O(|G|·|E|); the
// mark the pass leaves on a source's start state says whether that source
// reaches a target at all. A single source is the one-element set.
//
// An Evaluator is single-goroutine state; extraction builds one per worker.
// A forward search numbers the product states it discovers 0, 1, 2, …
// through one open-addressed, generation-stamped table keyed by the packed
// (node, state) pair; edge chains, backward marks and edge endpoints are
// slices indexed by that number, so a state is hashed once and the scratch is
// sized by the largest search, never by the dictionary. It is borrowed from a
// process-wide pool and handed back by Release, unless grown past
// maxPooledScratch. What an Evaluator returns is scratch only where it says
// so: Eval results are owned slices memoized per source, TraceUnionIDs
// returns a fresh slice. It keeps the most recent forward search, and the
// most recent trace over it, and nothing older: extraction evaluates ⟦E⟧G
// and then traces from the same sources, and a set extraction traces the same
// sources to the same targets twice — once to decide ≥1 E.ψ, once to collect
// it — so the second costs its hits alone. A search can be interrupted
// through SetStop, which core installs only where it recovers ErrStopped.
package paths

import (
	"strings"
)

// Expr is a path expression E following the grammar of Section 2:
//
//	E := p | E⁻ | E/E | E ∪ E | E* | E?
type Expr interface {
	// String renders the expression in SPARQL property-path syntax.
	String() string
	isExpr()
}

// Prop is an atomic path: a single property IRI p.
type Prop struct {
	IRI string
}

// Inverse is E⁻, traversing E backward.
type Inverse struct {
	X Expr
}

// Seq is E1/E2, path concatenation.
type Seq struct {
	Left, Right Expr
}

// Alt is E1 ∪ E2, path alternation.
type Alt struct {
	Left, Right Expr
}

// Star is E*, zero-or-more repetitions.
type Star struct {
	X Expr
}

// ZeroOrOne is E?, the zero-or-one path.
type ZeroOrOne struct {
	X Expr
}

func (Prop) isExpr()      {}
func (Inverse) isExpr()   {}
func (Seq) isExpr()       {}
func (Alt) isExpr()       {}
func (Star) isExpr()      {}
func (ZeroOrOne) isExpr() {}

func (p Prop) String() string { return "<" + p.IRI + ">" }

func (e Inverse) String() string { return "^" + parenthesize(e.X) }

func (e Seq) String() string {
	return parenthesizeLow(e.Left) + "/" + parenthesizeLow(e.Right)
}

func (e Alt) String() string {
	return e.Left.String() + "|" + e.Right.String()
}

func (e Star) String() string { return parenthesize(e.X) + "*" }

func (e ZeroOrOne) String() string { return parenthesize(e.X) + "?" }

// parenthesize wraps non-atomic subexpressions for postfix/prefix operators.
func parenthesize(e Expr) string {
	switch e.(type) {
	case Prop:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// parenthesizeLow wraps alternations inside sequences.
func parenthesizeLow(e Expr) string {
	if _, ok := e.(Alt); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// P is shorthand for Prop{iri}.
func P(iri string) Expr { return Prop{IRI: iri} }

// Inv is shorthand for Inverse{x}.
func Inv(x Expr) Expr { return Inverse{X: x} }

// SeqOf folds a list of expressions into nested sequences.
func SeqOf(parts ...Expr) Expr {
	if len(parts) == 0 {
		panic("paths: empty sequence")
	}
	e := parts[0]
	for _, p := range parts[1:] {
		e = Seq{Left: e, Right: p}
	}
	return e
}

// AltOf folds a list of expressions into nested alternations.
func AltOf(parts ...Expr) Expr {
	if len(parts) == 0 {
		panic("paths: empty alternation")
	}
	e := parts[0]
	for _, p := range parts[1:] {
		e = Alt{Left: e, Right: p}
	}
	return e
}

// Equal reports structural equality of two path expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Prop:
		y, ok := b.(Prop)
		return ok && x.IRI == y.IRI
	case Inverse:
		y, ok := b.(Inverse)
		return ok && Equal(x.X, y.X)
	case Seq:
		y, ok := b.(Seq)
		return ok && Equal(x.Left, y.Left) && Equal(x.Right, y.Right)
	case Alt:
		y, ok := b.(Alt)
		return ok && Equal(x.Left, y.Left) && Equal(x.Right, y.Right)
	case Star:
		y, ok := b.(Star)
		return ok && Equal(x.X, y.X)
	case ZeroOrOne:
		y, ok := b.(ZeroOrOne)
		return ok && Equal(x.X, y.X)
	}
	return false
}

// Properties returns the set of property IRIs mentioned in the expression.
func Properties(e Expr) map[string]struct{} {
	out := make(map[string]struct{})
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Prop:
			out[x.IRI] = struct{}{}
		case Inverse:
			walk(x.X)
		case Seq:
			walk(x.Left)
			walk(x.Right)
		case Alt:
			walk(x.Left)
			walk(x.Right)
		case Star:
			walk(x.X)
		case ZeroOrOne:
			walk(x.X)
		}
	}
	walk(e)
	return out
}

// CanBeEmpty reports whether the expression accepts a zero-length path,
// i.e. whether ⟦E⟧G contains the identity relation.
func CanBeEmpty(e Expr) bool {
	switch x := e.(type) {
	case Prop:
		return false
	case Inverse:
		return CanBeEmpty(x.X)
	case Seq:
		return CanBeEmpty(x.Left) && CanBeEmpty(x.Right)
	case Alt:
		return CanBeEmpty(x.Left) || CanBeEmpty(x.Right)
	case Star, ZeroOrOne:
		return true
	}
	return false
}

// Parse parses a path expression in SPARQL-like property path syntax:
//
//	path     := alt
//	alt      := seq ('|' seq)*
//	seq      := unary ('/' unary)*
//	unary    := '^' unary | primary postfix*
//	postfix  := '*' | '?'
//	primary  := '<iri>' | name | '(' path ')'
//
// Bare names are expanded by prefixing base (e.g. base "http://x/" turns
// "author" into <http://x/author>).
func Parse(input, base string) (Expr, error) {
	p := &pathParser{input: input, base: base}
	e, err := p.alt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, &ParseError{Input: input, Pos: p.pos, Msg: "trailing input"}
	}
	return e, nil
}

// MustParse is Parse but panics on error; for constants in tests/examples.
func MustParse(input, base string) Expr {
	e, err := Parse(input, base)
	if err != nil {
		panic(err)
	}
	return e
}

// ParseError reports a path expression syntax error.
type ParseError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	return "paths: parse error at offset " + itoa(e.Pos) + " in " + e.Input + ": " + e.Msg
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

type pathParser struct {
	input string
	base  string
	pos   int
}

func (p *pathParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *pathParser) errf(msg string) error {
	return &ParseError{Input: p.input, Pos: p.pos, Msg: msg}
}

func (p *pathParser) alt() (Expr, error) {
	left, err := p.seq()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos < len(p.input) && p.input[p.pos] == '|' {
			p.pos++
			right, err := p.seq()
			if err != nil {
				return nil, err
			}
			left = Alt{Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *pathParser) seq() (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos < len(p.input) && p.input[p.pos] == '/' {
			p.pos++
			right, err := p.unary()
			if err != nil {
				return nil, err
			}
			left = Seq{Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *pathParser) unary() (Expr, error) {
	p.skipSpace()
	if p.pos < len(p.input) && p.input[p.pos] == '^' {
		p.pos++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Inverse{X: x}, nil
	}
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.input) {
			return e, nil
		}
		switch p.input[p.pos] {
		case '*':
			p.pos++
			e = Star{X: e}
		case '?':
			p.pos++
			e = ZeroOrOne{X: e}
		case '-':
			// Postfix '-' as in the paper's E⁻ notation.
			p.pos++
			e = Inverse{X: e}
		default:
			return e, nil
		}
	}
}

func (p *pathParser) primary() (Expr, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return nil, p.errf("unexpected end of input")
	}
	switch c := p.input[p.pos]; {
	case c == '(':
		p.pos++
		e, err := p.alt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.input) || p.input[p.pos] != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		return e, nil
	case c == '<':
		end := strings.IndexByte(p.input[p.pos:], '>')
		if end < 0 {
			return nil, p.errf("unterminated IRI")
		}
		iri := p.input[p.pos+1 : p.pos+end]
		p.pos += end + 1
		return Prop{IRI: iri}, nil
	default:
		start := p.pos
		for p.pos < len(p.input) {
			c := p.input[p.pos]
			if c == '/' || c == '|' || c == '*' || c == '?' || c == ')' || c == '(' ||
				c == '^' || c == ' ' || c == '-' {
				break
			}
			p.pos++
		}
		if p.pos == start {
			return nil, p.errf("expected property name")
		}
		name := p.input[start:p.pos]
		return Prop{IRI: p.base + name}, nil
	}
}
