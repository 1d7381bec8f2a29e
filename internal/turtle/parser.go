package turtle

import (
	"fmt"
	"strings"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// Parse parses a Turtle document and returns its triples as a graph.
func Parse(input string) (*rdfgraph.Graph, error) {
	ts, err := ParseTriples(input)
	if err != nil {
		return nil, err
	}
	return rdfgraph.FromTriples(ts), nil
}

// ParseTriples parses a Turtle document into a triple list, preserving
// statement order.
func ParseTriples(input string) ([]rdf.Triple, error) {
	p := &parser{
		lex:      newLexer(input),
		prefixes: map[string]string{},
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		if err := p.statement(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

type parser struct {
	lex      *lexer
	tok      token
	prefixes map[string]string
	base     string
	out      []rdf.Triple
	bnodeSeq int
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind, what string) error {
	if p.tok.kind != k {
		return p.errorf("expected %s", what)
	}
	return p.advance()
}

func (p *parser) freshBlank() rdf.Term {
	p.bnodeSeq++
	return rdf.NewBlank(fmt.Sprintf("gen%d", p.bnodeSeq))
}

func (p *parser) statement() error {
	switch p.tok.kind {
	case tokPrefixDirective:
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokPName {
			return p.errorf("expected prefix name in @prefix")
		}
		name := strings.TrimSuffix(p.tok.text, ":")
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokIRI {
			return p.errorf("expected IRI in @prefix")
		}
		p.prefixes[name] = p.resolveIRI(p.tok.text)
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokDot { // SPARQL-style PREFIX has no dot
			return p.advance()
		}
		return nil
	case tokBaseDirective:
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokIRI {
			return p.errorf("expected IRI in @base")
		}
		p.base = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokDot {
			return p.advance()
		}
		return nil
	default:
		subject, hadProps, err := p.subject()
		if err != nil {
			return err
		}
		// A bare "[ ... ] ." statement needs no predicate-object list.
		if hadProps && p.tok.kind == tokDot {
			return p.advance()
		}
		if err := p.predicateObjectList(subject); err != nil {
			return err
		}
		return p.expect(tokDot, "'.'")
	}
}

// subject parses the subject of a statement. hadProps reports whether the
// subject was a bracketed blank node that already carried properties.
func (p *parser) subject() (rdf.Term, bool, error) {
	switch p.tok.kind {
	case tokIRI, tokPName:
		t, err := p.iriTerm()
		return t, false, err
	case tokBlank:
		t := rdf.NewBlank(p.tok.text)
		return t, false, p.advance()
	case tokLBracket:
		t, err := p.blankNodePropertyList()
		return t, true, err
	case tokLParen:
		t, err := p.collection()
		return t, true, err
	default:
		return rdf.Term{}, false, p.errorf("expected subject")
	}
}

func (p *parser) iriTerm() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRI:
		iri := p.resolveIRI(p.tok.text)
		return rdf.NewIRI(iri), p.advance()
	case tokPName:
		iri, err := p.expandPName(p.tok.text)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), p.advance()
	default:
		return rdf.Term{}, p.errorf("expected IRI")
	}
}

func (p *parser) resolveIRI(iri string) string {
	if p.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") ||
		strings.HasPrefix(iri, "mailto:") {
		return iri
	}
	if strings.HasPrefix(iri, "#") || !strings.Contains(iri, ":") {
		return p.base + iri
	}
	return iri
}

func (p *parser) expandPName(pname string) (string, error) {
	i := strings.Index(pname, ":")
	if i < 0 {
		return "", p.errorf("prefixed name %q has no colon", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errorf("undefined prefix %q", prefix)
	}
	local = strings.ReplaceAll(local, `\`, "")
	return ns + local, nil
}

func (p *parser) predicateObjectList(subject rdf.Term) error {
	for {
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		if err := p.objectList(subject, pred); err != nil {
			return err
		}
		if p.tok.kind != tokSemicolon {
			return nil
		}
		for p.tok.kind == tokSemicolon {
			if err := p.advance(); err != nil {
				return err
			}
		}
		// Trailing semicolon before '.', ']' etc.
		if p.tok.kind == tokDot || p.tok.kind == tokRBracket || p.tok.kind == tokEOF {
			return nil
		}
	}
}

func (p *parser) predicate() (rdf.Term, error) {
	if p.tok.kind == tokA {
		return rdf.NewIRI(rdf.RDFType), p.advance()
	}
	return p.iriTerm()
}

func (p *parser) objectList(subject, pred rdf.Term) error {
	for {
		obj, err := p.object()
		if err != nil {
			return err
		}
		p.out = append(p.out, rdf.T(subject, pred, obj))
		if p.tok.kind != tokComma {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *parser) object() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRI, tokPName:
		return p.iriTerm()
	case tokA:
		// 'a' is only the rdf:type keyword in predicate position.
		return rdf.Term{}, p.errorf("'a' is not valid in object position")
	case tokBlank:
		t := rdf.NewBlank(p.tok.text)
		return t, p.advance()
	case tokLBracket:
		return p.blankNodePropertyList()
	case tokLParen:
		return p.collection()
	case tokLiteral:
		return p.literal()
	case tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return numberLiteral(text), nil
	case tokBoolean:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(text, rdf.XSDBoolean), nil
	default:
		return rdf.Term{}, p.errorf("expected object")
	}
}

func numberLiteral(text string) rdf.Term {
	if strings.ContainsAny(text, "eE") {
		return rdf.NewTypedLiteral(text, rdf.XSDDouble)
	}
	if strings.Contains(text, ".") {
		return rdf.NewTypedLiteral(text, rdf.XSDDecimal)
	}
	return rdf.NewTypedLiteral(text, rdf.XSDInteger)
}

func (p *parser) literal() (rdf.Term, error) {
	lex := p.tok.text
	if err := p.advance(); err != nil {
		return rdf.Term{}, err
	}
	switch p.tok.kind {
	case tokLangTag:
		lang := p.tok.text
		return rdf.NewLangString(lex, lang), p.advance()
	case tokPrefixDirective, tokBaseDirective:
		// Directly after a literal, @prefix / @base is a language tag,
		// not a directive — the W3C grammar admits directives only in
		// statement position. Without this, "x"@PREFIX would serialize
		// as "x"@prefix and then fail to re-parse.
		if p.tok.text != "" { // only the @-form carries its word
			lang := p.tok.text
			return rdf.NewLangString(lex, lang), p.advance()
		}
		return rdf.NewString(lex), nil
	case tokDoubleCaret:
		if err := p.advance(); err != nil {
			return rdf.Term{}, err
		}
		dt, err := p.iriTerm()
		if err != nil {
			return rdf.Term{}, err
		}
		// An empty datatype IRI ("x"^^<>) is indistinguishable from a
		// plain literal once serialized; normalize it to xsd:string so
		// parse → serialize → parse is a fixed point.
		if dt.Value == "" {
			return rdf.NewString(lex), nil
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	default:
		return rdf.NewString(lex), nil
	}
}

func (p *parser) blankNodePropertyList() (rdf.Term, error) {
	if err := p.advance(); err != nil { // consume '['
		return rdf.Term{}, err
	}
	node := p.freshBlank()
	if p.tok.kind == tokRBracket {
		return node, p.advance()
	}
	if err := p.predicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	if err := p.expect(tokRBracket, "']'"); err != nil {
		return rdf.Term{}, err
	}
	return node, nil
}

func (p *parser) collection() (rdf.Term, error) {
	if err := p.advance(); err != nil { // consume '('
		return rdf.Term{}, err
	}
	first := rdf.NewIRI(rdf.RDFFirst)
	rest := rdf.NewIRI(rdf.RDFRest)
	nilTerm := rdf.NewIRI(rdf.RDFNil)
	if p.tok.kind == tokRParen {
		return nilTerm, p.advance()
	}
	head := p.freshBlank()
	cur := head
	for {
		obj, err := p.object()
		if err != nil {
			return rdf.Term{}, err
		}
		p.out = append(p.out, rdf.T(cur, first, obj))
		if p.tok.kind == tokRParen {
			p.out = append(p.out, rdf.T(cur, rest, nilTerm))
			return head, p.advance()
		}
		next := p.freshBlank()
		p.out = append(p.out, rdf.T(cur, rest, next))
		cur = next
	}
}

// ParseNTriples parses an N-Triples document. Since N-Triples is a subset
// of Turtle, this simply delegates to ParseTriples.
func ParseNTriples(input string) ([]rdf.Triple, error) {
	return ParseTriples(input)
}

// FormatNTriples serializes triples in canonical N-Triples form, one triple
// per line, in the order given.
func FormatNTriples(triples []rdf.Triple) string {
	var b strings.Builder
	var line []byte
	for _, t := range triples {
		line = appendStatement(line[:0], t)
		b.Write(line)
	}
	return b.String()
}

// FormatGraph serializes a graph in canonical (sorted) N-Triples form.
func FormatGraph(g rdfgraph.Reader) string {
	return FormatNTriples(g.Triples())
}

// FormatTurtle serializes triples as compact Turtle with the given prefix
// map (prefix name → namespace IRI), grouping by subject.
func FormatTurtle(triples []rdf.Triple, prefixes map[string]string) string {
	var b strings.Builder
	names := make([]string, 0, len(prefixes))
	for name := range prefixes {
		names = append(names, name)
	}
	// Sort for deterministic output.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		fmt.Fprintf(&b, "@prefix %s: <%s> .\n", name, prefixes[name])
	}
	if len(names) > 0 {
		b.WriteByte('\n')
	}
	abbr := func(t rdf.Term) string {
		if t.IsIRI() {
			if t.Value == rdf.RDFType {
				return "a"
			}
			for _, name := range names {
				ns := prefixes[name]
				if strings.HasPrefix(t.Value, ns) {
					local := t.Value[len(ns):]
					if local != "" && !strings.ContainsAny(local, "/#:") {
						return name + ":" + local
					}
				}
			}
		}
		return t.String()
	}
	var prevSubject rdf.Term
	open := false
	for i, t := range triples {
		if i > 0 && t.S == prevSubject {
			b.WriteString(" ;\n    ")
		} else {
			if open {
				b.WriteString(" .\n")
			}
			b.WriteString(abbr(t.S))
			b.WriteByte(' ')
			open = true
		}
		b.WriteString(abbr(t.P))
		b.WriteByte(' ')
		b.WriteString(abbr(t.O))
		prevSubject = t.S
	}
	if open {
		b.WriteString(" .\n")
	}
	return b.String()
}

// MustParse parses Turtle and panics on error; intended for tests and
// example programs with constant inputs.
func MustParse(input string) *rdfgraph.Graph {
	g, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return g
}
