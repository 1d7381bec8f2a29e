// Package turtle implements a parser and serializers for the Turtle and
// N-Triples RDF syntaxes. The parser covers the subset of Turtle that data
// graphs and SHACL shapes graphs in this repository use: prefix and base
// directives, prefixed names, IRIs, blank nodes (labelled and anonymous),
// collections, predicate/object lists, the 'a' keyword, and literals with
// escapes, language tags, datatypes, and the numeric/boolean shorthands.
//
// The serializers write no term syntax of their own: FormatNTriples and
// NTriplesWriter both append through rdf.Term.AppendNTriples. An
// NTriplesWriter borrows its buffer from a pool; Close gives it back
// (without flushing), and a closed writer must not be used again.
package turtle

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF         tokenKind = iota
	tokIRI                   // <...>
	tokPName                 // prefix:local or prefix:
	tokBlank                 // _:label
	tokLiteral               // "..." (value carried unescaped)
	tokLangTag               // @en
	tokDoubleCaret           // ^^
	tokNumber                // 123, -4.5, 6e7
	tokBoolean               // true / false
	tokA                     // the keyword a
	tokDot
	tokSemicolon
	tokComma
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokPrefixDirective // @prefix or PREFIX
	tokBaseDirective   // @base or BASE
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	input string
	pos   int
	line  int
}

func newLexer(input string) *lexer {
	return &lexer{input: input, line: 1}
}

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.input) {
		return 0
	}
	return l.input[l.pos]
}

func (l *lexer) skipWhitespaceAndComments() {
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func isPNChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c >= 0x80
}

func (l *lexer) next() (token, error) {
	l.skipWhitespaceAndComments()
	if l.pos >= len(l.input) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	start := l.pos
	c := l.input[l.pos]
	switch {
	case c == '<':
		l.pos++
		for l.pos < len(l.input) && l.input[l.pos] != '>' {
			if l.input[l.pos] == '\n' {
				return token{}, l.errorf("newline in IRI")
			}
			l.pos++
		}
		if l.pos >= len(l.input) {
			return token{}, l.errorf("unterminated IRI")
		}
		iri := l.input[start+1 : l.pos]
		l.pos++
		if !utf8.ValidString(iri) {
			return token{}, l.errorf("IRI is not valid UTF-8")
		}
		return token{kind: tokIRI, text: iri, line: l.line}, nil

	case c == '"' || c == '\'':
		return l.lexString(c)

	case c == '_':
		if l.pos+1 >= len(l.input) || l.input[l.pos+1] != ':' {
			return token{}, l.errorf("expected ':' after '_'")
		}
		l.pos += 2
		lbl := l.pos
		for l.pos < len(l.input) && isPNChar(l.input[l.pos]) {
			l.pos++
		}
		// A trailing dot terminates the statement, not the label.
		for l.pos > lbl && l.input[l.pos-1] == '.' {
			l.pos--
		}
		if l.pos == lbl {
			return token{}, l.errorf("empty blank node label")
		}
		return token{kind: tokBlank, text: l.input[lbl:l.pos], line: l.line}, nil

	case c == '@':
		l.pos++
		w := l.pos
		for l.pos < len(l.input) && (l.input[l.pos] >= 'a' && l.input[l.pos] <= 'z' ||
			l.input[l.pos] >= 'A' && l.input[l.pos] <= 'Z' || l.input[l.pos] == '-' ||
			l.input[l.pos] >= '0' && l.input[l.pos] <= '9') {
			l.pos++
		}
		word := l.input[w:l.pos]
		switch word {
		// The directive tokens keep their word so the parser can undo the
		// classification: after a literal, @prefix/@base is a language tag
		// (the W3C grammar admits directives only in statement position).
		case "prefix":
			return token{kind: tokPrefixDirective, text: word, line: l.line}, nil
		case "base":
			return token{kind: tokBaseDirective, text: word, line: l.line}, nil
		case "":
			return token{}, l.errorf("empty language tag")
		default:
			return token{kind: tokLangTag, text: word, line: l.line}, nil
		}

	case c == '^':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '^' {
			l.pos += 2
			return token{kind: tokDoubleCaret, line: l.line}, nil
		}
		return token{}, l.errorf("stray '^'")

	case c == '.':
		l.pos++
		return token{kind: tokDot, line: l.line}, nil
	case c == ';':
		l.pos++
		return token{kind: tokSemicolon, line: l.line}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, line: l.line}, nil
	case c == '[':
		l.pos++
		return token{kind: tokLBracket, line: l.line}, nil
	case c == ']':
		l.pos++
		return token{kind: tokRBracket, line: l.line}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, line: l.line}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, line: l.line}, nil

	case c == '+' || c == '-' || c >= '0' && c <= '9':
		return l.lexNumber()

	default:
		return l.lexWordOrPName()
	}
}

func (l *lexer) lexString(quote byte) (token, error) {
	// Support both short ("...", '...') and long ("""...""") forms.
	long := strings.HasPrefix(l.input[l.pos:], strings.Repeat(string(quote), 3))
	if long {
		l.pos += 3
	} else {
		l.pos++
	}
	var b strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c == '\\' {
			if l.pos+1 >= len(l.input) {
				return token{}, l.errorf("dangling escape")
			}
			esc := l.input[l.pos+1]
			l.pos += 2
			switch esc {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '\\':
				b.WriteByte('\\')
			case 'u', 'U':
				n := 4
				if esc == 'U' {
					n = 8
				}
				if l.pos+n > len(l.input) {
					return token{}, l.errorf("truncated \\%c escape", esc)
				}
				var r rune
				for i := 0; i < n; i++ {
					d := l.input[l.pos+i]
					var v rune
					switch {
					case d >= '0' && d <= '9':
						v = rune(d - '0')
					case d >= 'a' && d <= 'f':
						v = rune(d-'a') + 10
					case d >= 'A' && d <= 'F':
						v = rune(d-'A') + 10
					default:
						return token{}, l.errorf("bad hex digit %q", d)
					}
					r = r<<4 | v
				}
				l.pos += n
				if !utf8.ValidRune(r) {
					return token{}, l.errorf("invalid code point \\%c%X", esc, r)
				}
				b.WriteRune(r)
			default:
				return token{}, l.errorf("unknown escape \\%c", esc)
			}
			continue
		}
		if long {
			if c == quote {
				// Count the whole quote run: fewer than three are literal
				// quotes; otherwise the run's final three close the string
				// and the rest belong to its value ("""x"""" is x").
				run := 0
				for l.pos+run < len(l.input) && l.input[l.pos+run] == quote {
					run++
				}
				l.pos += run
				if run < 3 {
					for i := 0; i < run; i++ {
						b.WriteByte(quote)
					}
					continue
				}
				for i := 0; i < run-3; i++ {
					b.WriteByte(quote)
				}
				return l.literalToken(b.String())
			}
			if c == '\n' {
				l.line++
			}
			b.WriteByte(c)
			l.pos++
			continue
		}
		if c == quote {
			l.pos++
			return l.literalToken(b.String())
		}
		if c == '\n' {
			return token{}, l.errorf("newline in string literal")
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, l.errorf("unterminated string literal")
}

// literalToken validates a finished string literal. Rejecting invalid
// UTF-8 here keeps parse→serialize→parse a fixed point: the serializer
// could not re-emit such bytes without mangling them into U+FFFD.
func (l *lexer) literalToken(s string) (token, error) {
	if !utf8.ValidString(s) {
		return token{}, l.errorf("string literal is not valid UTF-8")
	}
	return token{kind: tokLiteral, text: s, line: l.line}, nil
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if c := l.input[l.pos]; c == '+' || c == '-' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.input) && l.input[l.pos] >= '0' && l.input[l.pos] <= '9' {
		l.pos++
		digits++
	}
	// A '.' is part of the number only if followed by a digit (otherwise it
	// terminates the statement).
	if l.pos+1 < len(l.input) && l.input[l.pos] == '.' &&
		l.input[l.pos+1] >= '0' && l.input[l.pos+1] <= '9' {
		l.pos++
		for l.pos < len(l.input) && l.input[l.pos] >= '0' && l.input[l.pos] <= '9' {
			l.pos++
			digits++
		}
	}
	if l.pos < len(l.input) && (l.input[l.pos] == 'e' || l.input[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.input) && (l.input[l.pos] == '+' || l.input[l.pos] == '-') {
			l.pos++
		}
		for l.pos < len(l.input) && l.input[l.pos] >= '0' && l.input[l.pos] <= '9' {
			l.pos++
		}
	}
	if digits == 0 {
		return token{}, l.errorf("malformed number %q", l.input[start:l.pos])
	}
	return token{kind: tokNumber, text: l.input[start:l.pos], line: l.line}, nil
}

func (l *lexer) lexWordOrPName() (token, error) {
	start := l.pos
	for l.pos < len(l.input) && (isPNChar(l.input[l.pos]) || l.input[l.pos] == ':' ||
		l.input[l.pos] == '%' || l.input[l.pos] == '\\') {
		l.pos++
	}
	word := l.input[start:l.pos]
	if word == "" {
		return token{}, l.errorf("unexpected character %q", l.input[start])
	}
	// A trailing '.' with nothing after the dot that could continue the name
	// terminates the statement.
	for strings.HasSuffix(word, ".") && !strings.Contains(word, ":") {
		word = word[:len(word)-1]
		l.pos--
	}
	switch word {
	case "a":
		return token{kind: tokA, line: l.line}, nil
	case "true", "false":
		return token{kind: tokBoolean, text: word, line: l.line}, nil
	case "PREFIX", "prefix":
		return token{kind: tokPrefixDirective, line: l.line}, nil
	case "BASE", "base":
		return token{kind: tokBaseDirective, line: l.line}, nil
	}
	if strings.Contains(word, ":") {
		for strings.HasSuffix(word, ".") {
			word = word[:len(word)-1]
			l.pos--
		}
		if !utf8.ValidString(word) { // as for <IRI>: it expands to one
			return token{}, l.errorf("prefixed name is not valid UTF-8")
		}
		return token{kind: tokPName, text: word, line: l.line}, nil
	}
	return token{}, l.errorf("unexpected word %q", word)
}
