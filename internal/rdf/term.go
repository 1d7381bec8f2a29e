// Package rdf defines the RDF data model used throughout the repository:
// IRIs, blank nodes, literals (with datatypes and language tags), and
// triples. It also implements the two literal relations the paper assumes:
// the language-tag equivalence ~ (SameLang) and the strict partial order <
// on literal values (Less), covering numeric, string, boolean and dateTime
// comparisons.
package rdf

import (
	"strconv"
	"strings"
	"time"
)

// Kind discriminates the three disjoint sets of RDF terms: I (IRIs),
// B (blank nodes) and L (literals).
type Kind uint8

const (
	// KindIRI marks a term from the set I of IRIs.
	KindIRI Kind = iota
	// KindBlank marks a term from the set B of blank nodes.
	KindBlank
	// KindLiteral marks a term from the set L of literals.
	KindLiteral
)

// Well-known datatype IRIs. Only the ones the comparison and parsing logic
// must recognize are listed; any other datatype IRI is carried opaquely.
const (
	XSDString     = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger    = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal    = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble     = "http://www.w3.org/2001/XMLSchema#double"
	XSDFloat      = "http://www.w3.org/2001/XMLSchema#float"
	XSDBoolean    = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime   = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDDate       = "http://www.w3.org/2001/XMLSchema#date"
	RDFLangString = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

	// RDFType is the rdf:type property.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	// RDFSSubClassOf is the rdfs:subClassOf property.
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	// RDFFirst and RDFRest encode RDF collections.
	RDFFirst = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
	RDFRest  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
	// RDFNil terminates RDF collections.
	RDFNil = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"
)

// Term is a single RDF term. Term is a comparable value type so it can be
// used directly as a map key; the zero Term is the empty IRI, which is never
// produced by the parsers and can serve as a sentinel.
//
// For IRIs, Value holds the IRI string. For blank nodes, Value holds the
// label (without the "_:" prefix). For literals, Value holds the lexical
// form, Datatype the datatype IRI, and Lang the (lowercased) language tag;
// Lang is non-empty only when Datatype is rdf:langString.
type Term struct {
	Kind     Kind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns the IRI term for the given IRI string.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewString returns an xsd:string literal.
func NewString(s string) Term {
	return Term{Kind: KindLiteral, Value: s, Datatype: XSDString}
}

// NewLangString returns an rdf:langString literal with the given language
// tag. Tags compare case-insensitively, so the tag is lowercased.
func NewLangString(s, lang string) Term {
	return Term{Kind: KindLiteral, Value: s, Datatype: RDFLangString, Lang: strings.ToLower(lang)}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(i int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(i, 10), Datatype: XSDInteger}
}

// NewDecimal returns an xsd:decimal literal for the given value.
func NewDecimal(f float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(f, 'f', -1, 64), Datatype: XSDDecimal}
}

// NewDouble returns an xsd:double literal for the given value.
func NewDouble(f float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(f, 'g', -1, 64), Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(b bool) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatBool(b), Datatype: XSDBoolean}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// AppendNTriples appends the term in N-Triples concrete syntax to dst and
// returns the extended slice. It is the only place in the repository that
// writes N-Triples term syntax: String, Triple.String, the turtle
// serializers and the live delta renderer all go through it, so every
// route's bytes agree by construction and none of them allocates per term.
// The receiver is a pointer so that a term is encoded where it lies — in a
// dictionary's table, say — and not copied first.
func (t *Term) AppendNTriples(dst []byte) []byte {
	switch t.Kind {
	case KindIRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case KindBlank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	}
	dst = append(dst, '"')
	dst = appendEscaped(dst, t.Value)
	dst = append(dst, '"')
	switch {
	case t.Lang != "":
		dst = append(dst, '@')
		dst = append(dst, t.Lang...)
	case t.Datatype != "" && t.Datatype != XSDString:
		dst = append(dst, "^^<"...)
		dst = append(dst, t.Datatype...)
		dst = append(dst, '>')
	}
	return dst
}

// String renders the term in N-Triples-like concrete syntax.
func (t Term) String() string {
	var buf [128]byte
	return string(t.AppendNTriples(buf[:0]))
}

// appendEscaped appends a literal's lexical form, escaping the quote,
// backslash and every C0 control character so the output re-lexes to the
// same form. It walks bytes, not runes: all escaped characters are ASCII,
// and byte-copying the rest cannot corrupt multi-byte sequences the way a
// rune loop would (a rune loop rewrites invalid UTF-8 to U+FFFD).
func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	start := 0 // beginning of the pending run of bytes copied as they are
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		start = i + 1
		switch c {
		case '"':
			dst = append(dst, `\"`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		case '\b':
			dst = append(dst, `\b`...)
		case '\f':
			dst = append(dst, `\f`...)
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
	}
	return append(dst, s[start:]...)
}

// SameLang implements the equivalence relation ~ on literals: both terms are
// language-tagged literals carrying the same (case-insensitive) tag.
func SameLang(a, b Term) bool {
	return a.IsLiteral() && b.IsLiteral() && a.Lang != "" && a.Lang == b.Lang
}

// valueClass partitions comparable literals; values of different classes are
// incomparable under Less, keeping < a strict partial order.
type valueClass uint8

const (
	classNone valueClass = iota
	classNumeric
	classString
	classBoolean
	classDateTime
)

func (t Term) class() valueClass {
	if !t.IsLiteral() {
		return classNone
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat:
		return classNumeric
	case XSDString, "", RDFLangString:
		return classString
	case XSDBoolean:
		return classBoolean
	case XSDDateTime, XSDDate:
		return classDateTime
	default:
		return classNone
	}
}

// NumericValue parses the literal as a number, reporting whether it has a
// numeric datatype with a valid lexical form.
func (t Term) NumericValue() (float64, bool) {
	if t.class() != classNumeric {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// TimeValue parses the literal as an xsd:dateTime or xsd:date, reporting
// whether it parsed.
func (t Term) TimeValue() (time.Time, bool) {
	if t.class() != classDateTime {
		return time.Time{}, false
	}
	for _, layout := range []string{time.RFC3339, "2006-01-02T15:04:05", "2006-01-02"} {
		if v, err := time.Parse(layout, t.Value); err == nil {
			return v, true
		}
	}
	return time.Time{}, false
}

// Less implements the strict partial order < on literals the paper assumes
// for lessThan/lessThanEq shapes: numeric literals compare numerically,
// strings lexicographically, booleans false<true, and dateTime values
// chronologically. Terms in different classes, non-literals, and literals
// with unparseable lexical forms are incomparable (Less returns false for
// both orders).
func Less(a, b Term) bool {
	ca, cb := a.class(), b.class()
	if ca == classNone || ca != cb {
		return false
	}
	switch ca {
	case classNumeric:
		fa, oka := a.NumericValue()
		fb, okb := b.NumericValue()
		return oka && okb && fa < fb
	case classString:
		return a.Value < b.Value
	case classBoolean:
		return a.Value == "false" && b.Value == "true"
	case classDateTime:
		ta, oka := a.TimeValue()
		tb, okb := b.TimeValue()
		return oka && okb && ta.Before(tb)
	}
	return false
}

// LessEq reports a < b or a = b under the same comparability rules as Less.
// Note that, as in the paper, ¬(a ≤ b) is not the same as b < a: it also
// holds when a and b are incomparable.
func LessEq(a, b Term) bool {
	if Less(a, b) {
		return true
	}
	ca := a.class()
	if ca == classNone || ca != b.class() {
		return false
	}
	switch ca {
	case classNumeric:
		fa, oka := a.NumericValue()
		fb, okb := b.NumericValue()
		return oka && okb && fa == fb
	case classDateTime:
		ta, oka := a.TimeValue()
		tb, okb := b.TimeValue()
		return oka && okb && ta.Equal(tb)
	default:
		return a.Value == b.Value
	}
}

// Compare totally orders terms for deterministic output: IRIs < blanks <
// literals, then by value, datatype and language. This order is *not* the
// semantic < of the paper (see Less); it exists so that every set of terms
// or triples this library returns can be canonically sorted.
func Compare(a, b Term) int { return ComparePtr(&a, &b) }

// ComparePtr is Compare on pointers, which spares a sort over a term table
// copying two terms per comparison.
func ComparePtr(a, b *Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

// Triple is an RDF triple (s, p, o) ∈ (I ∪ B) × I × N.
type Triple struct {
	S, P, O Term
}

// T is shorthand for constructing a triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// AppendNTriples appends the triple in N-Triples syntax (without the final
// dot) to dst and returns the extended slice.
func (t Triple) AppendNTriples(dst []byte) []byte {
	dst = append(t.S.AppendNTriples(dst), ' ')
	dst = append(t.P.AppendNTriples(dst), ' ')
	return t.O.AppendNTriples(dst)
}

// String renders the triple in N-Triples syntax (without the final dot).
func (t Triple) String() string {
	var buf [256]byte
	return string(t.AppendNTriples(buf[:0]))
}

// CompareTriples totally orders triples by subject, predicate, object.
func CompareTriples(a, b Triple) int {
	if c := Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := Compare(a.P, b.P); c != 0 {
		return c
	}
	return Compare(a.O, b.O)
}

// Valid reports whether the triple satisfies the RDF constraints: the
// subject is an IRI or blank node and the predicate is an IRI.
func (t Triple) Valid() bool {
	return (t.S.IsIRI() || t.S.IsBlank()) && t.P.IsIRI()
}
