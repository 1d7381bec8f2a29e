package rdf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oracleString is Term.String as it stood before AppendNTriples replaced
// it (strings.Builder, fmt for the \u escapes), kept as the reference the
// append encoder must reproduce byte for byte.
func oracleString(t Term) string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(t.Value); i++ {
		c := t.Value[i]
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\r':
			b.WriteString(`\r`)
		case c == '\t':
			b.WriteString(`\t`)
		case c == '\b':
			b.WriteString(`\b`)
		case c == '\f':
			b.WriteString(`\f`)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04X`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	switch {
	case t.Lang != "":
		b.WriteByte('@')
		b.WriteString(t.Lang)
	case t.Datatype != "" && t.Datatype != XSDString:
		b.WriteString("^^<")
		b.WriteString(t.Datatype)
		b.WriteByte('>')
	}
	return b.String()
}

// randomEncoderTerm draws a term whose lexical form is rich in everything
// the encoder treats specially: quotes, backslashes, every C0 control,
// multi-byte runes and invalid UTF-8.
func randomEncoderTerm(rng *rand.Rand) Term {
	alphabet := []string{`"`, `\`, "\n", "\r", "\t", "\b", "\f", "a", "Z", " ", "é", "日本", "\xff", "\xc3", "\x7f"}
	for c := 0; c < 0x20; c++ {
		alphabet = append(alphabet, string([]byte{byte(c)}))
	}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	lex := b.String()
	switch rng.Intn(6) {
	case 0:
		return NewIRI(fmt.Sprintf("http://enc.example/r%d#x", rng.Intn(50)))
	case 1:
		return NewBlank(fmt.Sprintf("b%d", rng.Intn(50)))
	case 2:
		return NewString(lex)
	case 3:
		return NewLangString(lex, []string{"en", "de-AT", "nl"}[rng.Intn(3)])
	case 4:
		return NewTypedLiteral(lex, []string{XSDInteger, XSDDateTime, "http://enc.example/dt"}[rng.Intn(3)])
	default:
		return Term{Kind: KindLiteral, Value: lex} // no datatype at all
	}
}

// TestAppendNTriplesMatchesOracle: the append encoder, String (which wraps
// it) and the pre-change rendering agree on every term, also when the
// destination already holds bytes and when it has to grow.
func TestAppendNTriplesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		term := randomEncoderTerm(rng)
		want := oracleString(term)
		if got := term.String(); got != want {
			t.Fatalf("String() = %q, oracle %q for %#v", got, want, term)
		}
		prefix := []byte("x ")
		if got := string(term.AppendNTriples(prefix[:2:2])); got != "x "+want {
			t.Fatalf("AppendNTriples onto a full slice = %q, want %q", got, "x "+want)
		}
		tr := Triple{S: NewBlank("s"), P: NewIRI("http://enc.example/p"), O: term}
		if got, want := tr.String(), "_:s <http://enc.example/p> "+want; got != want {
			t.Fatalf("Triple.String() = %q, want %q", got, want)
		}
	}
}
