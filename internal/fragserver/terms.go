package fragserver

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"unicode/utf8"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/turtle"
)

// parseTermParam parses one HTTP query parameter as an RDF term. Accepted
// forms:
//
//	<http://example.org/x>      bracketed IRI
//	http://example.org/x        bare IRI (needs a scheme, no delimiters)
//	"chamois"                   plain literal
//	"chamois"@en                language-tagged literal
//	"42"^^<http://…#integer>    datatyped literal
//	42, 4.2, true, false        Turtle shorthand literals
//	_:b0                        blank node
//
// Malformed input yields a descriptive error (the handlers turn it into
// HTTP 400); this function never panics.
func parseTermParam(raw string) (rdf.Term, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return rdf.Term{}, errors.New("empty term")
	}
	switch {
	case raw[0] == '<' && strings.IndexByte(raw, '>') == len(raw)-1 &&
		!strings.Contains(raw, "\n") && utf8.ValidString(raw):
		// One <iri> as the Turtle lexer reads it, with no parser run.
		return rdf.NewIRI(raw[1 : len(raw)-1]), nil
	case strings.HasPrefix(raw, "<"), strings.HasPrefix(raw, `"`),
		strings.HasPrefix(raw, "_:"), looksNumericOrBoolean(raw):
		return parseTermViaTurtle(raw)
	default:
		return parseBareIRI(raw)
	}
}

// parseTermViaTurtle reuses the Turtle parser by placing the raw text in
// the object position of a probe triple; exactly one triple must come back,
// which also rejects smuggled terminators and object lists.
func parseTermViaTurtle(raw string) (rdf.Term, error) {
	const probe = "<http://fragserver.invalid/s> <http://fragserver.invalid/p> "
	ts, err := turtle.ParseTriples(probe + raw + " .")
	if err != nil {
		return rdf.Term{}, fmt.Errorf("malformed term %q: %v", raw, err)
	}
	if len(ts) != 1 {
		return rdf.Term{}, fmt.Errorf("malformed term %q: expected a single term", raw)
	}
	return ts[0].O, nil
}

// parseBareIRI accepts un-bracketed IRIs for curl convenience, rejecting
// anything that could not be an IRI (whitespace, Turtle delimiters, no
// scheme separator).
func parseBareIRI(raw string) (rdf.Term, error) {
	if strings.ContainsAny(raw, " \t\r\n<>\"'`{}|\\^") {
		return rdf.Term{}, fmt.Errorf("malformed IRI %q: contains whitespace or delimiter characters (bracket IRIs as <iri>, quote literals)", raw)
	}
	if !strings.Contains(raw, ":") {
		return rdf.Term{}, fmt.Errorf("malformed IRI %q: an IRI needs a scheme (or use ?name for a variable)", raw)
	}
	return rdf.NewIRI(raw), nil
}

func looksNumericOrBoolean(raw string) bool {
	if raw == "true" || raw == "false" {
		return true
	}
	c := raw[0]
	return c == '+' || c == '-' || (c >= '0' && c <= '9')
}

// queryValue is url.Values.Get on url.ParseQuery(raw) without building the
// map: the value of the first pair whose unescaped key is key, skipping
// pairs that contain ';' or fail to unescape, "" when there is none.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key || pair == "" || strings.Contains(pair, ";") {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}
