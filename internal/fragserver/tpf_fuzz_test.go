package fragserver

import (
	"net/url"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/turtle"
)

// FuzzTPFPattern feeds /tpf query strings through parseTPFPattern. When
// the pattern has a request shape (Proposition 6.2), the shape's fragment
// of a fixed small graph must be exactly the pattern's matches, as
// tpf.TestExpressibleFormsEquivalence checks on random graphs; whatever
// the input, nothing may panic.
func FuzzTPFPattern(f *testing.F) {
	g, err := turtle.Parse(`
@prefix ex: <http://test/> .
ex:a ex:p ex:b , ex:a , "5" , "chat"@en .
ex:a ex:q ex:b .
ex:b ex:p _:n .
_:n ex:p ex:a .
ex:c ex:q ex:c .
`)
	if err != nil {
		f.Fatal(err)
	}
	g.Freeze() // extraction must not intern the fuzzed constants
	for _, seed := range []string{
		// The seven expressible forms.
		"p=<http://test/p>",
		"p=<http://test/p>&o=<http://test/b>",
		"s=<http://test/a>&p=<http://test/p>",
		"s=<http://test/a>&p=<http://test/p>&o=<http://test/b>",
		"s=?x&p=<http://test/p>&o=?x",
		"",
		"s=<http://test/a>",
		// The inexpressible ones.
		"s=?x&p=?y&o=?x",
		"s=?x&p=?y&o=?y",
		"s=?x&p=?x&o=?x",
		"s=?x&p=?x&o=?y",
		"o=<http://test/c>",
		"s=?x&p=?x&o=<http://test/c>",
		"s=<http://test/c>&p=?x&o=?x",
		"s=<http://test/c>&o=<http://test/d>",
		// Rejected input and constants the graph does not hold.
		"p=%22lit%22",
		"s=%3Chttp%3A%2F%2Ftest%2Fa&p=?",
		"s=_:n&p=<http://test/p>&o=%225%22",
		"s=<http://test/zz>&p=<http://test/zz>&o=?s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		q, _ := url.ParseQuery(query) // the handler reads r.URL.Query(), which drops bad pairs too
		pattern, err := parseTPFPattern(q)
		if err != nil {
			return
		}
		phi, ok := pattern.RequestShape()
		if !ok {
			return
		}
		want := make(map[rdf.Triple]bool)
		for _, tr := range pattern.Eval(g) {
			want[tr] = true
		}
		got := core.Fragment(g, nil, phi)
		for _, tr := range got {
			if !want[tr] {
				t.Fatalf("%s via %s: extra triple %v", pattern, phi, tr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s via %s: fragment has %d triples, pattern matches %d", pattern, phi, len(got), len(want))
		}
	})
}
