package fragserver

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzParseTermParam is a differential target for the two shortcuts the
// read routes take on their parameters. A bracketed term must come back
// from parseTermParam exactly as the Turtle probe parses it — the same
// term, or an error from both — whether or not the <iri> fast path took
// it. And queryValue must agree with url.ParseQuery's Get, for the fuzzed
// key and for every key the query has, on the same input read as a raw
// query.
func FuzzParseTermParam(f *testing.F) {
	for _, seed := range [][2]string{
		{"<http://example.org/x>", "iri"},
		{" <http://example.org/x> ", "iri"},
		{"<>", ""},
		{"<a b>", "a b"},
		{"<a>b>", "a"},
		{"<a\n>", "a"},
		{"<\xff>", "x"},
		{"<a> <b>", "a"},
		{"<a", "a"},
		{"<a>.", "a"},
		{"<a> . <s> <p> <o>", "a"},
		{`"chamois"@en`, "iri"},
		{"iri=%3Chttp%3A%2F%2Fex%2Fa%3E&shape=S01", "iri"},
		{"iri=a&iri=b", "iri"},
		{"iri=a;b&iri=c", "iri"},
		{"i%72i=%zz&iri=x", "iri"},
		{"a+b=c&a%20b=d", "a b"},
		{"=x&&iri", "iri"},
		{"shape=%3", "shape"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		if trimmed := strings.TrimSpace(raw); strings.HasPrefix(trimmed, "<") {
			got, gotErr := parseTermParam(raw)
			want, wantErr := parseTermViaTurtle(trimmed)
			if (gotErr != nil) != (wantErr != nil) || got != want {
				t.Fatalf("parseTermParam(%q) = %v, %v; the Turtle probe gives %v, %v", raw, got, gotErr, want, wantErr)
			}
		}
		q, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, key), q.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery's Get %q", raw, key, got, want)
		}
		for k := range q {
			if got, want := queryValue(raw, k), q.Get(k); got != want {
				t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery's Get %q", raw, k, got, want)
			}
		}
	})
}
