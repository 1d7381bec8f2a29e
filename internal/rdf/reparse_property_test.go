package rdf_test

import (
	"math/rand"
	"testing"
	"unicode/utf8"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/turtle"
)

// TestAppendNTriplesReparses: what the encoder writes, the parser reads
// back as the same term, escapes and C0 controls included. Invalid UTF-8 is
// byte-copied by the encoder (the oracle test pins that) and refused by the
// parser, so those draws are skipped here.
func TestAppendNTriplesReparses(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	s, p := rdf.NewIRI("http://enc.example/s"), rdf.NewIRI("http://enc.example/p")
	for i := 0; i < 5000; i++ {
		o := rdf.RandomEncoderTerm(rng)
		if !utf8.ValidString(o.Value) {
			continue
		}
		if o.IsLiteral() && o.Datatype == "" {
			o.Datatype = rdf.XSDString // written the same, read back typed
		}
		line := string(rdf.T(s, p, o).AppendNTriples(nil)) + " .\n"
		got, err := turtle.ParseTriples(line)
		if err != nil {
			t.Fatalf("%q does not parse: %v", line, err)
		}
		if len(got) != 1 || got[0].O != o {
			t.Fatalf("%q parsed to %#v, want object %#v", line, got, o)
		}
	}
}
