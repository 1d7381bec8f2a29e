package store_test

import (
	"shaclfrag/internal/rdf"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func exTriple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: ex(s), P: ex(p), O: ex(o)}
}
