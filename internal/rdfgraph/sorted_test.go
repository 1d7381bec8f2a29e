package rdfgraph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"shaclfrag/internal/rdf"
)

// collidingTerm draws from a universe in which most pairs of terms agree on
// kind and lexical value and differ only in datatype or language tag — the
// cases where an ID-first comparison could drift from rdf.Compare.
func collidingTerm(rng *rand.Rand, literal bool) rdf.Term {
	v := []string{"a", "b", "1"}[rng.Intn(3)]
	if !literal {
		if rng.Intn(2) == 0 {
			return rdf.NewBlank(v)
		}
		return rdf.NewIRI(v)
	}
	switch rng.Intn(4) {
	case 0:
		return rdf.NewString(v)
	case 1:
		return rdf.NewLangString(v, []string{"en", "en-gb", "nl"}[rng.Intn(3)])
	case 2:
		return rdf.NewTypedLiteral(v, []string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDBoolean}[rng.Intn(3)])
	default:
		return rdf.NewIRI(v)
	}
}

// TestSortedMatchesCompareTriples: Sorted, decoded, is the set sorted by
// rdf.CompareTriples — on a root dictionary and on an Extend overlay whose
// newer terms resolve through the shared term table.
func TestSortedMatchesCompareTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 200; trial++ {
		base := NewDict()
		d := base
		set := NewIDTripleSet()
		var want []rdf.Triple
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			if i == n/2 && trial%2 == 1 {
				base.Freeze()
				d = base.Extend() // the second half interns into an overlay
			}
			tr := rdf.T(collidingTerm(rng, false), rdf.NewIRI([]string{"p", "q"}[rng.Intn(2)]), collidingTerm(rng, true))
			if set.Add(IDTriple{S: d.Intern(tr.S), P: d.Intern(tr.P), O: d.Intern(tr.O)}) {
				want = append(want, tr)
			}
		}
		sort.Slice(want, func(i, j int) bool { return rdf.CompareTriples(want[i], want[j]) < 0 })
		if got := d.DecodeTriples(set.Sorted(d)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Sorted decodes to\n%v\nwant\n%v", trial, got, want)
		}
		if got := set.Triples(d); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Triples = %v, want %v", trial, got, want)
		}
	}
}
