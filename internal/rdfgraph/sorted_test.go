package rdfgraph

import (
	"cmp"
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
// rdf.CompareTriples — on an unranked root dictionary, on a frozen (ranked)
// root, whose sort packs rank keys, and on an Extend overlay whose newer,
// unranked terms resolve through the shared term table.
func TestSortedMatchesCompareTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 300; trial++ {
		base := NewDict()
		d := base
		set := NewIDTripleSet()
		var want []rdf.Triple
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			if i == n/2 && trial%3 == 2 {
				base.Freeze()
				d = base.Extend() // the second half interns into an overlay
			}
			tr := rdf.T(collidingTerm(rng, false), rdf.NewIRI([]string{"p", "q"}[rng.Intn(2)]), collidingTerm(rng, true))
			if set.Add(IDTriple{S: d.Intern(tr.S), P: d.Intern(tr.P), O: d.Intern(tr.O)}) {
				want = append(want, tr)
			}
		}
		if trial%3 == 1 {
			base.Freeze()
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

// TestRankOrderMatchesCompare: over an Extend history of twice as many
// interning overlays as dictFlattenDepth — empty overlays between them, unseen
// colliding terms in each — every epoch orders every pair of its IDs with
// the sign of rdf.Compare, whether both are ranked, one or neither, and
// sorts triples canonically. An epoch's order, recorded when it is frozen,
// is unchanged once later overlays and flattens have been frozen.
func TestRankOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	sign := func(c int) int { return cmp.Compare(c, 0) }
	orderOf := func(d *Dict) []ID {
		ids := make([]ID, d.Len())
		for i := range ids {
			ids[i] = ID(i)
		}
		slices.SortFunc(ids, d.compareIDs)
		return ids
	}
	for trial := 0; trial < 30; trial++ {
		d := NewDict()
		for d.Len() < 5 {
			d.Intern(collidingTerm(rng, rng.Intn(2) == 0))
		}
		var epochs []*Dict
		var orders [][]ID
		var sorted [][]IDTriple
		for interned := 0; ; {
			d.Freeze()
			for a := range ID(d.Len()) {
				for b := range ID(d.Len()) {
					if got, want := sign(d.compareIDs(a, b)), sign(rdf.Compare(d.Term(a), d.Term(b))); got != want {
						t.Fatalf("trial %d, epoch %d: %v vs %v compares %d, rdf.Compare %d", trial, len(epochs), d.Term(a), d.Term(b), got, want)
					}
				}
			}
			ts := make([]IDTriple, 40)
			for i := range ts {
				ts[i] = IDTriple{S: ID(rng.Intn(d.Len())), P: ID(rng.Intn(d.Len())), O: ID(rng.Intn(d.Len()))}
			}
			SortIDTriples(d, ts)
			if got := d.DecodeTriples(ts); !slices.IsSortedFunc(got, rdf.CompareTriples) {
				t.Fatalf("trial %d, epoch %d: SortIDTriples decodes to %v", trial, len(epochs), got)
			}
			epochs, orders, sorted = append(epochs, d), append(orders, orderOf(d)), append(sorted, ts)
			if interned > 2*dictFlattenDepth { // two flattens behind

				break
			}
			d = d.Extend()
			if rng.Intn(3) == 0 {
				continue // an empty overlay
			}
			d.Intern(collidingTerm(rng, rng.Intn(2) == 0))
			for n := d.Len(); d.Len() == n; { // and at least one unseen term
				d.Intern(collidingTerm(rng, rng.Intn(2) == 0))
			}
			interned++
		}
		for e, d := range epochs {
			if got := orderOf(d); !slices.Equal(got, orders[e]) {
				t.Fatalf("trial %d: epoch %d's order changed after later epochs: %v, was %v", trial, e, got, orders[e])
			}
			ts := slices.Clone(sorted[e])
			rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			if SortIDTriples(d, ts); !slices.Equal(ts, sorted[e]) {
				t.Fatalf("trial %d: epoch %d sorts %v after later epochs, was %v", trial, e, ts, sorted[e])
			}
		}
	}
}
