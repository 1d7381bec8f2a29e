package live

import (
	"math/rand"
	"slices"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// TestApplyMatchesModel checks net and the in-place merge of support-count
// changes against a map: over random histories on a small triple space,
// where one batch may change a triple several times, many changes land
// between the same two array entries and runs of adjacent entries leave at
// once, frag and count must equal the model's positive counts in canonical
// order, and added/removed the triples whose count left or reached zero.
// Term IDs are interned out of canonical order.
func TestApplyMatchesModel(t *testing.T) {
	d := rdfgraph.NewDict()
	for _, name := range []string{"f", "b", "d", "a", "e", "c"} {
		d.Intern(rdf.NewIRI("http://ex/" + name))
	}
	rng := rand.New(rand.NewSource(1))
	st, model := &shapeState{}, map[rdfgraph.IDTriple]int32{}
	for step := 0; step < 400; step++ {
		var cs []change
		sum := map[rdfgraph.IDTriple]int32{}
		for k := rng.Intn(12); k > 0; k-- {
			tr := rdfgraph.IDTriple{S: rdfgraph.ID(rng.Intn(6)), P: rdfgraph.ID(rng.Intn(2)), O: rdfgraph.ID(rng.Intn(6))}
			n := int32(rng.Intn(3) - 1)
			if model[tr]+sum[tr]+n < 0 {
				continue
			}
			sum[tr] += n
			cs = append(cs, change{t: tr, n: n})
		}
		var wantAdded, wantRemoved []rdfgraph.IDTriple
		for tr, n := range sum {
			before := model[tr]
			switch model[tr] += n; {
			case before == 0 && n > 0:
				wantAdded = append(wantAdded, tr)
			case before > 0 && model[tr] == 0:
				wantRemoved = append(wantRemoved, tr)
			}
			if model[tr] == 0 {
				delete(model, tr)
			}
		}
		added, removed, err := st.apply(d, net(d, cs))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rdfgraph.SortIDTriples(d, wantAdded)
		rdfgraph.SortIDTriples(d, wantRemoved)
		var want []rdfgraph.IDTriple
		for tr := range model {
			want = append(want, tr)
		}
		rdfgraph.SortIDTriples(d, want)
		if !slices.Equal(st.frag, want) || !slices.Equal(added, wantAdded) || !slices.Equal(removed, wantRemoved) {
			t.Fatalf("step %d: frag %v added %v removed %v, want %v, %v, %v", step, st.frag, added, removed, want, wantAdded, wantRemoved)
		}
		for i, tr := range st.frag {
			if st.count[i] != uint32(model[tr]) {
				t.Fatalf("step %d: count of %v is %d, want %d", step, tr, st.count[i], model[tr])
			}
		}
	}
	if _, _, err := st.apply(d, []change{{t: rdfgraph.IDTriple{S: 5, P: 5, O: 5}, n: -1}}); err == nil {
		t.Fatal("a count below zero was accepted")
	}
}
