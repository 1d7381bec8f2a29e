package plan

import (
	"fmt"
	"slices"
	"testing"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// TestReleaseReturnsTouchedPages binds a program, decides and collects at
// the highest node of a 1 000-node p-chain — memo and visited pages four
// directory slots in — and releases it: exactly the pages the Bound took go
// back to its spare set, zeroed, and their slots are empty. The next Bind,
// at the lowest node, reads zeros at both nodes and from every spare page,
// and answers as a program never bound does.
func TestReleaseReturnsTouchedPages(t *testing.T) {
	const n = 1000
	p := "http://release.example/p"
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://release.example/n%d", i)) }
	g := rdfgraph.New()
	for i := 0; i < n; i++ {
		g.Add(rdf.T(node(i), rdf.NewIRI(p), node(i+1)))
	}
	g.Freeze()
	low, high := g.LookupTerm(node(0)), g.LookupTerm(node(n-2))
	if high>>pageShift < 3 || low>>pageShift != 0 {
		t.Fatalf("fixture: nodes at pages %d and %d", low>>pageShift, high>>pageShift)
	}
	phi := shape.Min(1, paths.P(p), shape.Min(1, paths.P(p), shape.TrueShape()))
	prog := Compile(phi, nil)

	b := prog.Bind(g)
	if !b.ConformsRoot(high) {
		t.Fatal("fixture: the high node does not conform")
	}
	b.CollectInto(high, rdfgraph.NewIDTripleSet())
	var took []*page
	for _, ref := range b.touched {
		if ref.k != int32(high>>pageShift) {
			t.Errorf("a page at directory slot %d, not the high node's %d", ref.k, high>>pageShift)
		}
		took = append(took, (*ref.dir)[ref.k])
	}
	if len(took) < 2 {
		t.Fatalf("the Bound took %d pages, want memo and visited ones", len(took))
	}
	refs, spare := slices.Clone(b.touched), b.spare
	before := len(spare.pages)
	b.Release()
	returned := spare.pages[before:]
	if len(returned) != len(took) {
		t.Fatalf("Release returned %d pages, the Bound took %d", len(returned), len(took))
	}
	for _, pg := range took {
		if !slices.Contains(returned, pg) {
			t.Fatal("a page the Bound took is not among those returned")
		}
		if *pg != (page{}) {
			t.Fatal("a returned page is not zeroed")
		}
	}
	for _, ref := range refs {
		if (*ref.dir)[ref.k] != nil {
			t.Fatal("a returned page is still in its directory slot")
		}
	}

	b = prog.Bind(g)
	defer b.Release()
	for i := range prog.Instrs {
		for _, v := range []rdfgraph.ID{low, high} {
			if b.cell(b.memo, int32(i), v) != 0 || b.cell(b.visited, int32(i), v) != 0 {
				t.Fatalf("the next Bind reads instruction %d at node %d as decided or visited", i, v)
			}
		}
	}
	for _, pg := range b.spare.pages {
		if *pg != (page{}) {
			t.Fatal("the next Bind's spare set holds a page that is not zeroed")
		}
	}
	fresh := Compile(phi, nil).Bind(g)
	defer fresh.Release()
	got, want := rdfgraph.NewIDTripleSet(), rdfgraph.NewIDTripleSet()
	b.CollectInto(low, got)
	fresh.CollectInto(low, want)
	if b.ConformsRoot(low) != fresh.ConformsRoot(low) || !slices.Equal(got.Sorted(g.Dict()), want.Sorted(g.Dict())) {
		t.Fatal("the rebound program answers at the low node unlike a fresh one")
	}
}
