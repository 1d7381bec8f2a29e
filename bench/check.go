package main

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"shaclfrag/internal/core"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// reference computes the expected response bodies in-process with the AST
// walker of internal/core — the executable statement of the paper's
// Table 2, and not the engine the server runs /fragment on — over the
// generated graph itself rather than the file the server parsed.
type reference struct {
	st    store.Store
	h     *schema.Schema
	reqs  []shape.Shape // φ ∧ τ per definition, what /fragment extracts
	names []string
	// Bodies already computed at the current epoch.
	nodes     map[rdf.Term][32]byte
	fragments map[string][32]byte
}

func newReference(g *rdfgraph.Graph, h *schema.Schema) (*reference, error) {
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		return nil, err
	}
	r := &reference{st: st, h: h, reqs: core.SchemaRequests(h),
		nodes: map[rdf.Term][32]byte{}, fragments: map[string][32]byte{}}
	for _, d := range h.Definitions() {
		r.names = append(r.names, d.Name.Value)
	}
	return r, nil
}

// defIndex resolves a name suffix the way the server does: the benchmark
// only asks for suffixes that are unique.
func defIndex(names []string, suffix string) (int, error) {
	found := -1
	for i, n := range names {
		if strings.HasSuffix(n, suffix) {
			if found >= 0 {
				return -1, fmt.Errorf("shape suffix %q is ambiguous", suffix)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("no shape named %q", suffix)
	}
	return found, nil
}

func hashTriples(ts []rdf.Triple) [32]byte {
	return sha256.Sum256([]byte(turtle.FormatNTriples(ts)))
}

// node is the body GET /node?iri=v must return at the current epoch: the
// union over every definition's shape of B(v, G, φ), sorted.
func (r *reference) node(v rdf.Term) [32]byte {
	g := r.st.Current().Reader()
	out := rdfgraph.NewIDTripleSet()
	if id := g.LookupTerm(v); id != rdfgraph.NoID {
		x := core.NewExtractor(g, r.h)
		for _, d := range r.h.Definitions() {
			x.NeighborhoodInto(id, d.Shape, out, make(map[core.VisitKey]struct{}))
		}
	}
	return hashTriples(out.Triples(g.Dict()))
}

// fragment is the body GET /fragment[?shape=] must return.
func (r *reference) fragment(suffix string) ([32]byte, error) {
	reqs := r.reqs
	if suffix != "" {
		i, err := defIndex(r.names, suffix)
		if err != nil {
			return [32]byte{}, err
		}
		reqs = reqs[i : i+1]
	}
	return hashTriples(core.Fragment(r.st.Current().Reader(), r.h, reqs...)), nil
}

// fill computes want for every checked request of one client's list, in
// list order, applying the list's own updates to the reference store as it
// goes: a read is checked against the graph as it stands after the updates
// sent before it. Lists whose deletes undo their adds leave the graph as
// they found it, so the result holds for every repetition of the round.
func (r *reference) fill(list []request) error {
	for i := range list {
		q := &list[i]
		switch q.kind {
		case opUpdate:
			ts, err := turtle.ParseTriples(q.body)
			if err != nil {
				return err
			}
			d := rdfgraph.Delta{Add: ts}
			if q.del {
				d = rdfgraph.Delta{Del: ts}
			}
			if res := r.st.Apply(d); !res.Changed {
				return fmt.Errorf("reference: update %d changed nothing", i)
			}
			r.nodes, r.fragments = map[rdf.Term][32]byte{}, map[string][32]byte{}
		case opNode:
			if !q.check {
				continue
			}
			sum, ok := r.nodes[q.focus]
			if !ok {
				sum = r.node(q.focus)
				r.nodes[q.focus] = sum
			}
			q.want = sum
		case opFragment:
			if !q.check {
				continue
			}
			sum, ok := r.fragments[q.shape]
			if !ok {
				var err error
				if sum, err = r.fragment(q.shape); err != nil {
					return err
				}
				r.fragments[q.shape] = sum
			}
			q.want = sum
		}
	}
	return nil
}
