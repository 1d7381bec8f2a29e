package core

import (
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// FocusNodes is shape.Evaluator.FocusNodes of the normalized request: a
// subset of N(G) outside which B(v, G, request) is empty — the request's
// focus candidates, or N(G) itself (listed into *all) when it has none.
func (x *Extractor) FocusNodes(request shape.Shape, all *[]rdfgraph.ID) []rdfgraph.ID {
	return x.ev.FocusNodes(x.nnf(request), all)
}

// NodeNeighborhoods computes isolated per-node neighborhoods B(v, G, φ)
// for exactly the given focus nodes — the targeted re-extraction entry
// point incremental fragment maintenance runs after an update, passing
// only the request's focus candidates in delta-touched components
// (store.ApplyResult.AffectedNodes) instead of all of N(G).
//
// The contract matches FragmentParallel's cached mode: request must be the
// pointer-stable cache key, a non-nil cache is consulted per node and
// filled on miss (write-through, so maintenance re-warms the serving cache
// for exactly the nodes an update touched), and a non-nil bound program b
// takes over extraction with byte-identical results (the plan parity
// suites gate this). The returned slices are aligned with nodes; they are
// shared with the cache and must not be modified.
func (x *Extractor) NodeNeighborhoods(request shape.Shape, b *plan.Bound, nodes []rdfgraph.ID, cache *NeighborhoodCache, epoch uint64) [][]rdfgraph.IDTriple {
	out := make([][]rdfgraph.IDTriple, len(nodes))
	nnf := x.nnf(request)
	for i, v := range nodes {
		if cache != nil && x.rec == nil {
			if ts, ok := cache.Get(epoch, v, request); ok {
				out[i] = ts
				continue
			}
		}
		per := rdfgraph.NewIDTripleSet()
		if b != nil {
			b.ResetVisited()
			b.CollectInto(v, per)
		} else {
			x.collect(v, nnf, per, make(map[VisitKey]struct{}))
		}
		ts := per.IDTriples()
		if cache != nil && x.rec == nil {
			cache.Put(epoch, v, request, ts)
		}
		out[i] = ts
	}
	return out
}
