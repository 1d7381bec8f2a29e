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
// for exactly the given focus nodes — the re-extraction entry point
// incremental fragment maintenance runs after an update, passing the
// request's focus candidates (FocusNodes) rather than all of N(G).
//
// The contract matches FragmentParallel's cached mode: request must be the
// pointer-stable cache key, a non-nil cache is consulted per node and
// filled on miss (write-through, so maintenance re-warms the serving cache
// at the new epoch for every node it re-extracts), and a non-nil bound
// program b takes over extraction with byte-identical results (the plan
// parity suites gate this). The returned slices are aligned with nodes; they are
// shared with the cache and must not be modified.
func (x *Extractor) NodeNeighborhoods(request shape.Shape, b *plan.Bound, nodes []rdfgraph.ID, cache *NeighborhoodCache, epoch uint64) [][]rdfgraph.IDTriple {
	out := make([][]rdfgraph.IDTriple, len(nodes))
	nnf := x.nnf(request)
	for i, v := range nodes {
		if cache != nil {
			if ts, ok := cache.Get(epoch, v, request); ok {
				out[i] = ts
				continue
			}
		}
		out[i] = x.neighborhoodMiss(cache, epoch, v, request, nnf, b)
	}
	return out
}
