package store

import (
	"shaclfrag/internal/rdfgraph"
)

// CardStats are cardinality statistics sampled from one snapshot. The
// strategy planner (internal/plan) prices extraction strategies with them:
// node and dictionary counts size the dense memo rows of compiled plans,
// and per-predicate cardinalities price the scans a translated SPARQL
// query would perform. Sampling walks the frozen indexes directly —
// predicate posting lists already exist per shard — so it is cheap enough
// to rerun on every published epoch.
type CardStats struct {
	// Epoch is the snapshot the stats describe.
	Epoch uint64
	// Triples and Nodes size the graph; DictTerms is the dictionary length
	// (an upper bound on any node ID, which is what dense rows index by).
	Triples   int
	Nodes     int
	DictTerms int
	// PredCard maps predicate IRI → number of triples with that predicate.
	PredCard map[string]int
}

// Card returns the cardinality of a predicate IRI, 0 when absent.
func (c CardStats) Card(iri string) int { return c.PredCard[iri] }

// MaxPredCard returns the largest predicate cardinality.
func (c CardStats) MaxPredCard() int {
	max := 0
	for _, n := range c.PredCard {
		if n > max {
			max = n
		}
	}
	return max
}

// SampleStats samples cardinality statistics from a snapshot. Over several
// shards the per-predicate counts aggregate each shard's posting list; the
// dictionary is shared, so term counts need no merging.
func SampleStats(snap Snapshot) CardStats {
	r := snap.Reader()
	st := CardStats{
		Epoch:    snap.Epoch(),
		Triples:  r.Len(),
		Nodes:    r.NumNodes(),
		PredCard: make(map[string]int),
	}
	st.DictTerms = r.Dict().Len()
	r.Predicates(func(p rdfgraph.ID) {
		t := r.Term(p)
		if t.IsIRI() {
			st.PredCard[t.Value] += len(r.EdgesByPredicate(p))
		}
	})
	return st
}
