package rdfgraph

import "shaclfrag/internal/rdf"

// Delta is a batch of triple additions and deletions applied atomically.
// Deletions run first, so a triple in both lists ends up present.
// Deleting an absent triple (including one naming unknown terms) is a
// no-op, and adding a present triple is a no-op; only effective operations
// count toward the store's ApplyResult (see internal/store).
type Delta struct {
	Add []rdf.Triple
	Del []rdf.Triple
}
