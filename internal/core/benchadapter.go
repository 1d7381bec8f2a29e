package core

import "shaclfrag/internal/rdfgraph"

// Carry copies nothing and returns 0: entries an update cannot reach stay
// valid at its new epoch in place, through Invalidate, so there is nothing
// to carry. It remains only because the frozen benchmark module (bench/trace.go)
// calls it by name, with store.ApplyResult's always-nil Unaffected field,
// and byte-compares the count with the server's /update reply, whose
// carried field is always 0. The benchmark PR (ROADMAP item 1) deletes it by
// editing bench/ alone, and scripts/check.sh fails on any other caller.
func (c *NeighborhoodCache) Carry(from, to uint64, keep func(rdfgraph.ID) bool) int { return 0 }
