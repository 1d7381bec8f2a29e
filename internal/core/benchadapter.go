package core

import (
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Carry copies nothing and returns 0: entries an update cannot reach stay
// valid at its new epoch in place, through Invalidate, so there is nothing
// to carry. It remains only because the frozen benchmark module (bench/trace.go)
// calls it by name, with store.ApplyResult's always-nil Unaffected field,
// and byte-compares the count with the server's /update reply, whose
// carried field is always 0. The benchmark PR (ROADMAP item 1) deletes it by
// editing bench/ alone, and scripts/check.sh fails on any other caller.
func (c *NeighborhoodCache) Carry(from, to uint64, keep func(rdfgraph.ID) bool) int { return 0 }

// EvictBelow removes every entry not known valid at any epoch from min on
// (the newest epoch it is valid at, max(from, applied), is below min) and
// returns how many entries and triples it dropped. It remains only because
// the frozen benchmark module's replay (bench/trace.go) calls it after each
// update on a cache it never invalidates; the server keeps one entry per key
// and needs no sweep. The benchmark PR (ROADMAP item 1) deletes it, and
// scripts/check.sh fails on any other caller.
func (c *NeighborhoodCache) EvictBelow(min uint64) (entries, triples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for en := c.queue.next; en != &c.queue; {
		next := en.next
		if max(en.from, c.applied) < min {
			entries++
			triples += len(en.triples)
			c.removeLocked(en)
		}
		en = next
	}
	return entries, triples
}

// SetAliases does nothing: the cache keys exactly the shapes it is given,
// and the serving layer passes one representative per containment class
// itself (fragserver.New). It remains only because the frozen benchmark
// module's replay (bench/trace.go) calls it with contain.Classes.Aliases;
// without the table the replay keys each definition on its own, and its
// bodies are unchanged because congruent shapes have byte-identical
// neighborhoods. The benchmark PR (ROADMAP item 1) deletes it, and
// scripts/check.sh fails on any other caller.
func (c *NeighborhoodCache) SetAliases(aliases map[shape.Shape]shape.Shape) {}
