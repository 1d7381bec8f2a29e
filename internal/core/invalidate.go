package core

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"slices"

	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// SetFootprints tracks shapes for Invalidate: it builds the footprint
// (shape.Footprint) of each distinct shape, defs resolving hasShape names,
// and indexes them by the predicates they read. Every transition removes
// all entries of a shape it does not track. Call it once, before the cache
// is shared.
func (c *NeighborhoodCache) SetFootprints(shapes []shape.Shape, defs shape.Defs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracked, c.footprints = make(map[shape.Shape]int), nil
	c.readers, c.readAll = make(map[string][]int), nil
	for _, phi := range shapes {
		if _, done := c.tracked[phi]; done {
			continue
		}
		i, fp := len(c.footprints), shape.NewFootprint(phi, defs)
		c.tracked[phi] = i
		c.footprints = append(c.footprints, fp)
		named, closed := fp.Predicates()
		for _, p := range named {
			c.readers[p] = append(c.readers[p], i)
		}
		if closed {
			c.readAll = append(c.readAll, i)
		}
	}
}

// SetEpoch declares the epoch a cache that is about to be invalidated
// starts at: the first transition Invalidate applies leaves it. Call it
// before the first Invalidate (a fresh cache starts at 0).
func (c *NeighborhoodCache) SetEpoch(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applied = epoch
}

// staleness is what one epoch transition can have changed: the focus
// nodes its delta reaches, one span of them per footprint (empty for the
// footprints it does not touch), or, when err is set, every entry.
type staleness struct {
	nodes []rdfgraph.ID
	spans []span
	err   error
}

// span locates one footprint's focus nodes in staleness.nodes; hi < 0
// marks a walk that passed its cap.
type span struct{ lo, hi int32 }

// Invalidate steps the cache across the transition from epoch prev to
// prev+1, the effective delta ts (store.ApplyResult.Effective) applied to
// the graph old giving cur. A delta triple (s, p, o) changes only the rows
// Objects(s, p), Subjects(p, o), PredicatesFrom(s) and PredicatesTo(o), so
// an entry (v, φ) can be stale only if evaluating φ from v reads one of
// them: for every tracked shape whose footprint reads p (or has a
// closed(P)), Reach walks old — the epoch the entries were computed on —
// back from s and o to the focus nodes that reach them, and their entries
// are removed. A walk past shape.MaxFootprintWalk removes every entry of
// its shape. Every other entry stays, valid at prev+1 in place. The walks
// run before the cache's lock is taken; cur only names the delta's
// predicates, new ones included.
//
// Transitions are expected in epoch order. One that does not leave the
// newest applied epoch (an epoch was published without its transition
// reaching the cache) removes every entry computed at or before prev.
// kept is the number of entries left and invalidated the number removed.
// err reports a panic recovered while walking; that transition then
// removed every entry too.
func (c *NeighborhoodCache) Invalidate(prev uint64, old, cur rdfgraph.Reader, ts []rdfgraph.IDTriple) (kept, invalidated int, err error) {
	st := c.reach(old, cur, ts)
	err = st.err
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev != c.applied {
		st.err = fmt.Errorf("transition from epoch %d, the cache holds at %d", prev, c.applied)
	}
	invalidated = c.invalidateLocked(prev, st)
	kept = c.ll.Len()
	c.invalidated += uint64(invalidated)
	c.kept += uint64(kept)
	c.applied = prev + 1
	return kept, invalidated, err
}

// Reach appends to dst every focus node v whose B(v, G, φ) the effective
// delta ts can change, fp being φ's footprint and w a walker on G, the
// graph ts was applied to; cur, the graph it gave, names ts' predicates.
// It is FocusWalker.Focuses over the triples whose predicate fp reads, so
// nodes may repeat in dst. ok is false when a walk passed
// shape.MaxFootprintWalk: then every node may be reached.
func Reach(fp *shape.Footprint, w *shape.FocusWalker, cur rdfgraph.Reader, ts []rdfgraph.IDTriple, dst []rdfgraph.ID) (_ []rdfgraph.ID, ok bool) {
	for _, t := range ts {
		p := cur.Term(t.P).Value
		if !fp.Reads(p) {
			continue
		}
		if dst, ok = w.Focuses(fp, t.S, p, t.O, dst); !ok {
			return dst, false
		}
	}
	return dst, true
}

// reach walks the footprints ts touches; see Invalidate.
func (c *NeighborhoodCache) reach(old, cur rdfgraph.Reader, ts []rdfgraph.IDTriple) (st staleness) {
	defer func() {
		if r := recover(); r != nil {
			st = staleness{err: fmt.Errorf("walking footprints: %v\n%s", r, debug.Stack())}
		}
	}()
	touched := slices.Clone(c.readAll)
	for _, t := range ts {
		touched = append(touched, c.readers[cur.Term(t.P).Value]...)
	}
	slices.Sort(touched)
	st.spans = make([]span, len(c.footprints))
	w := shape.NewFocusWalker(old)
	for _, i := range slices.Compact(touched) {
		lo := len(st.nodes)
		var ok bool
		st.nodes, ok = Reach(c.footprints[i], w, cur, ts, st.nodes)
		st.spans[i] = span{int32(lo), int32(len(st.nodes))}
		if !ok {
			st.spans[i].hi = -1
		}
	}
	return st
}

// invalidateLocked removes the entries st reaches that were computed at or
// before prev, returning how many; entries computed at prev+1 already are
// valid there.
func (c *NeighborhoodCache) invalidateLocked(prev uint64, st staleness) (n int) {
	remove := func(el *list.Element) {
		if el.Value.(*neighborhoodEntry).from <= prev {
			c.removeLocked(el)
			n++
		}
	}
	for phi, byNode := range c.items {
		i, tracked := c.tracked[phi]
		if st.err != nil || !tracked || st.spans[i].hi < 0 {
			for _, el := range byNode {
				remove(el)
			}
			continue
		}
		for _, v := range st.nodes[st.spans[i].lo:st.spans[i].hi] {
			if el := byNode[v]; el != nil {
				remove(el)
			}
		}
	}
	return n
}
