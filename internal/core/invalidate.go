package core

import (
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
// is shared and before any Put: tracked shapes take their columns from it.
func (c *NeighborhoodCache) SetFootprints(shapes []shape.Shape, defs shape.Defs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cols, c.byCol, c.footprints = make(map[shape.Shape]int32), nil, nil
	c.readers, c.readAll = make(map[string][]int), nil
	for _, phi := range shapes {
		if _, done := c.cols[phi]; done {
			continue
		}
		i, fp := len(c.footprints), shape.NewFootprint(phi, defs)
		c.cols[phi], c.byCol = int32(i), append(c.byCol, phi)
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
	kept, invalidated = c.step(prev, st)
	return kept, invalidated, st.err
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

// step applies the transition from prev to prev+1 under the cache's lock,
// given what the walks found: it removes the entries st reaches that were
// computed at or before prev (entries computed at prev+1 already are valid
// there). A reached (node, column) pair costs one row lookup and a search
// in the row; a whole column one such search per cached row.
func (c *NeighborhoodCache) step(prev uint64, st staleness) (kept, invalidated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	remove := func(v rdfgraph.ID, col int32) {
		row := c.rows[v]
		if j, ok := findCol(row, col); ok && row[j].from <= prev {
			c.removeLocked(row[j])
			invalidated++
		}
	}
	all := st.err != nil || prev != c.applied
	for en := c.queue.next; all && en != &c.queue; {
		next := en.next
		remove(en.node, en.col)
		en = next
	}
	for col := int32(0); !all && int(col) < len(c.byCol); col++ {
		if int(col) < len(st.spans) && st.spans[col].hi >= 0 {
			for _, v := range st.nodes[st.spans[col].lo:st.spans[col].hi] {
				remove(v, col)
			}
			continue
		}
		for v := range c.rows { // untracked, or its walk passed the cap
			remove(v, col)
		}
	}
	c.invalidated += uint64(invalidated)
	c.kept += uint64(c.entries)
	c.applied = prev + 1
	return c.entries, invalidated
}
