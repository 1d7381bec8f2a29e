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
// (shape.Footprint) of each shape's alias representative, defs resolving
// hasShape names, and indexes them by the predicates they read. Every
// transition closes all entries of a shape it does not track. Call it
// once, after SetAliases and before the cache is shared.
func (c *NeighborhoodCache) SetFootprints(shapes []shape.Shape, defs shape.Defs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracked, c.footprints = make(map[shape.Shape]int), nil
	c.readers, c.readAll = make(map[string][]int), nil
	for _, phi := range shapes {
		phi, _ = c.resolveLocked(phi)
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

// Applied returns the newest epoch whose transition Invalidate has applied
// (the SetEpoch epoch before the first).
func (c *NeighborhoodCache) Applied() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
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
// prev+1, the delta d applied to the graph old giving cur. A delta triple
// (s, p, o) changes only the rows Objects(s, p), Subjects(p, o),
// PredicatesFrom(s) and PredicatesTo(o), so an entry (v, φ) can be stale
// only if evaluating φ from v reads one of them: for every tracked shape
// whose footprint reads p (or has a closed(P)), the footprint walks old —
// the epoch the entries were computed on — back from s and o to the focus
// nodes that reach them, and their entries' ranges end at prev. A walk
// past shape.MaxFootprintWalk ends every entry of its shape. Every other
// open entry stays open, valid at prev+1 in place. The walks run before
// the cache's lock is taken; cur only resolves the delta's terms, new ones
// included.
//
// A transition that arrives before the one into prev is held back and
// applied, in epoch order, by the call that closes the gap. kept is the
// number of entries open after the last transition this call applied and
// invalidated the number it closed (both zero when it held one back). err
// reports a panic recovered while walking; that transition then closed
// every entry.
func (c *NeighborhoodCache) Invalidate(prev uint64, old, cur rdfgraph.Reader, d rdfgraph.Delta) (kept, invalidated int, err error) {
	st := c.reach(old, cur, d)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev != c.applied {
		c.pending[prev] = st
		return 0, 0, st.err
	}
	err = st.err
	for {
		n := c.invalidateLocked(prev, st)
		invalidated, kept = invalidated+n, c.open
		c.invalidated += uint64(n)
		c.kept += uint64(kept)
		c.applied = prev + 1
		next, ok := c.pending[c.applied]
		if !ok {
			break
		}
		delete(c.pending, c.applied)
		prev, st = c.applied, next
	}
	return kept, invalidated, err
}

// reach walks the footprints d touches; see Invalidate.
func (c *NeighborhoodCache) reach(old, cur rdfgraph.Reader, d rdfgraph.Delta) (st staleness) {
	defer func() {
		if r := recover(); r != nil {
			st = staleness{err: fmt.Errorf("walking footprints: %v\n%s", r, debug.Stack())}
		}
	}()
	type endpoints struct {
		s, o rdfgraph.ID
		p    string
	}
	var ts []endpoints
	touched := slices.Clone(c.readAll)
	for _, t := range slices.Concat(d.Add, d.Del) {
		ts = append(ts, endpoints{cur.LookupTerm(t.S), cur.LookupTerm(t.O), t.P.Value})
		touched = append(touched, c.readers[t.P.Value]...)
	}
	slices.Sort(touched)
	st.spans = make([]span, len(c.footprints))
	w := shape.NewFocusWalker(old)
	for _, i := range slices.Compact(touched) {
		fp, lo, ok := c.footprints[i], len(st.nodes), true
		for _, t := range ts {
			if !fp.Reads(t.p) {
				continue
			}
			if st.nodes, ok = w.Focuses(fp, t.s, t.p, t.o, st.nodes); !ok {
				break
			}
		}
		st.spans[i] = span{int32(lo), int32(len(st.nodes))}
		if !ok {
			st.spans[i].hi = -1
		}
	}
	return st
}

func (c *NeighborhoodCache) invalidateLocked(prev uint64, st staleness) (n int) {
	closeAt := func(el *list.Element) {
		if en := el.Value.(*neighborhoodEntry); en.to == openRange && en.from <= prev {
			c.closeLocked(el, prev)
			n++
		}
	}
	for phi, byNode := range c.items {
		i, tracked := c.tracked[phi]
		if st.err != nil || !tracked || st.spans[i].hi < 0 {
			for _, el := range byNode {
				closeAt(el)
			}
			continue
		}
		for _, v := range st.nodes[st.spans[i].lo:st.spans[i].hi] {
			if el := byNode[v]; el != nil {
				closeAt(el)
			}
		}
	}
	return n
}
