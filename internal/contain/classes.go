package contain

import (
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// Classes is the cache-sharing equivalence-class table over a slice of
// shapes. It is a function of the schema alone — containment quantifies
// over every graph — so fragserver computes one in New, over its request
// and definition shapes, and no epoch recomputes it. Shapes fall into one class
// when their CanonKeys match — the neighborhood congruence — so serving
// one class member's cached entries for another is byte-exact.
type Classes struct {
	// Rep[i] is the index of shape i's representative: the first shape
	// with the same canonical key. Rep[i] == i for representatives.
	Rep []int
	// NumClasses counts distinct classes.
	NumClasses int
	// Shared counts shapes that alias another shape's class (Rep[i] != i)
	// — each one is a definition whose cache entries are served from its
	// representative.
	Shared int
	// UnknownPairs counts unordered pairs of distinct-class
	// representatives for which the full containment checker could not
	// prove equivalence in at least one direction: shapes that may be
	// semantically equivalent but are not congruent, and therefore not
	// shared. Exported as fragserver_containment_unknown_total.
	UnknownPairs int
}

// ComputeClasses groups shapes by canonical key and measures, via the
// containment checker, how many of the remaining distinct classes are
// possibly-equivalent-but-unproven.
func ComputeClasses(h *schema.Schema, shapes []shape.Shape) Classes {
	cl := Classes{Rep: make([]int, len(shapes))}
	first := make(map[string]int, len(shapes))
	var reps []int
	for i, s := range shapes {
		k := CanonKey(h, s)
		if j, ok := first[k]; ok {
			cl.Rep[i] = j
			cl.Shared++
			continue
		}
		first[k] = i
		cl.Rep[i] = i
		reps = append(reps, i)
	}
	cl.NumClasses = len(reps)

	c := New(h, h)
	for a := 0; a < len(reps); a++ {
		for b := a + 1; b < len(reps); b++ {
			if c.Equivalent(shapes[reps[a]], shapes[reps[b]]) != Contained {
				cl.UnknownPairs++
			}
		}
	}
	return cl
}

// Aliases materializes the table as a shape-to-representative map,
// keyed and valued by the identical shape pointers passed to
// ComputeClasses, ready for core.NeighborhoodCache.SetAliases.
// Representatives themselves are omitted.
func (cl Classes) Aliases(shapes []shape.Shape) map[shape.Shape]shape.Shape {
	if cl.Shared == 0 {
		return nil
	}
	out := make(map[shape.Shape]shape.Shape, cl.Shared)
	for i, r := range cl.Rep {
		if r != i {
			out[shapes[i]] = shapes[r]
		}
	}
	return out
}
