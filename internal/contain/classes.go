package contain

import (
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// Classes is the cache-sharing equivalence-class table over a slice of
// shapes. It is a function of the schema alone — containment quantifies
// over every graph — so fragserver computes one in New, over its
// definition shapes, and no epoch recomputes it: /node then keys each
// definition's neighborhoods under its representative's shape. Shapes fall
// into one class when their canonical forms (Canonical) have one shape.ID
// — the neighborhood congruence — so serving one class member's cached
// entries for another is byte-exact.
type Classes struct {
	// Rep[i] is the index of shape i's representative: the first shape
	// with the same canonical form. Rep[i] == i for representatives.
	Rep []int
	// NumClasses counts distinct classes.
	NumClasses int
	// Shared counts the shapes that are not their class's representative
	// (Rep[i] != i), len(Rep) − NumClasses: each one is served from its
	// representative's cache entries.
	Shared int
}

// ComputeClasses groups shapes by the id of their canonical form.
func ComputeClasses(h *schema.Schema, shapes []shape.Shape) Classes {
	cl := Classes{Rep: make([]int, len(shapes))}
	first := make(map[uint32]int, len(shapes))
	for i, s := range shapes {
		k := shape.ID(Canonical(h, s))
		if j, ok := first[k]; ok {
			cl.Rep[i] = j
			cl.Shared++
			continue
		}
		first[k] = i
		cl.Rep[i] = i
		cl.NumClasses++
	}
	return cl
}
