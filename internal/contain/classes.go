package contain

import (
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// Classes is the cache-sharing equivalence-class table over a slice of
// shapes. It is a function of the schema alone — containment quantifies
// over every graph — so fragserver computes one in New, over its request
// and definition shapes, and no epoch recomputes it. Shapes fall into one
// class when their canonical forms (Canonical) have one shape.ID — the
// neighborhood congruence — so serving one class member's cached entries
// for another is byte-exact.
type Classes struct {
	// Rep[i] is the index of shape i's representative: the first shape
	// with the same canonical form. Rep[i] == i for representatives.
	Rep []int
	// NumClasses counts distinct classes.
	NumClasses int
	// Shared counts shapes that alias another shape's class (Rep[i] != i)
	// — each one is a definition whose cache entries are served from its
	// representative.
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
