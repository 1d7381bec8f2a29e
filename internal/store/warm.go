package store

import (
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// WarmDictionary interns every term validation or extraction could need to
// resolve beyond the graph's own nodes — the hasValue constants of shapes
// and targets (node targets name nodes that may not occur in the data).
// Property IRIs need no warming: extraction looks them up read-only. The
// reader must still be mutable, so run this before New freezes the graph.
// A nil schema is a no-op.
func WarmDictionary(g rdfgraph.Reader, h *schema.Schema) {
	if h == nil {
		return
	}
	for _, d := range h.Definitions() {
		WarmShapes(g, d.Shape, d.Target)
	}
}

// WarmShapes interns the hasValue constants of ad-hoc request shapes that
// are not part of a schema — same contract as WarmDictionary.
func WarmShapes(g rdfgraph.Reader, shapes ...shape.Shape) {
	for _, sh := range shapes {
		shape.Walk(sh, func(sub shape.Shape) {
			if hv, ok := sub.(*shape.HasValue); ok {
				g.TermID(hv.C)
			}
		})
	}
}
