package contain

import "shaclfrag/internal/shape"

// Aliases materializes the table as a shape-to-representative map,
// keyed and valued by the identical shape pointers passed to
// ComputeClasses. Representatives themselves are omitted. It remains only
// because the frozen benchmark module's replay (bench/trace.go) hands it
// to core.NeighborhoodCache.SetAliases, itself a no-op; the server applies
// the classes once, in fragserver.New. The benchmark PR (ROADMAP item 1)
// deletes it, and scripts/check.sh fails on any other caller.
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
