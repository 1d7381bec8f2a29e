package contain_test

import (
	"testing"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/shape"
)

// TestClassesAliases: the benchmark's alias map sends every non-representative
// to its representative's pointer and leaves representatives out.
func TestClassesAliases(t *testing.T) {
	a := shape.Min(1, p("p"), shape.TrueShape())
	b := shape.NodeTestShape(shape.IsIRI{})
	shapes := []shape.Shape{shape.AndOf(a, b), shape.AndOf(b, a), b}
	aliases := contain.ComputeClasses(nil, shapes).Aliases(shapes)
	if len(aliases) != 1 || aliases[shapes[1]] != shapes[0] {
		t.Fatalf("aliases = %v", aliases)
	}
	if aliases := contain.ComputeClasses(nil, shapes[1:]).Aliases(shapes[1:]); aliases != nil {
		t.Fatalf("a table with no shared shape has aliases %v", aliases)
	}
}
