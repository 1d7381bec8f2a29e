package plan_test

import (
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/shape"
)

// TestProgramFitsBoundary pins the one budget rule: a program binds against
// a dictionary of MemoBudget/(2·instructions) terms, and one more term puts
// it over.
func TestProgramFitsBoundary(t *testing.T) {
	h := datagen.BenchmarkSchema()
	for _, d := range h.Definitions()[:8] {
		p := plan.Compile(shape.AndOf(d.Shape, d.Target), h)
		edge := plan.MemoBudget / (2 * p.NumInstrs())
		if !p.Fits(edge) {
			t.Errorf("%s: %d instructions over %d terms (%d B) does not fit %d B",
				d.Name, p.NumInstrs(), edge, p.MemoBytes(edge), plan.MemoBudget)
		}
		if p.Fits(edge + 1) {
			t.Errorf("%s: %d instructions over %d terms (%d B) fits %d B",
				d.Name, p.NumInstrs(), edge+1, p.MemoBytes(edge+1), plan.MemoBudget)
		}
	}
}
