package plan

import (
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

// The frozen benchmark module (bench/) still spells the server's load-time
// compile as plan.PlanSchema(h, store.SampleStats(snap),
// plan.Config{}).ProgramSet(). Config, PlanSchema and ProgramSet here, with
// store.SampleStats and store.CardStats, keep that line compiling and serve
// nothing else: the benchmark PR (ROADMAP item 1) deletes them by editing
// bench/ alone, and scripts/check.sh fails on any other caller.

// Config is empty: PlanSchema has nothing to configure.
type Config struct{}

// PlanSchema is CompileAll over h's requests φ ∧ τ, in definition order;
// the stats and the config are ignored.
func PlanSchema(h *schema.Schema, _ store.CardStats, _ Config) *Set {
	defs := h.Definitions()
	requests := make([]shape.Shape, len(defs))
	for i, d := range defs {
		requests[i] = shape.AndOf(d.Shape, d.Target)
	}
	return CompileAll(requests, h)
}

// ProgramSet returns s.
func (s *Set) ProgramSet() *Set { return s }
