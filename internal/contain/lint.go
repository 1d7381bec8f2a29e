package contain

import (
	"fmt"

	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapelint"
)

// Lint runs the subsumption diagnostics over a schema and returns
// findings in shapelint's diagnostic format (sorted by shapelint.Sort):
//
//   - SL010: a definition is redundant — some other definition targets
//     every node it targets with an at-least-as-strong shape, so removing
//     it changes no validation verdict.
//   - SL011: a conjunct is implied by a sibling conjunct of the same
//     conjunction and constrains nothing on its own.
//
// Both rely only on Contained verdicts from the structural checker, so a
// finding is a proof, never a guess. Callers (shaclsyn.LintSource, the
// fragserver load gate) merge these with shapelint.Run's findings.
func Lint(h *schema.Schema) []shapelint.Diagnostic {
	if h == nil {
		return nil
	}
	c := New(h, h)
	folder := shapelint.NewFolder(h)
	var diags []shapelint.Diagnostic

	defs := h.Definitions()
	// SL010. Definitions without a satisfiable target select no focus
	// nodes themselves (property shapes reached via hasShape, SL006's
	// territory) and are skipped on both sides of the comparison.
	targeted := make([]bool, len(defs))
	// An unsatisfiable definition subsumes everything with its target, but
	// reporting its victims as redundant is noise — the unsatisfiability
	// itself is the finding (SL001/SL003, error severity) — so such
	// definitions are excluded from the subsuming side.
	usableSubsumer := make([]bool, len(defs))
	for i, d := range defs {
		targeted[i] = d.Target != nil && !shapelint.IsFalse(folder.Fold(d.Target))
		usableSubsumer[i] = targeted[i] && !shapelint.IsFalse(folder.Fold(d.Shape))
	}
	subsumes := func(i, j int) bool {
		// Definition j subsumes i: j targets every node i targets, and
		// j's shape is at least as strong.
		return c.Contains(defs[i].Target, defs[j].Target) == Contained &&
			c.Contains(defs[j].Shape, defs[i].Shape) == Contained
	}
	for i := range defs {
		if !targeted[i] {
			continue
		}
		for j := range defs {
			if j == i || !usableSubsumer[j] {
				continue
			}
			if !subsumes(i, j) {
				continue
			}
			// Mutual subsumption would flag both; keep the earlier
			// declaration and report the later one.
			if j > i && subsumes(j, i) {
				continue
			}
			diags = append(diags, shapelint.Diagnostic{
				Code:     shapelint.CodeRedundant,
				Severity: shapelint.Warning,
				Shape:    defs[i].Name,
				Detail:   "subsumed by " + defs[j].Name.String(),
				Message: fmt.Sprintf(
					"definition is redundant: %s targets every node this shape targets and its shape is at least as strong",
					defs[j].Name),
			})
			break
		}
	}

	// SL011: walk every conjunction in every NNF body. seen dedupes a
	// definition's findings from structurally repeated conjunctions, by
	// the ids of the implied and the implying conjunct.
	for _, d := range defs {
		seen := make(map[[2]uint32]bool)
		shape.Walk(shape.NNF(d.Shape), func(n shape.Shape) {
			and, ok := n.(*shape.And)
			if !ok {
				return
			}
			for i, ci := range and.Xs {
				for j, cj := range and.Xs {
					if j == i || c.Contains(cj, ci) != Contained {
						continue
					}
					// Mutually-implied conjuncts (duplicates up to
					// equivalence): report only the later one.
					if j > i && c.Contains(ci, cj) == Contained {
						continue
					}
					k := [2]uint32{shape.ID(ci), shape.ID(cj)}
					if seen[k] {
						break
					}
					seen[k] = true
					diags = append(diags, shapelint.Diagnostic{
						Code:     shapelint.CodeImpliedConjunct,
						Severity: shapelint.Warning,
						Shape:    d.Name,
						Detail:   ci.String() + " ⊣ " + cj.String(),
						Message: fmt.Sprintf(
							"conjunct %s is implied by sibling conjunct %s and constrains nothing",
							ci, cj),
					})
					break
				}
			}
		})
	}

	shapelint.Sort(diags)
	return diags
}

// LintMerged runs shapelint.Run and Lint and returns the merged, sorted
// findings — the full diagnostic stream for a schema.
func LintMerged(h *schema.Schema) []shapelint.Diagnostic {
	diags := append(shapelint.Run(h), Lint(h)...)
	shapelint.Sort(diags)
	return diags
}
