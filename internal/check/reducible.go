package check

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dfst"
	"repro/internal/report"
)

// checkReducible re-derives the reducibility certificate on the lowered
// (post-split) CFG: every retreating edge of a depth-first spanning tree
// must have a target that dominates its source — exactly the property the
// interval analysis assumes. Lowering is supposed to have node-split any
// irreducible input, so a violation here is an error; the split count
// itself is surfaced as a warning because duplicated code changes the
// source-to-node mapping the profiler reports against.
func checkReducible(a *analysis.Proc, r *reporter) {
	g := a.P.G
	res := dfst.New(g)
	for _, e := range res.IrreducibleEdges(res.Dominators()) {
		r.errorf(int(e.From), "retreating edge %v: target does not dominate source (irreducible region survived lowering)", e)
	}
	if a.P.Splits > 0 {
		noun := "nodes"
		if a.P.Splits == 1 {
			noun = "node"
		}
		r.add(report.Warning, report.Diagnostic{
			Message: fmt.Sprintf("irreducible control flow: lowering duplicated %d %s to restore reducibility", a.P.Splits, noun),
			Hint:    "restructure the GOTOs so every loop has a single entry point",
		})
	}
}
