package profiler

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/lower"
)

// TestSeedSumRefusesFractionalStatic: a plan whose RuleStaticCond carries a
// fractional frequency is not integer-linear, so recovering summed
// readings could differ from summing per-run recoveries; NewSeedSum
// returns nil for it, and the same procedure's PlanFlow plan gets a
// SeedSum.
func TestSeedSumRefusesFractionalStatic(t *testing.T) {
	prog, err := lang.Parse(randomBranchProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Fatal(err)
	}
	a := ap.Procs["RNDB"]
	// The ELSE IF test: it runs a random number of times per seed, so
	// 0.3 times its executions is fractional.
	var branch cdg.Condition
	for _, c := range a.FCDG.Conditions() {
		if _, ok := a.Ext.G.Node(c.Node).Payload.(lower.OpBranch); ok && c.Label == cfg.True {
			branch = c
		}
	}
	if branch.Node == cfg.None {
		t.Fatal("no IF branch condition")
	}
	static, err := PlanStatic(a, map[cdg.Condition]float64{branch: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if static.recovery().linear {
		t.Fatal("a plan with StaticFreq 0.3 reads as integer-linear")
	}
	if sum := (Plans{"RNDB": static}).NewSeedSum(5); sum != nil {
		t.Error("NewSeedSum accepted a plan that is not integer-linear")
	}
	flow, err := PlanFlow(a)
	if err != nil {
		t.Fatal(err)
	}
	if sum := (Plans{"RNDB": flow}).NewSeedSum(5); sum == nil {
		t.Error("NewSeedSum refused a PlanFlow plan")
	}
}
