// Whole-repository integration and property tests: they exercise the full
// pipeline (parse → lower → analyze → run → profile → recover → estimate)
// over the paper's example, the benchmarks, and randomly generated
// programs, checking the invariants that must hold for every consistent
// profile.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/profiler"
	"repro/internal/progen"
)

// checkInvariants runs the pipeline invariants on one program and one run:
//
//  1. smart counter recovery reproduces the exact TOTAL_FREQ of every
//     control condition (the profiler is lossless);
//  2. NODE_FREQ × activations equals the exact execution count of every
//     node (the paper's equation 3);
//  3. the estimated TIME(START) of the main program equals the measured
//     trace cost exactly when the profile comes from that same run.
func checkInvariants(t *testing.T, src string, seed uint64) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	ap, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, src)
	}
	model := cost.Optimized
	run, err := interp.Run(res, interp.Options{Seed: seed, Model: &model, MaxSteps: 20_000_000})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}

	profile := make(map[string]freq.Totals)
	for name, a := range ap.Procs {
		plan, err := profiler.PlanSmart(a)
		if err != nil {
			t.Fatalf("%s: plan: %v", name, err)
		}
		got, err := plan.Recover(plan.SimulateReadings(run))
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		want := profiler.ExactTotals(a, run)
		for c, w := range want {
			if g := got[c]; math.Abs(g-w) > 1e-9 {
				t.Fatalf("%s: TOTAL%v = %g, want %g\n%s", name, c, g, w, src)
			}
		}
		profile[name] = got

		tab, err := freq.Compute(a.FCDG, got)
		if err != nil {
			t.Fatalf("%s: freq: %v", name, err)
		}
		acts := float64(run.ByProc[name].Activations)
		for _, n := range a.P.G.Nodes() {
			want := float64(run.NodeCount(a.P, n.ID))
			if got := tab.NodeFreq[n.ID] * acts; math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("%s node %d (%s): NODE_FREQ×acts = %g, actual %g\n%s",
					name, n.ID, n.Name(), got, want, src)
			}
		}
	}

	est, err := core.EstimateProgram(ap, profile, costTables(res, model), core.Options{})
	if err != nil {
		t.Fatalf("estimate: %v\n%s", err, src)
	}
	if run.Cost > 0 {
		if rel := math.Abs(est.Main.Time-run.Cost) / run.Cost; rel > 1e-9 {
			t.Fatalf("TIME = %.10g, measured = %.10g (rel %g)\n%s", est.Main.Time, run.Cost, rel, src)
		}
	}
	if est.Main.Var < 0 {
		t.Fatalf("negative VAR %g\n%s", est.Main.Var, src)
	}
}

func costTables(res *lower.Result, m cost.Model) map[string]cost.Table {
	out := make(map[string]cost.Table, len(res.Procs))
	for name, p := range res.Procs {
		out[name] = m.Table(p)
	}
	return out
}

func TestPaperExampleInvariants(t *testing.T) {
	checkInvariants(t, paperex.Source, 1)
}

func TestRandomProgramsInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		checkInvariants(t, progen.Generate(seed, 6+int(seed%8), 3), seed)
	}
}

func TestRandomProgramsMultiSeedProfiles(t *testing.T) {
	// Accumulate profiles over several seeds and check the mean-exactness
	// against the measured average.
	src := progen.Generate(42, 8, 3)
	p, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Unoptimized
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7}
	var total float64
	for _, s := range seeds {
		c, err := p.MeasuredCost(model, s)
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	est, err := p.Estimate(model, core.Options{}, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	avg := total / float64(len(seeds))
	if rel := math.Abs(est.Main.Time-avg) / avg; rel > 1e-9 {
		t.Errorf("TIME = %.10g, measured avg = %.10g", est.Main.Time, avg)
	}
}
