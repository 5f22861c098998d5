package sampling

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
)

// twoProcs spends ~90% of its time in HEAVY and ~10% in LIGHT, plus a tiny
// TINY procedure that a coarse sampler will miss entirely.
const twoProcs = `      PROGRAM MAINP
      INTEGER I
      DO 10 I = 1, 20
         CALL HEAVY
         CALL LIGHT
         CALL TINY
   10 CONTINUE
      END

      SUBROUTINE HEAVY
      INTEGER J
      REAL S
      S = 0.0
      DO 20 J = 1, 300
         S = S + SIN(S)
   20 CONTINUE
      RETURN
      END

      SUBROUTINE LIGHT
      INTEGER J
      REAL S
      S = 0.0
      DO 30 J = 1, 30
         S = S + 1.0
   30 CONTINUE
      RETURN
      END

      SUBROUTINE TINY
      RETURN
      END
`

func TestFineSamplingApproximatesShares(t *testing.T) {
	p, err := core.Load(twoProcs)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Optimized
	run, err := interp.Run(p.Res, interp.Options{Seed: 1, Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactShares(p.Res, m, run)
	if exact["HEAVY"] < 0.5 {
		t.Fatalf("test premise broken: HEAVY share = %g", exact["HEAVY"])
	}
	fine, err := Run(p.Res, m, 10, interp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, worst := fine.WorstError(exact); worst > 0.02 {
		t.Errorf("fine sampling (interval 10) worst share error %g > 2%%", worst)
	}
}

// TestSamplingConvergesToExactShares shrinks the sampling interval by
// successive factors of 10 and requires the worst per-procedure share error
// to converge toward the exact shares: every refinement may not help, but
// across two decades the error must drop, and the finest grid must land
// within a tight bound.
func TestSamplingConvergesToExactShares(t *testing.T) {
	p, err := core.Load(twoProcs)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Optimized
	run, err := interp.Run(p.Res, interp.Options{Seed: 1, Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactShares(p.Res, m, run)

	intervals := []float64{run.Cost / 10, run.Cost / 100, run.Cost / 1000, run.Cost / 10000}
	errs := make([]float64, len(intervals))
	for i, iv := range intervals {
		s, err := Run(p.Res, m, iv, interp.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, errs[i] = s.WorstError(exact)
		t.Logf("interval %.4g: %d samples, worst share error %.5f", iv, s.Total, errs[i])
	}
	for i := 2; i < len(errs); i++ {
		if errs[i] >= errs[i-2] && errs[i] > 0.01 {
			t.Errorf("error did not shrink over two decades: err[%d]=%g ≥ err[%d]=%g",
				i, errs[i], i-2, errs[i-2])
		}
	}
	if final := errs[len(errs)-1]; final > 0.005 {
		t.Errorf("finest sampling still off by %g (> 0.5%%)", final)
	}
}

func TestCoarseSamplingMissesSmallProcedures(t *testing.T) {
	p, err := core.Load(twoProcs)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Optimized
	run, err := interp.Run(p.Res, interp.Options{Seed: 1, Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactShares(p.Res, m, run)

	// Interval comparable to LIGHT's entire cost: per-procedure shares of
	// the small procedures become unreliable or zero — the paper's "even
	// small procedures" point.
	coarse, err := Run(p.Res, m, run.Cost/15, interp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Total == 0 {
		t.Fatal("no samples at all")
	}
	if coarse.ByProc["TINY"] != 0 {
		t.Errorf("TINY caught by coarse sampler (%d samples): premise too weak", coarse.ByProc["TINY"])
	}
	if exact["TINY"] == 0 {
		t.Error("TINY really does execute; its exact share must be positive")
	}
	// And the error is much worse than fine sampling's.
	fine, err := Run(p.Res, m, 10, interp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, coarseErr := coarse.WorstError(exact)
	_, fineErr := fine.WorstError(exact)
	if coarseErr <= fineErr {
		t.Errorf("coarse error %g should exceed fine error %g", coarseErr, fineErr)
	}
	t.Logf("shares exact HEAVY=%.3f LIGHT=%.3f TINY=%.5f; coarse worst err %.3f, fine worst err %.4f",
		exact["HEAVY"], exact["LIGHT"], exact["TINY"], coarseErr, fineErr)
}

func TestSamplingCannotSeeStatementFrequencies(t *testing.T) {
	// The paper's core argument: counters give exact statement
	// frequencies; sampling attributes whole ticks to whichever statement
	// happened to be executing. For a cheap statement inside a hot loop
	// the sampled "count" bears no relation to its execution frequency.
	p, err := core.Load(twoProcs)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Optimized
	s, err := Run(p.Res, m, 500, interp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := interp.Run(p.Res, interp.Options{Seed: 1, Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	heavy := p.Res.Procs["HEAVY"]
	mismatch := false
	for _, n := range heavy.G.Nodes() {
		execs := run.NodeCount(heavy, n.ID)
		samples := s.ByNode["HEAVY"][n.ID]
		if execs > 100 && samples == 0 {
			mismatch = true // a hot statement invisible to the sampler
		}
	}
	if !mismatch {
		t.Error("expected at least one hot statement with zero samples at interval 500")
	}
}

func TestBadInterval(t *testing.T) {
	p, err := core.Load(twoProcs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p.Res, cost.Unit, 0, interp.Options{}); err == nil {
		t.Error("interval 0 must be rejected")
	}
	if _, err := Run(p.Res, cost.Unit, -5, interp.Options{}); err == nil {
		t.Error("negative interval must be rejected")
	}
}

// TestSamplingEngineEquivalence runs the sampler with both engine
// selections and requires identical sample counts: OnNodeCost is a
// tree-only hook, so a run that asks for the VM takes the tree-walker.
func TestSamplingEngineEquivalence(t *testing.T) {
	p, err := core.Load(twoProcs)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Optimized
	tree, err := Run(p.Res, m, 25, interp.Options{Seed: 3, Engine: interp.EngineTree})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := Run(p.Res, m, 25, interp.Options{Seed: 3, Engine: interp.EngineVM})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Total != vm.Total || tree.Cost != vm.Cost {
		t.Fatalf("totals differ: tree (%d, %g) vm (%d, %g)", tree.Total, tree.Cost, vm.Total, vm.Cost)
	}
	for proc, n := range tree.ByProc {
		if vm.ByProc[proc] != n {
			t.Fatalf("proc %s: tree %d samples, vm %d", proc, n, vm.ByProc[proc])
		}
	}
	for proc, nodes := range tree.ByNode {
		for id, n := range nodes {
			if vm.ByNode[proc][id] != n {
				t.Fatalf("%s node %d: tree %d samples, vm %d", proc, id, n, vm.ByNode[proc][id])
			}
		}
	}
}
