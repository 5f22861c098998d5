package pathprof

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/profiler"
)

// Differential programs: each exercises a distinct recovery corner — loops
// with CALLs (paper example), STOP inside a loop (stop-node partials), STOP
// inside a callee (call-node partials in the suspended caller), and
// seed-dependent branching.
const stopInLoopSrc = `      PROGRAM SMAIN
      INTEGER I
      DO 10 I = 1, 100
         IF (I .GE. 4) THEN
            STOP
         ENDIF
   10 CONTINUE
      END
`

const stopInCalleeSrc = `      PROGRAM CMAIN
      INTEGER I, K
      K = 0
      DO 10 I = 1, 50
         CALL BUMP(K)
   10 CONTINUE
      END

      SUBROUTINE BUMP(K)
      INTEGER K
      K = K + 1
      IF (K .GE. 7) THEN
         STOP
      ENDIF
      RETURN
      END
`

const randBranchSrc = `      PROGRAM RMAIN
      INTEGER I, A
      A = 0
      DO 10 I = 1, 200
         IF (RAND() .LT. 0.3) THEN
            A = A + 1
         ELSE
            A = A - 1
         ENDIF
         IF (RAND() .LT. 0.1) THEN
            A = A * 2
         ENDIF
   10 CONTINUE
      END
`

// build parses, lowers and analyzes one source program.
func build(t *testing.T, src string) (*lower.Result, *analysis.Program) {
	t.Helper()
	prog, err := lang.Parse(src)
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
	return res, ap
}

// checkDifferential runs one seed path-instrumented and asserts the plan's
// recovery is bit-identical to both the exact ground truth and the Sarkar
// plan's recovery, for every procedure. It returns the run for follow-up
// assertions.
func checkDifferential(t *testing.T, res *lower.Result, ap *analysis.Program, pl *Plans, seed uint64) *interp.Result {
	t.Helper()
	run, err := interp.Run(res, interp.Options{Seed: seed, PathSpec: pl.Spec()})
	if err != nil {
		t.Fatal(err)
	}
	sarkar, err := profiler.BuildPlans(ap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Profile(run)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sarkar.Profile(run)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range ap.Procs {
		exact := profiler.ExactTotals(a, run)
		if len(got[name]) != len(exact) || len(want[name]) != len(exact) {
			t.Fatalf("%s seed %d: condition count mismatch: path %d, sarkar %d, exact %d",
				name, seed, len(got[name]), len(want[name]), len(exact))
		}
		for c, e := range exact {
			// Strict equality on purpose: recovered totals are integer
			// counts and must be bit-identical across strategies.
			if g := got[name][c]; g != e {
				t.Errorf("%s seed %d: path recovery TOTAL%v = %v, want exact %v", name, seed, c, g, e)
			}
			// The Sarkar recovery is exact on STOP-terminated runs too:
			// RecoverRun reads the run's frozen-frame record and caps the
			// trip rules' run-to-completion assumption at the observed
			// partial trips, matching the path recovery's partials.
			if w := want[name][c]; w != e {
				t.Errorf("%s seed %d: sarkar recovery TOTAL%v = %v, want exact %v", name, seed, c, w, e)
			}
		}
	}
	return run
}

func TestRecoverPaperExample(t *testing.T) {
	res, ap := build(t, paperex.Source)
	pl, err := BuildPlans(ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range pl.ByProc {
		if !p.Instrumented() {
			t.Fatalf("%s fell back unexpectedly", name)
		}
	}
	run := checkDifferential(t, res, ap, pl, 1)
	if run.Paths["EXMPL"] == nil {
		t.Fatal("no path counts recorded for EXMPL")
	}
	if len(run.Paths["EXMPL"].Partials) != 0 {
		t.Fatalf("unexpected partials: %v", run.Paths["EXMPL"].Partials)
	}
}

func TestRecoverStopInLoop(t *testing.T) {
	res, ap := build(t, stopInLoopSrc)
	pl, err := BuildPlans(ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := checkDifferential(t, res, ap, pl, 1)
	if !run.Stopped {
		t.Fatal("run did not STOP")
	}
	pc := run.Paths["SMAIN"]
	if pc == nil || len(pc.Partials) != 1 {
		t.Fatalf("want exactly one partial for the stopping frame, got %+v", pc)
	}
}

func TestRecoverStopInCallee(t *testing.T) {
	res, ap := build(t, stopInCalleeSrc)
	pl, err := BuildPlans(ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := checkDifferential(t, res, ap, pl, 1)
	if !run.Stopped {
		t.Fatal("run did not STOP")
	}
	// The callee stops (stop-node partial) and the caller is cut short at
	// its CALL node (call-node partial).
	if pc := run.Paths["BUMP"]; pc == nil || len(pc.Partials) != 1 {
		t.Fatalf("BUMP partials: %+v", pc)
	}
	if pc := run.Paths["CMAIN"]; pc == nil || len(pc.Partials) != 1 {
		t.Fatalf("CMAIN partials: %+v", pc)
	}
}

func TestRecoverRandBranchesAcrossSeeds(t *testing.T) {
	res, ap := build(t, randBranchSrc)
	pl, err := BuildPlans(ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		checkDifferential(t, res, ap, pl, seed)
	}
}

func TestRecoverFallback(t *testing.T) {
	res, ap := build(t, paperex.Source)
	// MaxPaths 1 forces the loopy EXMPL procedure over the cap; the plan
	// must keep its Sarkar fallback and still recover exactly.
	pl, err := BuildPlans(ap, Options{MaxPaths: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.ByProc["EXMPL"].Instrumented() {
		t.Fatal("EXMPL should have fallen back at MaxPaths=1")
	}
	run := checkDifferential(t, res, ap, pl, 1)
	ec := pl.MeasureEconomy(run)
	if ec.FallbackProcs == 0 {
		t.Fatal("economy did not count the fallback procedure")
	}
	_ = run
}

func TestHotPaths(t *testing.T) {
	res, ap := build(t, paperex.Source)
	pl, err := BuildPlans(ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := interp.Run(res, interp.Options{Seed: 1, PathSpec: pl.Spec()})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := pl.HotPaths(run, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot paths reported")
	}
	perProc := map[string][]HotPath{}
	for _, h := range hot {
		perProc[h.Proc] = append(perProc[h.Proc], h)
	}
	for name, hs := range perProc {
		if len(hs) > 3 {
			t.Errorf("%s: %d entries exceed k=3", name, len(hs))
		}
		for i := 1; i < len(hs); i++ {
			if hs[i].Count > hs[i-1].Count {
				t.Errorf("%s: hot paths not sorted by count", name)
			}
		}
		for _, h := range hs {
			if len(h.Nodes) == 0 {
				t.Errorf("%s: hot path %d has no nodes", name, h.ID)
			}
		}
	}
	// Of the 9 iterations through CALL FOO, the first runs the entry path
	// and the remaining 8 the header path — the header path dominates.
	if top := perProc["EXMPL"]; len(top) == 0 || top[0].Count != 8 || top[0].FromEntry {
		t.Errorf("EXMPL top path = %+v, want header path with count 8", top)
	}
}

func TestMeasureEconomy(t *testing.T) {
	res, ap := build(t, randBranchSrc)
	pl, err := BuildPlans(ap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := interp.Run(res, interp.Options{Seed: 1, PathSpec: pl.Spec()})
	if err != nil {
		t.Fatal(err)
	}
	ec := pl.MeasureEconomy(run)
	// 200 loop completions plus the entry and exit paths: one bump per
	// completed acyclic path, no partials.
	if ec.Bumps < 200 {
		t.Errorf("Bumps = %d, want >= 200 (one per iteration)", ec.Bumps)
	}
	if ec.Touched == 0 || ec.FallbackProcs != 0 {
		t.Errorf("economy = %+v", ec)
	}
	// A Sarkar plan pays at least one increment per executed counter site;
	// the path plan's bump count must not exceed the exact node steps.
	if ec.Bumps > run.Steps {
		t.Errorf("Bumps %d > Steps %d", ec.Bumps, run.Steps)
	}
}
