package profiler

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/ecfg"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/lower"
	"repro/internal/paperex"
)

// pipeline parses, lowers, analyzes and runs a source program.
func pipeline(t *testing.T, src string, seed uint64) (*analysis.Program, *interp.Result) {
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
	run, err := interp.Run(res, interp.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ap, run
}

// checkRecovery asserts that the smart plan of every procedure recovers the
// exact ground-truth totals, and returns the main proc's plan.
func checkRecovery(t *testing.T, ap *analysis.Program, run *interp.Result) map[string]*Plan {
	t.Helper()
	plans := map[string]*Plan{}
	for name, a := range ap.Procs {
		plan, err := PlanSmart(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = plan
		got, err := plan.Recover(plan.SimulateReadings(run))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ExactTotals(a, run)
		for c, w := range want {
			if g := got[c]; math.Abs(g-w) > 1e-9 {
				t.Errorf("%s: recovered TOTAL%v = %g, want %g", name, c, g, w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: recovered %d conditions, want %d", name, len(got), len(want))
		}
	}
	return plans
}

func TestPaperExampleRecovery(t *testing.T) {
	ap, run := pipeline(t, paperex.Source, 1)
	plans := checkRecovery(t, ap, run)

	// The paper's profile: IF labelled 10 executes 10 times; the loop
	// exits via IF (N.LT.0); CALL FOO executes 9 times.
	a := ap.Procs["EXMPL"]
	totals := ExactTotals(a, run)
	ph := a.Ext.Preheader[a.Intervals.Headers()[0]]
	if got := totals[cdg.Condition{Node: ph, Label: ecfg.LoopBodyLabel}]; got != 10 {
		t.Errorf("loop TOTAL = %g, want 10 (header executions)", got)
	}
	if got := run.ByProc["FOO"].Activations; got != 9 {
		t.Errorf("FOO activations = %d, want 9", got)
	}

	// Smart must use strictly fewer counters than naive.
	smart := plans["EXMPL"]
	naive := PlanNaive(a)
	if smart.NumCounters() >= naive.NumCounters()+1 {
		t.Errorf("smart counters = %d, naive = %d", smart.NumCounters(), naive.NumCounters())
	}
	// Dynamic overhead: smart strictly cheaper.
	m := cost.Optimized
	so := smart.MeasureOverhead(run, m)
	no := naive.MeasureOverhead(run, m)
	if so.Cost >= no.Cost {
		t.Errorf("smart overhead %g >= naive overhead %g", so.Cost, no.Cost)
	}
	t.Logf("EXMPL: smart %d counters / %d incr, naive %d counters / %d incr",
		smart.NumCounters(), so.Increments, naive.NumCounters(), no.Increments)
}

func TestPaperExampleFrequencies(t *testing.T) {
	ap, run := pipeline(t, paperex.Source, 1)
	a := ap.Procs["EXMPL"]
	plan, err := PlanSmart(a)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := plan.Recover(plan.SimulateReadings(run))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := freq.Compute(a.FCDG, totals)
	if err != nil {
		t.Fatal(err)
	}
	h := a.Intervals.Headers()[0]
	ph := a.Ext.Preheader[h]
	cases := []struct {
		c    cdg.Condition
		want float64
	}{
		{cdg.Condition{Node: ph, Label: ecfg.LoopBodyLabel}, 10}, // loop frequency
		{cdg.Condition{Node: h, Label: cfg.True}, 1.0},           // M.GE.0 always true
		{cdg.Condition{Node: h, Label: cfg.False}, 0.0},          // ELSE arm never
		{cdg.Condition{Node: h + 1, Label: cfg.True}, 0.1},       // exit on 10th test
		{cdg.Condition{Node: h + 1, Label: cfg.False}, 0.9},      // continue 9 of 10
		{cdg.Condition{Node: ph, Label: cfg.PseudoLoop}, 0},      // pseudo: never
		{cdg.Condition{Node: a.Ext.Start, Label: cfg.Uncond}, 1}, // one invocation
	}
	for _, c := range cases {
		if got := tab.Freq.At(c.c); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FREQ%v = %g, want %g", c.c, got, c.want)
		}
	}
	// NODE_FREQ spot checks: CALL node executes 9 times per invocation.
	callNode := cfg.NodeID(0)
	for id, s := range a.P.Stmt {
		if _, ok := s.(*lang.CallStmt); ok {
			callNode = id
		}
	}
	if callNode == cfg.None {
		t.Fatal("no CALL node found")
	}
	if got := tab.NodeFreq[callNode]; math.Abs(got-9) > 1e-12 {
		t.Errorf("NODE_FREQ(CALL) = %g, want 9", got)
	}
}

const doProgram = `      PROGRAM DOS
      INTEGER I, J, N, S
      PARAMETER (N = 10)
      S = 0
      DO 10 I = 1, N
         DO 20 J = 1, I
            S = S + J
   20    CONTINUE
   10 CONTINUE
      DO 30 I = 1, 7
         S = S - 1
   30 CONTINUE
      PRINT *, S
      END
`

func TestDoLoopOptimization(t *testing.T) {
	ap, run := pipeline(t, doProgram, 1)
	checkRecovery(t, ap, run)
	a := ap.Procs["DOS"]
	plan, err := PlanSmart(a)
	if err != nil {
		t.Fatal(err)
	}
	// The outer DO (constant trip 10) and the third DO (constant trip 7)
	// need no counters at all; the inner triangular loop needs one
	// TripAdd. Expected counters: (START,U) and the TripAdd.
	var trips, conds int
	for _, c := range plan.Counters {
		switch c.Kind {
		case TripAdd:
			trips++
		case CondCounter:
			conds++
		}
	}
	if trips != 1 {
		t.Errorf("TripAdd counters = %d, want 1 (inner triangular loop); plan: %v", trips, plan.Counters)
	}
	if conds > 1 {
		t.Errorf("condition counters = %d, want at most 1 (the run counter); plan: %v", conds, plan.Counters)
	}

	// Overhead comparison against naive on the same run.
	so := plan.MeasureOverhead(run, cost.Optimized)
	no := PlanNaive(a).MeasureOverhead(run, cost.Optimized)
	if so.Cost >= no.Cost {
		t.Errorf("smart overhead %g >= naive %g", so.Cost, no.Cost)
	}
	t.Logf("DOS: smart cost %g (%d incr, %d adds), naive cost %g", so.Cost, so.Increments, so.TripAdds, no.Cost)
}

const exitLoopProgram = `      PROGRAM EXITL
      INTEGER I, S
      S = 0
      DO 10 I = 1, 100
         S = S + I
         IF (S .GT. 50) GOTO 20
   10 CONTINUE
   20 CONTINUE
      PRINT *, S
      END
`

func TestDoLoopWithExitNotHoisted(t *testing.T) {
	ap, run := pipeline(t, exitLoopProgram, 1)
	checkRecovery(t, ap, run)
	a := ap.Procs["EXITL"]
	plan, err := PlanSmart(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Counters {
		if c.Kind == TripAdd {
			t.Errorf("DO loop with an exit must not get the trip-count optimization: %v", plan.Counters)
		}
	}
}

const unstructuredProgram = `      PROGRAM SPAG
      INTEGER I, K
      I = 0
      K = 0
   10 I = I + 1
      IF (I .GT. 20) GOTO 40
      IF (MOD(I, 3) .EQ. 0) GOTO 30
      K = K + 1
      GOTO 10
   30 K = K + 2
      GOTO 10
   40 CONTINUE
      PRINT *, K
      END
`

func TestUnstructuredRecovery(t *testing.T) {
	ap, run := pipeline(t, unstructuredProgram, 1)
	checkRecovery(t, ap, run)
}

const arithIfProgram = `      PROGRAM ARIF
      INTEGER I, N, A, B, C
      A = 0
      B = 0
      C = 0
      DO 10 I = 1, 30
         N = MOD(I, 3) - 1
         IF (N) 1, 2, 3
    1    A = A + 1
         GOTO 10
    2    B = B + 1
         GOTO 10
    3    C = C + 1
   10 CONTINUE
      PRINT *, A, B, C
      END
`

func TestArithIfRecovery(t *testing.T) {
	ap, run := pipeline(t, arithIfProgram, 1)
	checkRecovery(t, ap, run)
}

const computedGotoProgram = `      PROGRAM CGO
      INTEGER I, K, S
      S = 0
      DO 10 I = 1, 24
         K = MOD(I, 5)
         GOTO (1, 2, 3), K
         S = S + 100
         GOTO 10
    1    S = S + 1
         GOTO 10
    2    S = S + 2
         GOTO 10
    3    S = S + 3
   10 CONTINUE
      PRINT *, S
      END
`

func TestComputedGotoRecovery(t *testing.T) {
	ap, run := pipeline(t, computedGotoProgram, 1)
	checkRecovery(t, ap, run)
}

const randomBranchProgram = `      PROGRAM RNDB
      INTEGER I, A, B
      REAL X
      A = 0
      B = 0
      DO 10 I = 1, 200
         X = RAND()
         IF (X .LT. 0.3) THEN
            A = A + 1
         ELSE IF (X .LT. 0.7) THEN
            B = B + 1
         ELSE
            A = A + 2
            B = B - 1
         ENDIF
   10 CONTINUE
      PRINT *, A, B
      END
`

func TestRandomBranchesRecoveryAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ap, run := pipeline(t, randomBranchProgram, seed)
		checkRecovery(t, ap, run)
	}
}

func TestMultiRunAccumulation(t *testing.T) {
	// Totals accumulated over several runs must equal the sum of per-run
	// exact totals (the program-database property).
	progAST, err := lang.Parse(randomBranchProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(progAST)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Fatal(err)
	}
	a := ap.Procs["RNDB"]
	plan, err := PlanSmart(a)
	if err != nil {
		t.Fatal(err)
	}
	acc := make(Readings, len(plan.Counters))
	want := make(freq.Totals)
	for seed := uint64(1); seed <= 3; seed++ {
		run, err := interp.Run(res, interp.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(plan.SimulateReadings(run))
		want.Add(ExactTotals(a, run))
	}
	got, err := plan.Recover(acc)
	if err != nil {
		t.Fatal(err)
	}
	for c, w := range want {
		if math.Abs(got[c]-w) > 1e-9 {
			t.Errorf("accumulated TOTAL%v = %g, want %g", c, got[c], w)
		}
	}
	// And the frequency table sees 3 invocations.
	tab, err := freq.Compute(a.FCDG, got)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Runs != 3 {
		t.Errorf("Runs = %g, want 3", tab.Runs)
	}
}

func TestBlockLeaders(t *testing.T) {
	g := cfg.New("t")
	for i := 0; i < 5; i++ {
		g.AddNode(cfg.Other, "n")
	}
	// 1 -> 2 -> 3(T/F) -> {4, 5}, 4 -> 5
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 4, cfg.True)
	g.MustAddEdge(3, 5, cfg.False)
	g.MustAddEdge(4, 5, cfg.Uncond)
	g.Entry, g.Exit = 1, 5
	leaders := BlockLeaders(g)
	want := []cfg.NodeID{1, 4, 5}
	if len(leaders) != len(want) {
		t.Fatalf("leaders = %v, want %v", leaders, want)
	}
	for i := range want {
		if leaders[i] != want[i] {
			t.Fatalf("leaders = %v, want %v", leaders, want)
		}
	}
}

func TestVarianceRun(t *testing.T) {
	// A loop whose per-entry trip counts differ: outer entries see inner
	// trips 1..5, variance of {2,3,4,5,6} header executions = 2.
	src := `      PROGRAM VARP
      INTEGER I, J, S
      S = 0
      DO 10 I = 1, 5
         DO 20 J = 1, I
            S = S + 1
   20    CONTINUE
   10 CONTINUE
      PRINT *, S
      END
`
	progAST, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(progAST)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := VarianceRun(ap, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := ap.Procs["VARP"]
	// Find the inner loop header (depth 2).
	var inner cfg.NodeID
	for _, h := range a.Intervals.Headers() {
		if a.Intervals.Depth(h) == 2 {
			inner = h
		}
	}
	if inner == cfg.None {
		t.Fatal("no inner loop found")
	}
	c := cdg.Condition{Node: a.Ext.Preheader[inner], Label: ecfg.LoopBodyLabel}
	// Per-entry header executions: trips+1 = {2,3,4,5,6}; VAR = 2.
	if got := vars["VARP"][c].Var(); math.Abs(got-2) > 1e-9 {
		t.Errorf("VAR(FREQ(inner)) = %g, want 2", got)
	}
}

// TestLevelMonotonicity: each added optimization can only reduce (or keep)
// both the static counter count and the dynamic update count, on every
// Livermore kernel.
func TestLevelMonotonicity(t *testing.T) {
	for k := 1; k <= livermore.Kernels; k++ {
		ap, run := pipeline(t, livermore.KernelSource(k, 40), 5)
		for name, a := range ap.Procs {
			var prevCounters int
			var prevOps int64
			for i, lv := range []Level{LevelConditions, LevelBranches, LevelFull} {
				plan, err := PlanLevel(a, lv)
				if err != nil {
					t.Fatalf("kernel %d %s level %d: %v", k, name, lv, err)
				}
				o := plan.MeasureOverhead(run, cost.Optimized)
				ops := o.Increments + o.TripAdds
				if i > 0 {
					if plan.NumCounters() > prevCounters {
						t.Errorf("kernel %d %s: level %d counters %d > previous %d",
							k, name, lv, plan.NumCounters(), prevCounters)
					}
					if ops > prevOps {
						t.Errorf("kernel %d %s: level %d ops %d > previous %d",
							k, name, lv, ops, prevOps)
					}
				}
				prevCounters, prevOps = plan.NumCounters(), ops
				// Every level must stay lossless.
				got, err := plan.Recover(plan.SimulateReadings(run))
				if err != nil {
					t.Fatalf("kernel %d %s level %d: %v", k, name, lv, err)
				}
				for c, w := range ExactTotals(a, run) {
					if got[c] != w {
						t.Fatalf("kernel %d %s level %d: TOTAL%v = %g, want %g", k, name, lv, c, got[c], w)
					}
				}
			}
		}
	}
}
