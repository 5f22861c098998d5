package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/ecfg"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/profiler"
)

// figure3Totals builds the paper's Figure 3 profile for the hand-built
// Figure 1 CFG: the IF labelled 10 executes 10 times, always takes its T
// arm, and the loop exits via IF (N.LT.0) on the 10th test.
func figure3Totals(a *analysis.Proc) freq.Totals {
	ph := a.Ext.Preheader[paperex.IfM]
	t := freq.Totals{
		{Node: a.Ext.Start, Label: cfg.Uncond}:  1,
		{Node: ph, Label: ecfg.LoopBodyLabel}:   10,
		{Node: paperex.IfM, Label: cfg.True}:    10,
		{Node: paperex.IfM, Label: cfg.False}:   0,
		{Node: paperex.IfNLt, Label: cfg.True}:  1,
		{Node: paperex.IfNLt, Label: cfg.False}: 9,
		{Node: paperex.IfNGe, Label: cfg.True}:  0,
		{Node: paperex.IfNGe, Label: cfg.False}: 0,
	}
	for _, c := range a.FCDG.Conditions() {
		if c.Label.IsPseudo() {
			t[c] = 0
		}
	}
	return t
}

// TestFigure3HandBuilt reproduces every published number of Figure 3 from
// the hand-built CFG: TIME(START) = 920, VAR(START) = 90000,
// STD_DEV(START) = 300, and the intermediate tuples derived in the text.
func TestFigure3HandBuilt(t *testing.T) {
	a, err := analysis.AnalyzeProc(&lower.Proc{G: paperex.CFG()})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := freq.Compute(a.FCDG, figure3Totals(a))
	if err != nil {
		t.Fatal(err)
	}
	pe := estimateProc(a, tab, cost.FromMap(paperex.Costs()), nil, nil, nil, Options{})

	if math.Abs(pe.Time-paperex.PaperTime) > 1e-9 {
		t.Errorf("TIME(START) = %g, want %g", pe.Time, paperex.PaperTime)
	}
	if math.Abs(pe.Var-paperex.PaperVariance) > 1e-9 {
		t.Errorf("VAR(START) = %g, want %g", pe.Var, paperex.PaperVariance)
	}
	if math.Abs(pe.StdDev()-paperex.PaperStdDev) > 1e-9 {
		t.Errorf("STD_DEV(START) = %g, want %g", pe.StdDev(), paperex.PaperStdDev)
	}

	// Node-level tuples from the worked example.
	checks := []struct {
		n          cfg.NodeID
		time, vari float64
	}{
		{paperex.Call, 100, 0},
		{paperex.IfNLt, 91, 900},
		{paperex.IfNGe, 1, 0}, // never executes: local cost only
		{paperex.IfM, 92, 900},
		{paperex.Cont20, 0, 0},
	}
	for _, c := range checks {
		e := pe.Node[c.n]
		if math.Abs(e.Time-c.time) > 1e-9 || math.Abs(e.Var-c.vari) > 1e-9 {
			t.Errorf("node %d: TIME=%g VAR=%g, want TIME=%g VAR=%g", c.n, e.Time, e.Var, c.time, c.vari)
		}
	}
	ph := a.Ext.Preheader[paperex.IfM]
	if e := pe.Node[ph]; math.Abs(e.Time-920) > 1e-9 || math.Abs(e.Var-90000) > 1e-9 {
		t.Errorf("preheader: TIME=%g VAR=%g, want 920, 90000", e.Time, e.Var)
	}
}

// TestFigure3FullPipeline reproduces the same numbers end to end: parse the
// example source, run it, profile it with optimized counters, recover
// frequencies, and estimate with the paper's explicit COST assignment.
func TestFigure3FullPipeline(t *testing.T) {
	p, err := Load(paperex.Source)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := p.Profile(interp.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's COST table: 1 per IF, 100 for the CALL, 0 elsewhere —
	// and FOO is free so rule 2 contributes nothing extra.
	a := p.An.Procs["EXMPL"]
	exCosts := cost.NewTable(a.P.G.MaxID())
	for id, s := range a.P.Stmt {
		switch s.Text()[0:2] {
		case "IF":
			exCosts[id] = 1
		case "CA":
			exCosts[id] = 100
		}
	}
	costs := map[string]cost.Table{"EXMPL": exCosts, "FOO": nil}
	est, err := EstimateProgram(p.An, map[string]freq.Totals(profile), costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-920) > 1e-9 {
		t.Errorf("TIME(START) = %g, want 920\n%s", est.Main.Time, Report(est.Main))
	}
	if math.Abs(est.Main.StdDev()-300) > 1e-9 {
		t.Errorf("STD_DEV(START) = %g, want 300\n%s", est.Main.StdDev(), Report(est.Main))
	}
}

// TestMeanMatchesMeasuredExactly: with the profile extracted from a set of
// runs, the estimated TIME(START) equals the average measured trace cost of
// those same runs, to floating point — the estimator's mean is exact, with
// no independence assumptions (Section 4's recurrences just redistribute
// the frequency-weighted sum).
func TestMeanMatchesMeasuredExactly(t *testing.T) {
	src := `      PROGRAM MMM
      INTEGER I, K
      REAL X, S
      S = 0.0
      DO 10 I = 1, 50
         X = RAND()
         IF (X .LT. 0.4) THEN
            S = S + X*X
            CALL HEAVY(S)
         ELSE IF (X .LT. 0.8) THEN
            S = S + X
         ELSE
            S = S - X
         ENDIF
   10 CONTINUE
      PRINT *, S
      END

      SUBROUTINE HEAVY(S)
      REAL S
      INTEGER J
      DO 20 J = 1, 10
         S = S + SIN(S) * COS(S)
   20 CONTINUE
      RETURN
      END
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Optimized
	seeds := []uint64{1, 2, 3, 4, 5}
	var total float64
	for _, s := range seeds {
		c, err := p.MeasuredCost(model, s)
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	measuredAvg := total / float64(len(seeds))
	est, err := p.Estimate(model, Options{}, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Main.Time-measuredAvg) / measuredAvg; rel > 1e-12 {
		t.Errorf("estimated TIME = %.10g, measured average = %.10g (rel err %g)",
			est.Main.Time, measuredAvg, rel)
	}
}

// TestVarianceExactForSingleBranch: for a loop-free main program whose cost
// is decided by one multi-way branch over fixed-cost callees, the estimated
// variance equals the population variance of the observed per-run costs
// exactly: the branch distribution recovered from the profile IS the
// empirical distribution. The callees are constant-trip counted loops, so
// they carry VAR = 0 and turning on callee variance propagation must not
// change the answer; see TestDeterministicLoopZeroVariance.
func TestVarianceExactForSingleBranch(t *testing.T) {
	src := `      PROGRAM ONEB
      REAL X
      X = RAND()
      IF (X .LT. 0.3) THEN
         CALL COSTA
      ELSE IF (X .LT. 0.6) THEN
         CALL COSTB
      ELSE
         CALL COSTC
      ENDIF
      END

      SUBROUTINE COSTA
      INTEGER I
      DO 10 I = 1, 10
   10 CONTINUE
      RETURN
      END

      SUBROUTINE COSTB
      INTEGER I
      DO 20 I = 1, 50
   20 CONTINUE
      RETURN
      END

      SUBROUTINE COSTC
      INTEGER I
      DO 30 I = 1, 200
   30 CONTINUE
      RETURN
      END
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Unit
	var seeds []uint64
	for s := uint64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	var costs []float64
	var sum float64
	for _, s := range seeds {
		c, err := p.MeasuredCost(model, s)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
		sum += c
	}
	mean := sum / float64(len(costs))
	var popVar float64
	for _, c := range costs {
		popVar += (c - mean) * (c - mean)
	}
	popVar /= float64(len(costs))

	est, err := p.Estimate(model, Options{}, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-mean) > 1e-9*math.Abs(mean) {
		t.Errorf("TIME = %g, want measured mean %g", est.Main.Time, mean)
	}
	if math.Abs(est.Main.Var-popVar) > 1e-6*math.Max(1, popVar) {
		t.Errorf("VAR = %g, want population variance %g", est.Main.Var, popVar)
	}

	// The callees are deterministic (constant-trip loops → VAR = 0), so
	// propagating their variance must leave the multinomial answer intact.
	withProp, err := p.Estimate(model, Options{PropagateCallVariance: true}, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withProp.Main.Var-est.Main.Var) > 1e-9*math.Max(1, est.Main.Var) {
		t.Errorf("propagated VAR %g must equal plain VAR %g: callees are deterministic",
			withProp.Main.Var, est.Main.Var)
	}
	// Under the legacy Bernoulli model the same propagation strictly
	// inflates the variance — the phantom-variance artifact the fix removed.
	legacy, err := p.Estimate(model, Options{PropagateCallVariance: true, BernoulliDoTests: true}, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Main.Var <= est.Main.Var {
		t.Errorf("legacy propagated VAR %g should exceed plain VAR %g", legacy.Main.Var, est.Main.Var)
	}
}

// TestDeterministicLoopZeroVariance: a DO loop with a compile-time-constant
// trip count and no conditional exits is fully deterministic, so the whole
// program must report VAR(START) = 0 exactly — the test branch is a
// deterministic selection (per entry: T exactly trip times, F once), not a
// Bernoulli draw. Options.BernoulliDoTests restores the old model, whose
// phantom variance VAR(test) = p(1−p)·T_body² with p = trip/(trip+1) is
// still checked here to pin down exactly what the fix removed.
func TestDeterministicLoopZeroVariance(t *testing.T) {
	src := `      PROGRAM DLOOP
      INTEGER I, S
      S = 0
      DO 10 I = 1, 4
         S = S + 1
   10 CONTINUE
      END
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.Estimate(cost.Unit, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := p.An.Procs["DLOOP"]
	h := a.Intervals.Headers()[0]
	ph := a.Ext.Preheader[h]
	pe := est.Procs["DLOOP"]

	// Deterministic program: zero variance, everywhere, exactly.
	if est.Main.Var != 0 {
		t.Errorf("VAR(START) = %g, want exactly 0 for a constant-trip loop", est.Main.Var)
	}
	if pe.Node[h].Var != 0 || pe.Node[ph].Var != 0 {
		t.Errorf("VAR(test) = %g, VAR(preheader) = %g, want 0, 0",
			pe.Node[h].Var, pe.Node[ph].Var)
	}
	// TIME is untouched by the deterministic rule.
	measured, err := p.MeasuredCost(cost.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-measured) > 1e-9 {
		t.Errorf("TIME = %g, want measured %g", est.Main.Time, measured)
	}

	// Legacy Bernoulli model, kept behind an option for A/B comparison.
	old, err := p.Estimate(cost.Unit, Options{BernoulliDoTests: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ope := old.Procs["DLOOP"]
	var tb float64
	for _, e := range a.FCDG.OutEdges(h) {
		if e.Label == cfg.True {
			tb += ope.Node[e.To].Time
		}
	}
	const trip = 4.0
	pT := trip / (trip + 1)
	wantTestVar := pT*tb*tb - (pT*tb)*(pT*tb)
	if math.Abs(ope.Node[h].Var-wantTestVar) > 1e-9 {
		t.Errorf("Bernoulli VAR(test) = %g, want p(1-p)T² = %g", ope.Node[h].Var, wantTestVar)
	}
	wantPhVar := (trip + 1) * (trip + 1) * (ope.Node[h].Var)
	if math.Abs(ope.Node[ph].Var-wantPhVar) > 1e-9 {
		t.Errorf("Bernoulli VAR(preheader) = %g, want F²·VAR(header) = %g", ope.Node[ph].Var, wantPhVar)
	}
	if old.Main.Var <= 0 {
		t.Errorf("legacy model's phantom variance expected, got %g", old.Main.Var)
	}
	if old.Main.Time != est.Main.Time {
		t.Errorf("TIME must not depend on the variance model: %g vs %g", old.Main.Time, est.Main.Time)
	}
}

// TestSelfRecursionClosedForm: a procedure that calls itself with expected
// count p per activation and local cost a has TIME = a / (1 − p); the
// linear solver must reproduce the geometric series.
func TestSelfRecursionClosedForm(t *testing.T) {
	src := `      PROGRAM RECM
      INTEGER N
      N = 5
      CALL R(N)
      END

      SUBROUTINE R(N)
      INTEGER N
      IF (N .LE. 0) RETURN
      N = N - 1
      CALL R(N)
      RETURN
      END
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.An.IsRecursive("R") {
		t.Fatal("R must be detected as recursive")
	}
	model := cost.Unit
	est, err := p.Estimate(model, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: total measured cost of the program equals its
	// estimated TIME (mean exactness extends to recursion because the
	// deterministic run IS the profile).
	measured, err := p.MeasuredCost(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-measured) > 1e-9*measured {
		t.Errorf("recursive TIME = %g, want measured %g", est.Main.Time, measured)
	}
	// And R itself: 6 activations, 5 recursive calls → p = 5/6; TIME(R)
	// must equal total R cost / activations.
	r := est.Procs["R"]
	if r.Time <= 0 {
		t.Fatalf("TIME(R) = %g", r.Time)
	}
}

// TestMutualRecursion solves a two-member SCC.
func TestMutualRecursion(t *testing.T) {
	src := `      PROGRAM MUT
      INTEGER N
      N = 8
      CALL EVEN(N)
      END

      SUBROUTINE EVEN(N)
      INTEGER N
      IF (N .LE. 0) RETURN
      N = N - 1
      CALL ODD(N)
      RETURN
      END

      SUBROUTINE ODD(N)
      INTEGER N
      IF (N .LE. 0) RETURN
      N = N - 1
      CALL EVEN(N)
      RETURN
      END
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.An.IsRecursive("EVEN") || !p.An.IsRecursive("ODD") {
		t.Fatal("EVEN/ODD must be detected as a recursive component")
	}
	model := cost.Unit
	est, err := p.Estimate(model, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := p.MeasuredCost(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-measured) > 1e-9*measured {
		t.Errorf("mutual recursion TIME = %g, want measured %g", est.Main.Time, measured)
	}
}

// TestDivergentRecursionRejected: a synthetic profile claiming one or more
// expected recursive calls per activation has no finite expected time, and
// the error must say which procedure is at fault.
func TestDivergentRecursionRejected(t *testing.T) {
	names := []string{"SELF"}
	a := []float64{1}
	M := [][]float64{{1.0}} // exactly one recursive call per activation
	_, err := solveAffine(names, a, M)
	if err == nil {
		t.Fatal("p = 1 recursion must be rejected")
	}
	if !strings.Contains(err.Error(), "SELF") {
		t.Errorf("error must name the offending procedure: %v", err)
	}
	M = [][]float64{{1.5}}
	if _, err := solveAffine(names, a, M); err == nil {
		t.Fatal("p > 1 recursion must be rejected")
	}
	// p < 1 solves the geometric series.
	x, err := solveAffine(names, []float64{2}, [][]float64{{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 {
		t.Errorf("x = %g, want 4", x[0])
	}
}

// pingPongSource is a mutually recursive pair driven by synthetic profiles
// in the tests below; it is analyzed but never executed (each activation
// would recurse forever), so the totals are supplied by hand.
const pingPongSource = `      PROGRAM MAINR
      INTEGER N
      N = 1
      CALL PING(N)
      END

      SUBROUTINE PING(N)
      INTEGER N
      IF (N .GT. 0) CALL PONG(N)
      N = N + 5
      RETURN
      END

      SUBROUTINE PONG(N)
      INTEGER N
      IF (N .GT. 0) CALL PING(N)
      N = N + 3
      RETURN
      END
`

// pingPongFixture analyzes pingPongSource and builds synthetic totals with
// the given recursion probability p per activation (the IF takes its T arm
// with frequency p), plus cost tables charging 5 for PING's assignment and
// 3 for PONG's (everything else free).
func pingPongFixture(t *testing.T, p float64) (*Pipeline, map[string]freq.Totals, map[string]cost.Table) {
	t.Helper()
	pl, err := Load(pingPongSource)
	if err != nil {
		t.Fatal(err)
	}
	const activations = 1000 // totals are counts: p must have denominator dividing this
	profile := make(map[string]freq.Totals)
	for name, a := range pl.An.Procs {
		tot := freq.Totals{}
		for _, c := range a.FCDG.Conditions() {
			tot[c] = 0
		}
		if name == "MAINR" {
			tot[cdg.Condition{Node: a.Ext.Start, Label: cfg.Uncond}] = 1
			profile[name] = tot
			continue
		}
		var branch cfg.NodeID
		for _, n := range a.P.G.Nodes() {
			if _, ok := n.Payload.(lower.OpBranch); ok {
				branch = n.ID
			}
		}
		if branch == 0 {
			t.Fatalf("%s: no branch node found", name)
		}
		taken := math.Round(p * activations)
		tot[cdg.Condition{Node: a.Ext.Start, Label: cfg.Uncond}] = activations
		tot[cdg.Condition{Node: branch, Label: cfg.True}] = taken
		tot[cdg.Condition{Node: branch, Label: cfg.False}] = activations - taken
		profile[name] = tot
	}
	costs := make(map[string]cost.Table)
	for name, a := range pl.An.Procs {
		tab := cost.NewTable(a.P.G.MaxID())
		for id, s := range a.P.Stmt {
			if strings.Contains(s.Text(), "N+5") {
				tab[id] = 5
			} else if strings.Contains(s.Text(), "N+3") {
				tab[id] = 3
			}
		}
		costs[name] = tab
	}
	return pl, profile, costs
}

// TestRecursiveVarianceHandComputed checks solveRecursive against a fully
// hand-solved two-procedure system. With recursion probability p = 1/2 and
// local costs c_P = 5, c_Q = 3:
//
//	T_P = 5 + T_Q/2, T_Q = 3 + T_P/2      → T_P = 26/3, T_Q = 22/3
//
// and each procedure's variance is its IF node's case-2 value
// VAR = V_callee/2 + T_callee²/4, with V_callee = 0 when call-variance
// propagation is off:
//
//	off: V_P = T_Q²/4 = 121/9, V_Q = T_P²/4 = 169/9
//	on:  V_P = V_Q/2 + 121/9, V_Q = V_P/2 + 169/9 → V_P = 274/9, V_Q = 34
func TestRecursiveVarianceHandComputed(t *testing.T) {
	pl, profile, costs := pingPongFixture(t, 0.5)

	off, err := EstimateProgram(pl.An, profile, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := EstimateProgram(pl.An, profile, costs, Options{PropagateCallVariance: true})
	if err != nil {
		t.Fatal(err)
	}

	checks := []struct {
		name       string
		est        *ProgramEstimate
		proc       string
		time, vari float64
	}{
		{"off", off, "PING", 26.0 / 3, 121.0 / 9},
		{"off", off, "PONG", 22.0 / 3, 169.0 / 9},
		{"on", on, "PING", 26.0 / 3, 274.0 / 9},
		{"on", on, "PONG", 22.0 / 3, 34},
	}
	for _, c := range checks {
		pe := c.est.Procs[c.proc]
		if math.Abs(pe.Time-c.time) > 1e-9 {
			t.Errorf("%s %s: TIME = %.12g, want %.12g", c.name, c.proc, pe.Time, c.time)
		}
		if math.Abs(pe.Var-c.vari) > 1e-9 {
			t.Errorf("%s %s: VAR = %.12g, want %.12g", c.name, c.proc, pe.Var, c.vari)
		}
	}
	// Main calls PING unconditionally: its tuple is the solved fixpoint.
	if math.Abs(on.Main.Time-26.0/3) > 1e-9 || math.Abs(on.Main.Var-274.0/9) > 1e-9 {
		t.Errorf("MAINR: TIME = %g VAR = %g, want 26/3, 274/9", on.Main.Time, on.Main.Var)
	}
	if off.Main.Var != 0 {
		t.Errorf("MAINR without propagation: VAR = %g, want 0", off.Main.Var)
	}
}

// TestRecursiveNodeTuplesMatchRoot: after solveRecursive's final per-node
// pass, each member's FCDG root tuple must agree with the solved fixpoint
// values (they can differ only by floating-point drift).
func TestRecursiveNodeTuplesMatchRoot(t *testing.T) {
	pl, profile, costs := pingPongFixture(t, 0.5)
	est, err := EstimateProgram(pl.An, profile, costs, Options{PropagateCallVariance: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PING", "PONG"} {
		pe := est.Procs[name]
		root := pe.Node[pe.A.FCDG.Root]
		if math.Abs(root.Time-pe.Time) > 1e-9*math.Max(1, pe.Time) {
			t.Errorf("%s: root TIME %.15g disagrees with solved %.15g", name, root.Time, pe.Time)
		}
		if math.Abs(root.Var-pe.Var) > 1e-9*math.Max(1, pe.Var) {
			t.Errorf("%s: root VAR %.15g disagrees with solved %.15g", name, root.Var, pe.Var)
		}
	}
}

// TestSingularRecursionNamesProcedure: with p = 1 the pair calls each other
// once per activation — the expected activation count diverges and the
// error must name a member of the offending component.
func TestSingularRecursionNamesProcedure(t *testing.T) {
	pl, profile, costs := pingPongFixture(t, 1.0)
	_, err := EstimateProgram(pl.An, profile, costs, Options{})
	if err == nil {
		t.Fatal("p = 1 mutual recursion must be rejected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "PING") && !strings.Contains(msg, "PONG") {
		t.Errorf("error must name the offending procedure: %v", err)
	}
	if !strings.Contains(msg, "recursive call count") {
		t.Errorf("error must explain the divergence (call count ≥ 1): %v", err)
	}
}

// TestLoopFrequencyVariance: Section 5 case 1 with VAR(FREQ) from the
// second-moment profile. A loop body of constant cost c executed F times
// with VAR(F) = v has VAR(loop) = v·c² exactly (ΣVAR(children) = 0).
func TestLoopFrequencyVariance(t *testing.T) {
	src := `      PROGRAM LV
      INTEGER I, J, S
      S = 0
      DO 10 I = 1, 5
         DO 20 J = 1, I
            S = S + 1
   20    CONTINUE
   10 CONTINUE
      END
`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	moments, err := profiler.VarianceRun(p.An, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fv := make(map[string]map[cdg.Condition]float64, len(moments))
	for name, m := range moments {
		fv[name] = make(map[cdg.Condition]float64, len(m))
		for c, lm := range m {
			fv[name][c] = lm.Var()
		}
	}
	profile, _, err := p.Profile(interp.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Unit
	withVar, err := EstimateProgram(p.An, map[string]freq.Totals(profile), p.CostTables(model),
		Options{FreqVar: fv})
	if err != nil {
		t.Fatal(err)
	}
	without, err := EstimateProgram(p.An, map[string]freq.Totals(profile), p.CostTables(model), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withVar.Main.Var <= without.Main.Var {
		t.Errorf("VAR with loop-frequency variance (%g) must exceed the zero-variance assumption (%g)",
			withVar.Main.Var, without.Main.Var)
	}
	if without.Main.Time != withVar.Main.Time {
		t.Errorf("TIME must not depend on VAR(FREQ): %g vs %g", without.Main.Time, withVar.Main.Time)
	}

	// Case 1's full formula for the inner preheader:
	// VAR = F²·ΣVAR + VAR(F)·(ΣTIME)² + VAR(F)·ΣVAR.
	a := p.An.Procs["LV"]
	var inner cfg.NodeID
	for _, h := range a.Intervals.Headers() {
		if a.Intervals.Depth(h) == 2 {
			inner = h
		}
	}
	ph := a.Ext.Preheader[inner]
	pe := withVar.Procs["LV"]
	cond := cdg.Condition{Node: ph, Label: ecfg.LoopBodyLabel}
	varF := fv["LV"][cond]
	if varF != 2 {
		t.Errorf("VAR(FREQ(inner)) = %g, want 2 (header executions 2..6)", varF)
	}
	F := pe.Freq.Freq.At(cond)
	var sumT, sumV float64
	for _, e := range a.FCDG.OutEdges(ph) {
		if e.Label == ecfg.LoopBodyLabel {
			sumT += pe.Node[e.To].Time
			sumV += pe.Node[e.To].Var
		}
	}
	want := F*F*sumV + varF*sumT*sumT + varF*sumV
	if math.Abs(pe.Node[ph].Var-want) > 1e-9 {
		t.Errorf("VAR(inner preheader) = %g, want %g", pe.Node[ph].Var, want)
	}
}

// TestZeroRunProfile: estimating from an empty profile (all totals zero)
// must fail cleanly in freq, not crash.
func TestZeroRunProfile(t *testing.T) {
	p, err := Load(paperex.Source)
	if err != nil {
		t.Fatal(err)
	}
	empty := map[string]freq.Totals{"EXMPL": {}, "FOO": {}}
	est, err := EstimateProgram(p.An, empty, p.CostTables(cost.Unit), Options{})
	if err != nil {
		t.Fatal(err) // zero totals are consistent: everything has FREQ 0
	}
	if est.Main.Time != 0 {
		t.Errorf("TIME from empty profile = %g, want 0", est.Main.Time)
	}
}
