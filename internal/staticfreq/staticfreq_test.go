package staticfreq_test

import (
	"math"
	"testing"

	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/profiler"
	"repro/internal/staticfreq"
)

// fullyStatic has only compile-time-resolvable control flow: constant-trip
// DO loops and a PARAMETER-driven IF.
const fullyStatic = `      PROGRAM STATP
      INTEGER I, J, S, N
      PARAMETER (N = 10)
      S = 0
      DO 10 I = 1, N
         DO 20 J = 1, 4
            S = S + J
   20    CONTINUE
   10 CONTINUE
      IF (N .GT. 5) THEN
         S = S * 2
      ELSE
         S = 0
      ENDIF
      END
`

func TestFullyStaticProgramNeedsNoProfile(t *testing.T) {
	p, err := core.Load(fullyStatic)
	if err != nil {
		t.Fatal(err)
	}
	static := staticfreq.Program(p.An)
	a := p.An.Procs["STATP"]

	// Every non-pseudo condition except (START,U) must be statically
	// known.
	startCond := cdg.Condition{Node: a.Ext.Start, Label: cfg.Uncond}
	for _, c := range a.FCDG.Conditions() {
		if c == startCond {
			continue
		}
		if _, ok := static["STATP"][c]; !ok {
			t.Errorf("condition %v not statically resolved", c)
		}
	}

	// Estimate with a profile that records only one invocation and no
	// counter data at all: the static frequencies carry everything.
	profile := map[string]freq.Totals{"STATP": {startCond: 1}}
	model := cost.Unit
	est, err := core.EstimateProgram(p.An, profile, p.CostTables(model),
		core.Options{StaticFreq: static})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := p.MeasuredCost(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Main.Time-measured) > 1e-9*measured {
		t.Errorf("static-only TIME = %g, measured = %g", est.Main.Time, measured)
	}
}

func TestStaticAgreesWithProfile(t *testing.T) {
	p, err := core.Load(fullyStatic)
	if err != nil {
		t.Fatal(err)
	}
	static := staticfreq.Program(p.An)
	a := p.An.Procs["STATP"]
	run, err := interp.Run(p.Res, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	totals := profiler.ExactTotals(a, run)
	tab, err := freq.Compute(a.FCDG, totals)
	if err != nil {
		t.Fatal(err)
	}
	for c, sv := range static["STATP"] {
		if pv := tab.Freq.At(c); math.Abs(pv-sv) > 1e-12 {
			t.Errorf("condition %v: static FREQ %g != profiled FREQ %g", c, sv, pv)
		}
	}
}

func TestStaticShrinksCounterPlan(t *testing.T) {
	p, err := core.Load(fullyStatic)
	if err != nil {
		t.Fatal(err)
	}
	a := p.An.Procs["STATP"]
	static := staticfreq.Analyze(a)
	plain, err := profiler.PlanSmart(a)
	if err != nil {
		t.Fatal(err)
	}
	withStatic, err := profiler.PlanStatic(a, static)
	if err != nil {
		t.Fatal(err)
	}
	if withStatic.NumCounters() > plain.NumCounters() {
		t.Errorf("static plan has %d counters, plain %d", withStatic.NumCounters(), plain.NumCounters())
	}
	// Recovery must still be lossless.
	run, err := interp.Run(p.Res, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := withStatic.Recover(withStatic.SimulateReadings(run))
	if err != nil {
		t.Fatal(err)
	}
	for c, w := range profiler.ExactTotals(a, run) {
		if math.Abs(got[c]-w) > 1e-9 {
			t.Errorf("TOTAL%v = %g, want %g", c, got[c], w)
		}
	}
	t.Logf("counters: plain %d, with static analysis %d", plain.NumCounters(), withStatic.NumCounters())
}

func TestDynamicConditionsNotResolved(t *testing.T) {
	src := `      PROGRAM DYN
      INTEGER I, S
      REAL X
      S = 0
      DO 10 I = 1, 5
         X = RAND()
         IF (X .LT. 0.5) S = S + 1
         IF (S .GT. 100) GOTO 20
   10 CONTINUE
   20 CONTINUE
      END
`
	p, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	a := p.An.Procs["DYN"]
	static := staticfreq.Analyze(a)
	for c, v := range static {
		if c.Label.IsPseudo() {
			continue
		}
		n := a.Ext.G.Node(c.Node)
		// The RAND IF and the exit IF are dynamic; only conditions of the
		// DO loop would be static, but that loop has an exit, so nothing
		// but pseudo conditions may appear.
		t.Errorf("unexpected static condition %v=%g on %s", c, v, n.Name())
	}
}

func TestArithIfAndComputedGotoStatic(t *testing.T) {
	src := `      PROGRAM ACG
      INTEGER K, S, N
      PARAMETER (N = 2)
      S = 0
      IF (N - 2) 1, 2, 3
    1 S = 1
      GOTO 5
    2 S = 2
      GOTO 5
    3 S = 3
    5 CONTINUE
      GOTO (7, 8), N
      S = -1
    7 S = S + 10
    8 CONTINUE
      END
`
	p, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	a := p.An.Procs["ACG"]
	static := staticfreq.Analyze(a)
	// With N=2: the arithmetic IF takes EQ with probability 1, LT/GT are
	// dead; the computed GOTO takes case 2 — whose target is the join and
	// therefore controls nothing — so what is statically known is that G1
	// and the fall-through D are dead.
	want := map[cfg.Label]float64{"EQ": 1, "LT": 0, "GT": 0, "G1": 0, "D": 0}
	seen := map[cfg.Label]bool{}
	for c, v := range static {
		w, ok := want[c.Label]
		if !ok {
			continue
		}
		seen[c.Label] = true
		if v != w {
			t.Errorf("static FREQ%v = %g, want %g", c, v, w)
		}
	}
	for l := range want {
		if !seen[l] {
			t.Errorf("no static value for any %s condition: %v", l, static)
		}
	}
}
