package profiler

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/progen"
	"repro/internal/wire"
)

// stoppedProgram returns a Stops-family program and a run of it that
// froze at least one activation mid-flight.
func stoppedProgram(t *testing.T) (*analysis.Program, *interp.Result) {
	t.Helper()
	for seed := uint64(1); seed <= 200; seed++ {
		prog, err := lang.Parse(progen.GenerateOpts(seed, 24, 3, progen.Opts{Stops: true}))
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
		for runSeed := uint64(1); runSeed <= 4; runSeed++ {
			run, err := interp.Run(res, interp.Options{Seed: runSeed, MaxSteps: 2_000_000})
			if err == nil && len(run.StopFrames) > 0 {
				return ap, run
			}
		}
	}
	t.Fatal("no stopped run in the Stops corpus")
	return nil, nil
}

// decoded round-trips a plan through its artifact encoding, yielding a
// plan whose recovery schedule has not been derived yet.
func decoded(t *testing.T, p *Plan) *Plan {
	t.Helper()
	var w wire.Writer
	p.Encode(&w)
	r := wire.NewReader(w.Bytes())
	d := DecodePlan(r, p.A)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecoverRunConcurrentFirstUse shares decoded plans, whose recovery
// schedule and postdominator tree do not exist yet, among 8 goroutines
// that all recover the same stopped run at once. Under -race this pins
// the lazy derivation as race-free; every goroutine must recover the
// exact totals.
func TestRecoverRunConcurrentFirstUse(t *testing.T) {
	ap, run := stoppedProgram(t)
	for name, a := range ap.Procs {
		fresh, err := PlanFlow(a)
		if err != nil {
			t.Fatal(err)
		}
		shared := decoded(t, fresh)
		want := ExactTotals(a, run)
		var wg sync.WaitGroup
		errs := make([]error, 8)
		bad := make([]bool, 8)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got, err := shared.RecoverRun(run)
				if err != nil {
					errs[g] = err
					return
				}
				for c, w := range want {
					if got[c] != w {
						bad[g] = true
					}
				}
				bad[g] = bad[g] || len(got) != len(want)
			}(g)
		}
		wg.Wait()
		for g := range errs {
			if errs[g] != nil {
				t.Fatalf("%s: goroutine %d: %v", name, g, errs[g])
			}
			if bad[g] {
				t.Errorf("%s: goroutine %d recovered totals differ from ExactTotals", name, g)
			}
		}
		if shared.Trials() != 0 {
			t.Errorf("%s: decoded plan reports %d trials, want 0", name, shared.Trials())
		}
		if got, want := shared.RecoverSteps(), fresh.RecoverSteps(); got != want {
			t.Errorf("%s: decoded schedule has %d steps, fresh %d", name, got, want)
		}
	}
}

// TestDerivationsCoverEliminated checks the explanation against the plan:
// every condition without a counter is derived, and every derivation reads
// at least one input.
func TestDerivationsCoverEliminated(t *testing.T) {
	ap, _ := stoppedProgram(t)
	for name, a := range ap.Procs {
		plan, err := PlanFlow(a)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := plan.Derivations()
		if err != nil {
			t.Fatal(err)
		}
		counted := map[string]bool{}
		for _, c := range plan.Counters {
			if c.Kind == CondCounter {
				counted[c.Cond.String()] = true
			}
		}
		derived := map[string]int{}
		for _, d := range ds {
			if len(d.Inputs) == 0 {
				t.Errorf("%s: derivation %+v reads nothing", name, d)
			}
			for _, c := range d.Derives {
				if !counted[c.String()] {
					derived[c.String()]++
				}
			}
		}
		for _, c := range plan.Conds() {
			if !counted[c.String()] && derived[c.String()] == 0 {
				t.Errorf("%s: eliminated condition %v is never derived", name, c)
			}
		}
	}
}
