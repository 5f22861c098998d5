package profiler

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
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

// TestScheduleWellFormed checks that every recovery schedule is
// straight-line code over defined values, on the digest corpus and the
// first 20 cold-large programs under every smart placement: each step
// reads only counted slots, pseudo conditions (identically 0) and slots an
// earlier step wrote; every slot recovery reports is written; and a plan
// round-tripped through its encoding rebuilds exactly the same steps and
// operands.
func TestScheduleWellFormed(t *testing.T) {
	srcs := corpus.Digest(t)
	for j, src := range corpus.ColdLarge(20) {
		srcs[fmt.Sprintf("cold/%02d", j)] = src
	}
	schedules := 0
	for name, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for proc, a := range ap.Procs {
			for _, pl := range digestPlanners {
				plan, err := pl.plan(a)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, proc, pl.name, err)
				}
				rec := plan.recovery()
				if err := scheduleDefect(plan, rec); err != nil {
					t.Errorf("%s %s %s: %v", name, proc, pl.name, err)
				}
				dec := decoded(t, plan).recovery()
				if !slices.Equal(dec.steps, rec.steps) || !slices.Equal(dec.args, rec.args) {
					t.Errorf("%s %s %s: decoded plan's schedule differs from the fresh one", name, proc, pl.name)
				}
				schedules++
			}
		}
	}
	t.Logf("checked %d schedules", schedules)
}

// scheduleDefect returns the first read of an undefined slot in rec, or
// the first reported slot no step writes; nil when rec is well formed.
func scheduleDefect(p *Plan, rec *recovery) error {
	if rec.err != nil {
		return rec.err
	}
	defined := make([]bool, rec.nslot)
	for _, s := range rec.condSlot {
		if s >= 0 {
			defined[s] = true
		}
	}
	for i := 0; i < int(rec.nc); i++ {
		if p.A.FCDG.CondAt(i).Label.IsPseudo() {
			defined[i] = true
		}
	}
	a0 := int32(0)
	for k, st := range rec.steps {
		ops := rec.args[a0:st.end]
		a0 = st.end
		reads, writes := ops, []int32{st.dst}
		if st.rule >= 0 {
			reads = append([]int32{st.in}, ops...)
			if p.rules[st.rule].Kind.isDo() {
				reads, writes = reads[:1], append(writes, ops...)
			}
		}
		for _, s := range reads {
			if s < 0 || !defined[s] {
				return fmt.Errorf("step %d reads slot %d before any step writes it", k, s)
			}
		}
		for _, s := range writes {
			if s >= 0 {
				defined[s] = true
			}
		}
	}
	for _, s := range rec.out {
		if !defined[s] {
			return fmt.Errorf("reported slot %d is never written", s)
		}
	}
	return nil
}
