package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/profiler"
	"repro/internal/staticfreq"
)

// The traced run splits an op into layers from outside the program: it
// makes the calls core.Pipeline makes, into each module's public
// functions, and times each call. No span is added inside the program.
// Every traced op is checked to give the same estimate as the untraced op
// on the same input, so a replica that drifts from core fails the run.

// layerTimes sums wall milliseconds per per-layer metric name.
type layerTimes map[string]float64

func (l layerTimes) timed(name string, f func()) {
	t0 := time.Now()
	f()
	l[name] += msSince(t0)
}

// addMeans records every layer sum divided by n (ops) into metrics.
func (l layerTimes) addMeans(metrics map[string]float64, n int) {
	for name, v := range l {
		metrics[name] = v / float64(max(n, 1))
	}
}

// frontEnd is a program parsed, lowered, analyzed and planned.
type frontEnd struct {
	prog  *lang.Program
	res   *lower.Result
	an    *analysis.Program
	plans profiler.Plans
}

// tracedFrontEnd does what core.LoadOpts and the first Profile call do
// before any program runs, uncached: parse, lower, analyze with the given
// workers, and build the Sarkar counter plans. The plan layer's heap
// allocation is added to l["profiler.plan_alloc_mb"].
func tracedFrontEnd(src string, workers int, l layerTimes) (*frontEnd, error) {
	fe := &frontEnd{}
	var err error
	if l.timed("lang.parse_ms", func() { fe.prog, err = lang.Parse(src) }); err != nil {
		return nil, err
	}
	if l.timed("lower.lower_ms", func() { fe.res, err = lower.Lower(fe.prog) }); err != nil {
		return nil, err
	}
	if l.timed("analysis.analyze_ms", func() {
		fe.an, err = analysis.AnalyzeProgramOpts(fe.res, analysis.Options{Workers: workers})
	}); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.timed("profiler.plan_ms", func() { fe.plans, err = profiler.BuildPlans(fe.an) })
	runtime.ReadMemStats(&after)
	l["profiler.plan_alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return fe, err
}

// profileWork is what one traced profile did: nodes executed over all
// seeds, and busy milliseconds summed over workers in each layer.
type profileWork struct {
	steps              int64
	runBusy, recovBusy float64
}

// tracedProfile runs every seed on the tree-walker and recovers its counter
// profile, seeds spread over workers goroutines as core.Pipeline.Profile
// spreads them, and merges the per-seed profiles in seed order. The
// profile's wall time is split between interp.run_ms and
// profiler.recover_ms in proportion to their busy time, so the layers
// still add up to the op.
func tracedProfile(res *lower.Result, plans profiler.Plans, seeds []uint64, workers int, l layerTimes) (profiler.ProgramProfile, profileWork, error) {
	profs := make([]profiler.ProgramProfile, len(seeds))
	steps := make([]int64, len(seeds))
	errs := make([]error, len(seeds))
	runNs := make([]time.Duration, len(seeds))
	recNs := make([]time.Duration, len(seeds))
	t0 := time.Now()
	var wg sync.WaitGroup
	next := make(chan int, len(seeds)) // holds every index, so sends never block
	for i := range seeds {
		next <- i
	}
	close(next)
	for w := 0; w < min(max(workers, 1), len(seeds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r0 := time.Now()
				run, err := interp.Run(res, interp.Options{Seed: seeds[i], Engine: interp.EngineTree})
				r1 := time.Now()
				runNs[i] = r1.Sub(r0)
				if err != nil {
					errs[i] = err
					continue
				}
				steps[i] = run.Steps
				profs[i], errs[i] = plans.Profile(run)
				recNs[i] = time.Since(r1)
			}
		}()
	}
	wg.Wait()
	wall := msSince(t0)
	var w profileWork
	acc := make(profiler.ProgramProfile)
	for i := range seeds {
		if errs[i] != nil {
			return nil, w, errs[i]
		}
		w.runBusy += float64(runNs[i]) / 1e6
		w.recovBusy += float64(recNs[i]) / 1e6
		w.steps += steps[i]
		for name, totals := range profs[i] {
			if acc[name] == nil {
				acc[name] = make(freq.Totals)
			}
			acc[name].Add(totals)
		}
	}
	if busy := w.runBusy + w.recovBusy; busy > 0 {
		l["interp.run_ms"] += wall * w.runBusy / busy
		l["profiler.recover_ms"] += wall * w.recovBusy / busy
	}
	return acc, w, nil
}

// estimateOptions gives core.EstimateProgram the options core.Pipeline
// derives from its analysis and plans: the dataflow framework's exact
// condition frequencies and the plans' constant-trip DO tests.
func estimateOptions(an *analysis.Program, plans profiler.Plans) core.Options {
	static := make(map[string]map[cdg.Condition]float64)
	for name, a := range an.Procs {
		if exact := staticfreq.Exact(a); len(exact) > 0 {
			static[name] = exact
		}
	}
	det := make(map[string]map[cfg.NodeID]bool)
	for name, plan := range plans {
		for _, id := range plan.ConstTripTests() {
			if det[name] == nil {
				det[name] = make(map[cfg.NodeID]bool)
			}
			det[name][id] = true
		}
	}
	return core.Options{StaticFreq: static, DeterministicTests: det}
}

// tracedEstimate prices the profile under the optimized cost model, timed
// as core.estimate_ms.
func tracedEstimate(an *analysis.Program, plans profiler.Plans, profile profiler.ProgramProfile, l layerTimes) (*core.ProgramEstimate, error) {
	var est *core.ProgramEstimate
	var err error
	l.timed("core.estimate_ms", func() {
		costs := make(map[string]cost.Table, len(an.Res.Procs))
		for name, proc := range an.Res.Procs {
			costs[name] = cost.Optimized.Table(proc)
		}
		est, err = core.EstimateProgram(an, map[string]freq.Totals(profile), costs, estimateOptions(an, plans))
	})
	return est, err
}

// timeVar holds every procedure's TIME and VAR from one estimate: what two
// estimates of the same program must agree on, bit for bit.
type timeVar map[string][2]float64

func timesOf(est *core.ProgramEstimate) timeVar {
	out := make(timeVar, len(est.Procs))
	for name, pe := range est.Procs {
		out[name] = [2]float64{pe.Time, pe.Var}
	}
	return out
}

// diff reports the first procedure whose TIME or VAR differs from want's.
func (tv timeVar) diff(want timeVar) error {
	if len(tv) != len(want) {
		return fmt.Errorf("%d procedures estimated, want %d", len(tv), len(want))
	}
	for name, got := range tv {
		w, ok := want[name]
		if !ok {
			return fmt.Errorf("procedure %s not expected", name)
		}
		if got != w {
			return fmt.Errorf("%s: TIME %v VAR %v, want TIME %v VAR %v", name, got[0], got[1], w[0], w[1])
		}
	}
	return nil
}

// sameProfile reports whether two profiles hold the same totals for the
// same conditions.
func sameProfile(a, b profiler.ProgramProfile) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d procedures profiled, want %d", len(a), len(b))
	}
	for name, ta := range a {
		tb := b[name]
		if len(ta) != len(tb) {
			return fmt.Errorf("%s: %d conditions, want %d", name, len(ta), len(tb))
		}
		for c, v := range ta {
			if w, ok := tb[c]; !ok || w != v {
				return fmt.Errorf("%s: condition %v total %v, want %v", name, c, v, w)
			}
		}
	}
	return nil
}
