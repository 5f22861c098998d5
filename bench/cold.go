package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/profiler"
	"repro/internal/progen"
)

// cold-large is the one-shot compile-time use. Every op loads a program
// the process has never seen, with no artifact cache, the default tree
// engine, the Sarkar plan and Workers = GOMAXPROCS, and estimates it over
// eight profiling seeds. The counter planner does most of the work; the VM
// and the cache do none.
//
// The programs come from a corpus of coldCorpus, the same in every run;
// the seed picks the order they are visited in and each program's
// profiling seeds. A run visits about 60 of them. When every run drew its
// own programs, p90 spread up to 10% from run to run with which programs
// a run happened to draw: their cost varies by ±30% with their node count.

const (
	coldSize, coldDepth = 240, 4
	coldSeeds           = 8
	coldCorpus          = 100
	// growthPrograms programs are regenerated at every growthSizes size,
	// with the same generation seeds, to fit the growth exponents.
	growthPrograms = 3
)

var growthSizes = []int{60, 120, 240}

// coldLayers are the layer times of a traced cold-large op; together they
// should cover the op.
var coldLayers = []string{"lang.parse_ms", "lower.lower_ms", "analysis.analyze_ms", "profiler.plan_ms",
	"interp.run_ms", "profiler.recover_ms", "core.estimate_ms"}

func runColdLarge(c runCfg, o *outcome) error {
	size, sizes := coldSize, growthSizes
	if c.quick {
		size, sizes = 30, []int{10, 20, 30}
	}
	order := permutation(c.seed, streamColdOrder, coldCorpus)
	// input returns the source and profiling seeds of op i's program.
	input := func(i int) (string, []uint64) {
		j := order[i%coldCorpus]
		return progen.Generate(mix(0, streamColdProgram, j), size, coldDepth),
			profileSeeds(mix(c.seed, streamColdSeeds, j), streamColdSeeds, coldSeeds)
	}
	workers := runtime.GOMAXPROCS(0)
	load := func(src string, seeds []uint64) (*core.Pipeline, *core.ProgramEstimate, error) {
		p, err := core.LoadOpts(src, core.LoadOptions{Workers: workers, Engine: interp.EngineTree, Plan: core.StrategySarkar})
		if err != nil {
			return nil, nil, err
		}
		est, err := p.Estimate(cost.Optimized, core.Options{}, seeds...)
		return p, est, err
	}

	if err := checkFigure1(c.root); err != nil {
		o.problem("figure 1: %v", err)
	}
	// Set-up is one op on a program outside the measured set, so lazy
	// initialization is paid before timing starts. It is the same program
	// in every run, so setup_s does not move with the seed.
	err := o.setup(func() error {
		_, _, err := load(progen.Generate(mix(0, streamColdWarmup, 0), size, coldDepth), profileSeeds(0, streamColdWarmup, coldSeeds))
		return err
	})
	if err != nil {
		return err
	}

	var untraced, traced []float64
	lt := layerTimes{}
	var work profileWork
	var nodes, counters, blocks int
	twins := make(map[int]timeVar)
	every, quickOps := 1, 2
	if c.trace {
		every, quickOps = 2, 4
	}
	c.loop(quickOps, every, func(i int) {
		prog, tracedOp := i, false
		if c.trace {
			// Each program runs twice, traced and untraced, alternating
			// which goes first.
			prog, tracedOp = i/2, i%2 != (i/2)%2
		}
		src, seeds := input(prog)
		o.attempted++
		var est *core.ProgramEstimate
		if tracedOp {
			t0 := time.Now()
			fe, err := tracedFrontEnd(src, workers, lt)
			var profile profiler.ProgramProfile
			var w profileWork
			if err == nil {
				profile, w, err = tracedProfile(fe.res, fe.plans, seeds, workers, lt)
			}
			if err == nil {
				est, err = tracedEstimate(fe.an, fe.plans, profile, lt)
			}
			if err != nil {
				o.opFailed(i, err)
				return
			}
			traced = append(traced, msSince(t0))
			work.steps += w.steps
			work.runBusy += w.runBusy
			work.recovBusy += w.recovBusy
			nodes += cfgNodes(fe.an)
			for name, plan := range fe.plans {
				counters += plan.NumCounters()
				blocks += len(profiler.BlockLeaders(fe.an.Procs[name].P.G))
			}
		} else {
			t0 := time.Now()
			p, e, err := load(src, seeds)
			if err != nil {
				o.opFailed(i, err)
				return
			}
			untraced = append(untraced, msSince(t0))
			est = e
			if err := checkCold(p, est, seeds); err != nil {
				o.opFailed(i, err)
				return
			}
		}
		if !c.trace {
			return
		}
		if twin, ok := twins[prog]; ok {
			if err := timesOf(est).diff(twin); err != nil {
				o.opFailed(i, fmt.Errorf("traced and untraced estimates differ: %w", err))
			}
			delete(twins, prog)
		} else {
			twins[prog] = timesOf(est)
		}
	})

	if !c.trace {
		o.latencies(untraced)
		return nil
	}
	n := len(traced)
	if n == 0 || len(untraced) == 0 {
		return fmt.Errorf("no traced or no untraced op completed")
	}
	lt.addMeans(o.metrics, n)
	opMs := mean(traced)
	var covered float64
	for _, name := range coldLayers {
		covered += o.metrics[name]
	}
	o.metrics["trace.layer_coverage"] = covered / opMs
	o.metrics["profiler.plan_share"] = o.metrics["profiler.plan_ms"] / opMs
	o.metrics["interp.run_ms_per_mnode"] = work.runBusy / (float64(work.steps) / 1e6)
	o.metrics["profiler.recover_ms_per_seed"] = work.recovBusy / float64(n*coldSeeds)
	o.metrics["steps_per_seed"] = float64(work.steps) / float64(n*coldSeeds)
	o.metrics["cfg_nodes"] = float64(nodes) / float64(n)
	o.metrics["profiler.counters_per_block"] = float64(counters) / float64(blocks)
	o.traceOverhead(untraced, traced)
	anExp, planExp, err := growthExponents(sizes, workers)
	if err != nil {
		return err
	}
	o.metrics["analysis.analyze_growth_exp"] = anExp
	o.metrics["profiler.plan_growth_exp"] = planExp
	return nil
}

func cfgNodes(an *analysis.Program) int {
	var n int
	for _, a := range an.Procs {
		n += a.P.G.NumNodes()
	}
	return n
}

// checkCold checks an estimate against references that do not go through
// the counter plans: the recovered profile must equal the exact condition
// totals (profiler.ExactTotals) of uninstrumented tree-walker runs of the
// same seeds, and TIME(START) the mean measured cost of those runs.
func checkCold(p *core.Pipeline, est *core.ProgramEstimate, seeds []uint64) error {
	profile, _, err := p.Profile(interp.Options{}, seeds...)
	if err != nil {
		return err
	}
	m := cost.Optimized
	exact := make(profiler.ProgramProfile)
	var total float64
	for _, s := range seeds {
		run, err := interp.Run(p.Res, interp.Options{Seed: s, Model: &m, Engine: interp.EngineTree})
		if err != nil {
			return err
		}
		total += run.Cost
		for name, a := range p.An.Procs {
			if exact[name] == nil {
				exact[name] = make(freq.Totals)
			}
			exact[name].Add(profiler.ExactTotals(a, run))
		}
	}
	if err := sameProfile(profile, exact); err != nil {
		return fmt.Errorf("recovered profile is not the exact one: %w", err)
	}
	want := total / float64(len(seeds))
	if got := est.Main.Time; math.Abs(got-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("TIME(START) = %v, measured mean cost %v", got, want)
	}
	return nil
}

// checkFigure1 estimates examples/figure1.f with the paper's Figure 3
// costs (IF 1, CALL 100, everything else 0) and checks the paper's
// TIME(START) = 920 and STD_DEV(START) = 300.
func checkFigure1(root string) error {
	src, err := os.ReadFile(filepath.Join(root, "examples", "figure1.f"))
	if err != nil {
		return err
	}
	p, err := core.LoadOpts(string(src), core.LoadOptions{Workers: 1, Engine: interp.EngineTree, Plan: core.StrategySarkar})
	if err != nil {
		return err
	}
	profile, _, err := p.Profile(interp.Options{}, 1)
	if err != nil {
		return err
	}
	a := p.An.Procs["EXMPL"]
	if a == nil {
		return fmt.Errorf("no procedure EXMPL")
	}
	costs := cost.NewTable(a.P.G.MaxID())
	for id, s := range a.P.Stmt {
		switch {
		case strings.HasPrefix(s.Text(), "IF"):
			costs[id] = 1
		case strings.HasPrefix(s.Text(), "CALL"):
			costs[id] = 100
		}
	}
	est, err := core.EstimateProgram(p.An, map[string]freq.Totals(profile), map[string]cost.Table{"EXMPL": costs, "FOO": nil}, core.Options{})
	if err != nil {
		return err
	}
	pe := est.Procs["EXMPL"]
	if math.Abs(pe.Time-920) > 1e-9 || math.Abs(pe.StdDev()-300) > 1e-9 {
		return fmt.Errorf("TIME(START) = %v, STD_DEV(START) = %v, paper: 920 and 300", pe.Time, pe.StdDev())
	}
	return nil
}

// growthExponents fits the analyze and plan times of the corpus's first
// growthPrograms programs, each generated at every size in sizes, against
// their CFG node counts, and returns both log-log slopes.
func growthExponents(sizes []int, workers int) (analyze, plan float64, err error) {
	var nodes, an, pl []float64
	for g := 0; g < growthPrograms; g++ {
		for _, size := range sizes {
			l := layerTimes{}
			fe, err := tracedFrontEnd(progen.Generate(mix(0, streamColdProgram, g), size, coldDepth), workers, l)
			if err != nil {
				return 0, 0, err
			}
			nodes = append(nodes, float64(cfgNodes(fe.an)))
			an = append(an, l["analysis.analyze_ms"])
			pl = append(pl, l["profiler.plan_ms"])
		}
	}
	return logLogSlope(nodes, an), logLogSlope(nodes, pl), nil
}
