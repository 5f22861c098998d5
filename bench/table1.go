package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/livermore"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/simplecfd"
	"repro/internal/vm"
)

// table1-profile is profiled execution, the paper's Table 1 overhead
// measurement, on its two programs: SIMPLE at 100×100 with NCYCLES = 10
// and LOOPS at n = 100. Loading, planning and compiling happen in set-up.
// Each op is a round of one Profile call per engine config and program,
// with Workers = 1, so the engines do almost all the work and the planner
// none: engine changes show here, and a planner change should show
// nothing.

type engineConfig struct {
	name   string
	engine interp.Engine
	plan   core.Strategy
}

var table1Configs = []engineConfig{
	{"tree", interp.EngineTree, core.StrategySarkar},
	{"vm", interp.EngineVM, core.StrategySarkar},
	{"vm-batch", interp.EngineVMBatch, core.StrategySarkar},
	{"bl", interp.EngineVMBatch, core.StrategyBallLarus},
}

const (
	simpleN, simpleCycles = 100, 10 // the paper's SIMPLE configuration
	loopsN                = 100
	// loopsReps repeats LOOPS until it executes about as many nodes per
	// run as SIMPLE (~4.3M), so neither program dominates a round.
	loopsReps = 128
	// table1Seeds is the number of seeds per Profile call; one keeps a
	// round near a second, so a run holds enough rounds for a p90.
	table1Seeds = 1
)

// table1Program is one Table 1 program loaded once per engine config, plus
// what the traced replica of Profile needs.
type table1Program struct {
	name  string
	pipes []*core.Pipeline // one per table1Configs entry, warmed up
	ref   profiler.ProgramProfile
	steps int64 // nodes executed over the run's seeds, exact

	plans  profiler.Plans
	paths  *pathprof.Plans
	vmProg *vm.Program
}

func runTable1(c runCfg, o *outcome) error {
	simple, loops := simplecfd.Source(simpleN, simpleCycles), livermore.Source(loopsN, loopsReps)
	if c.quick {
		simple, loops = simplecfd.Source(8, 1), livermore.Source(10, 1)
	}
	// The Profile calls are serial (Workers = 1), so the run takes one P.
	// On two, it slowed whenever a neighbour held the second CPU, and its
	// latencies spread 7-9% from run to run on a shared 2-core host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seeds := profileSeeds(c.seed, streamTable1Seeds, table1Seeds)
	var progs []*table1Program
	err := o.setup(func() error {
		progs = nil
		for _, pr := range []struct{ name, src string }{{"SIMPLE", simple}, {"LOOPS", loops}} {
			tp := &table1Program{name: pr.name}
			for k, ec := range table1Configs {
				p, err := core.LoadOpts(pr.src, core.LoadOptions{Workers: 1, Engine: ec.engine, Plan: ec.plan})
				if err != nil {
					return fmt.Errorf("%s: %w", pr.name, err)
				}
				if k == 0 {
					// The tree-walker's profile is the reference every
					// config must reproduce, and its runs give the exact
					// node count.
					tp.ref = make(profiler.ProgramProfile)
					tp.steps = 0
					for _, s := range seeds {
						prof, last, err := p.Profile(interp.Options{}, s)
						if err != nil {
							return fmt.Errorf("%s: %w", pr.name, err)
						}
						tp.steps += last.Steps
						for name, totals := range prof {
							if tp.ref[name] == nil {
								tp.ref[name] = totals
							} else {
								tp.ref[name].Add(totals)
							}
						}
					}
				} else if _, _, err := p.Profile(interp.Options{}, seeds...); err != nil {
					return fmt.Errorf("%s %s: %w", pr.name, ec.name, err)
				}
				tp.pipes = append(tp.pipes, p)
			}
			progs = append(progs, tp)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c.trace {
		for _, tp := range progs {
			ms, err := tp.prepareReplica()
			if err != nil {
				return err
			}
			o.metrics["vm.compile_ms"] += ms / float64(len(progs))
		}
	}

	var untraced, traced []float64
	lt := layerTimes{}
	cfgMs := make([]float64, len(table1Configs))
	cfgSteps := make([]float64, len(table1Configs))
	every, quickOps := 1, 1
	if c.trace {
		every, quickOps = 2, 2
	}
	c.loop(quickOps, every, func(round int) {
		tracedRound := c.trace && round%2 == 1
		o.attempted++
		var roundMs float64
		for j := range table1Configs {
			// Rotate the config order so no config always runs first.
			k := (j + round) % len(table1Configs)
			for _, tp := range progs {
				var prof profiler.ProgramProfile
				var err error
				t0 := time.Now()
				if tracedRound {
					prof, err = tp.tracedProfile(k, seeds, lt)
				} else {
					prof, _, err = tp.pipes[k].Profile(interp.Options{}, seeds...)
				}
				ms := msSince(t0)
				if err != nil {
					o.opFailed(round, fmt.Errorf("%s %s: %w", tp.name, table1Configs[k].name, err))
					return
				}
				roundMs += ms
				if !tracedRound {
					cfgMs[k] += ms
					cfgSteps[k] += float64(tp.steps)
				}
				if err := sameProfile(prof, tp.ref); err != nil {
					o.opFailed(round, fmt.Errorf("%s %s profile differs from the tree-walker's: %w", tp.name, table1Configs[k].name, err))
					return
				}
			}
		}
		if tracedRound {
			traced = append(traced, roundMs)
		} else {
			untraced = append(untraced, roundMs)
		}
	})

	if !c.trace {
		o.latencies(untraced)
		return nil
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("no traced or no untraced round completed")
	}
	n := float64(len(traced))
	msteps := float64(len(traced)) * float64(progs[0].steps+progs[1].steps) / 1e6
	seedsRecovered := n * float64(len(progs)*len(seeds))
	o.metrics["interp.run_ms_per_mnode"] = lt["interp.run_ms"] / msteps
	o.metrics["vm.run_ms_per_mnode"] = lt["vm.run_ms"] / msteps
	o.metrics["vm.batch_exec_ms_per_mnode"] = lt["vm.batch_exec_ms"] / msteps
	o.metrics["pathprof.exec_ms_per_mnode"] = lt["pathprof.exec_ms"] / msteps
	// Sarkar recovery runs under three configs, path recovery under one.
	o.metrics["profiler.recover_ms_per_seed"] = lt["profiler.recover_ms"] / (3 * seedsRecovered)
	o.metrics["pathprof.recover_ms_per_seed"] = lt["pathprof.recover_ms"] / seedsRecovered
	var covered float64
	for _, v := range lt {
		covered += v
	}
	o.metrics["trace.layer_coverage"] = covered / (n * mean(traced))
	lt.addMeans(o.metrics, len(traced))
	for k, ec := range table1Configs {
		o.metrics["mnodes_per_s."+ec.name] = cfgSteps[k] / 1e6 / (cfgMs[k] / 1000)
	}
	var nodes, counters, blocks, steps int
	for _, tp := range progs {
		steps += int(tp.steps)
		an := tp.pipes[0].An
		nodes += cfgNodes(an)
		for name, plan := range tp.plans {
			counters += plan.NumCounters()
			blocks += len(profiler.BlockLeaders(an.Procs[name].P.G))
		}
		for k, ec := range table1Configs {
			b, err := tp.allocPerSeed(k, seeds)
			if err != nil {
				return fmt.Errorf("%s %s: %w", tp.name, ec.name, err)
			}
			o.metrics["alloc_bytes_per_seed."+ec.name] += b / float64(len(progs))
		}
	}
	o.metrics["steps_per_seed"] = float64(steps) / float64(len(progs)*len(seeds))
	o.metrics["cfg_nodes"] = float64(nodes) / float64(len(progs))
	o.metrics["profiler.counters_per_block"] = float64(counters) / float64(blocks)
	o.traceOverhead(untraced, traced)
	return nil
}

// prepareReplica readies the traced replica of Profile: the Sarkar plans
// the tree config's pipeline built, path plans over them, and a bytecode
// compile of the program, whose wall milliseconds it returns.
func (tp *table1Program) prepareReplica() (float64, error) {
	p := tp.pipes[0]
	var err error
	if tp.plans, err = p.Plans(); err != nil {
		return 0, err
	}
	if tp.paths, err = pathprof.BuildPlansWith(p.An, tp.plans, pathprof.Options{}); err != nil {
		return 0, err
	}
	t0 := time.Now()
	tp.vmProg, err = vm.Compile(p.Res)
	return msSince(t0), err
}

// tracedProfile makes the calls Pipeline.Profile makes under config k with
// Workers = 1, timing the engine and the counter recovery apart.
func (tp *table1Program) tracedProfile(k int, seeds []uint64, l layerTimes) (profiler.ProgramProfile, error) {
	res := tp.pipes[0].Res
	acc := make(profiler.ProgramProfile)
	add := func(prof profiler.ProgramProfile) {
		for name, totals := range prof {
			if acc[name] == nil {
				acc[name] = totals
			} else {
				acc[name].Add(totals)
			}
		}
	}
	var err error
	single := func(layer string, run func(s uint64) (*interp.Result, error)) {
		for _, s := range seeds {
			var r *interp.Result
			if l.timed(layer, func() { r, err = run(s) }); err != nil {
				return
			}
			var prof profiler.ProgramProfile
			if l.timed("profiler.recover_ms", func() { prof, err = tp.plans.Profile(r) }); err != nil {
				return
			}
			add(prof)
		}
	}
	batch := func(execLayer, recoverLayer string, opts interp.Options, recov func(*interp.Result) (profiler.ProgramProfile, error)) {
		var recMs float64
		stats, berr := tp.vmProg.RunBatch(opts, seeds, 1, func(_ int, _ uint64, r *interp.Result, rerr error) bool {
			if rerr != nil {
				err = rerr
				return false
			}
			t0 := time.Now()
			prof, perr := recov(r)
			recMs += msSince(t0)
			if perr != nil {
				err = perr
				return false
			}
			add(prof)
			return false
		})
		if berr != nil {
			err = berr
		}
		l[execLayer] += float64(stats.ExecNanos) / 1e6
		l[recoverLayer] += recMs
	}
	switch table1Configs[k].name {
	case "tree":
		single("interp.run_ms", func(s uint64) (*interp.Result, error) {
			return interp.Run(res, interp.Options{Seed: s, Engine: interp.EngineTree})
		})
	case "vm":
		single("vm.run_ms", func(s uint64) (*interp.Result, error) { return tp.vmProg.Run(interp.Options{Seed: s}) })
	case "vm-batch":
		batch("vm.batch_exec_ms", "profiler.recover_ms", interp.Options{}, tp.plans.Profile)
	case "bl":
		batch("pathprof.exec_ms", "pathprof.recover_ms", interp.Options{PathSpec: tp.paths.Spec()}, tp.paths.Profile)
	}
	return acc, err
}

// allocPerSeed measures config k's engine heap allocation per seed,
// without counter recovery: one pass settles pools and arenas, then
// runtime.ReadMemStats brackets a second.
func (tp *table1Program) allocPerSeed(k int, seeds []uint64) (float64, error) {
	res := tp.pipes[0].Res
	sink := func(_ int, _ uint64, _ *interp.Result, _ error) bool { return false }
	pass := func() error {
		switch table1Configs[k].name {
		case "vm-batch":
			_, err := tp.vmProg.RunBatch(interp.Options{}, seeds, 1, sink)
			return err
		case "bl":
			_, err := tp.vmProg.RunBatch(interp.Options{PathSpec: tp.paths.Spec()}, seeds, 1, sink)
			return err
		}
		for _, s := range seeds {
			var err error
			if table1Configs[k].name == "vm" {
				_, err = tp.vmProg.Run(interp.Options{Seed: s})
			} else {
				_, err = interp.Run(res, interp.Options{Seed: s, Engine: interp.EngineTree})
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := pass()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(seeds)), err
}
