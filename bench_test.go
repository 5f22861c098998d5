// Benchmark harness: one benchmark per evaluation artifact of the paper
// (see DESIGN.md's per-experiment index). Each benchmark reports the
// simulated-machine quantities the paper's tables/figures contain as
// custom metrics (cycles, counters, increments), while the Go benchmark
// time measures this implementation's own analysis/simulation speed.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkTable1/LOOPS -benchtime=1x
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ecfg"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/interval"
	"repro/internal/livermore"
	"repro/internal/paperex"
	"repro/internal/profiler"
	"repro/internal/progen"
	"repro/internal/simplecfd"
	"repro/internal/vm"
)

// BenchmarkFigure1BuildCFG regenerates Figure 1 (the example's CFG).
func BenchmarkFigure1BuildCFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := experiments.Figure1()
		if g.NumNodes() != 6 {
			b.Fatal("bad CFG")
		}
	}
}

// BenchmarkFigure2BuildECFG regenerates Figure 2: interval analysis plus
// the ECFG transformation on the example.
func BenchmarkFigure2BuildECFG(b *testing.B) {
	g := paperex.CFG()
	for i := 0; i < b.N; i++ {
		iv, err := interval.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ecfg.Build(g, iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Pipeline regenerates Figure 3 end to end: run, profile,
// recover, estimate; reports the headline numbers as metrics.
func BenchmarkFigure3Pipeline(b *testing.B) {
	var last *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Est.Time, "TIME(START)")
	b.ReportMetric(last.Est.StdDev(), "STD_DEV(START)")
}

// BenchmarkTable1 regenerates every cell of Table 1. The sub-benchmark
// names follow the table layout: program / scheme / compiler-optimization
// setting; metrics report the simulated cycles of that cell.
func BenchmarkTable1(b *testing.B) {
	cfg1 := experiments.Table1Config{
		LoopsN: 100, LoopsReps: 1,
		SimpleN: 40, SimpleNCycles: 4,
		Seed: 1,
	}
	type variant struct {
		name string
		get  func(c *experiments.Table1Cell) float64
	}
	variants := []variant{
		{"Original", func(c *experiments.Table1Cell) float64 { return c.Original }},
		{"Smart", func(c *experiments.Table1Cell) float64 { return c.Smart }},
		{"Naive", func(c *experiments.Table1Cell) float64 { return c.Naive }},
	}
	models := map[string]string{"OptOn": "opt-on", "OptOff": "opt-off"}
	for _, prog := range []string{"LOOPS", "SIMPLE"} {
		prog := prog
		for _, v := range variants {
			v := v
			for disp, model := range models {
				model := model
				b.Run(prog+"/"+v.name+"/"+disp, func(b *testing.B) {
					var cell *experiments.Table1Cell
					for i := 0; i < b.N; i++ {
						r, err := experiments.Table1(cfg1)
						if err != nil {
							b.Fatal(err)
						}
						cell = r.Cell(prog, model)
					}
					b.ReportMetric(v.get(cell), "cycles")
					b.ReportMetric(100*(v.get(cell)-cell.Original)/cell.Original, "overhead_%")
				})
			}
		}
	}
}

// BenchmarkCounterPlacement measures the smart placement algorithm itself
// over all Livermore kernels, reporting total counters placed.
func BenchmarkCounterPlacement(b *testing.B) {
	p, err := core.Load(livermore.Source(100, 1))
	if err != nil {
		b.Fatal(err)
	}
	counters := 0
	for i := 0; i < b.N; i++ {
		counters = 0
		for _, a := range p.An.Procs {
			plan, err := profiler.PlanSmart(a)
			if err != nil {
				b.Fatal(err)
			}
			counters += plan.NumCounters()
		}
	}
	b.ReportMetric(float64(counters), "counters")
}

// BenchmarkCounterAblation reports, for each optimization level of Section
// 3, the dynamic counter operations over a LOOPS run — the ablation behind
// Table 1's smart-vs-naive gap.
func BenchmarkCounterAblation(b *testing.B) {
	p, err := core.Load(livermore.Source(100, 1))
	if err != nil {
		b.Fatal(err)
	}
	run, err := interp.Run(p.Res, interp.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	levels := []struct {
		name  string
		level profiler.Level
	}{
		{"Opt1_Conditions", profiler.LevelConditions},
		{"Opt2_Branches", profiler.LevelBranches},
		{"Opt3_DoHoist", profiler.LevelFull},
	}
	for _, lv := range levels {
		lv := lv
		b.Run(lv.name, func(b *testing.B) {
			var ops int64
			var counters int
			for i := 0; i < b.N; i++ {
				ops, counters = 0, 0
				for _, a := range p.An.Procs {
					plan, err := profiler.PlanLevel(a, lv.level)
					if err != nil {
						b.Fatal(err)
					}
					o := plan.MeasureOverhead(run, cost.Optimized)
					ops += o.Increments + o.TripAdds
					counters += plan.NumCounters()
				}
			}
			b.ReportMetric(float64(ops), "dyn_ops")
			b.ReportMetric(float64(counters), "counters")
		})
	}
	b.Run("Naive_Blocks", func(b *testing.B) {
		var ops int64
		var counters int
		for i := 0; i < b.N; i++ {
			ops, counters = 0, 0
			for _, a := range p.An.Procs {
				plan := profiler.PlanNaive(a)
				o := plan.MeasureOverhead(run, cost.Optimized)
				ops += o.Increments + o.TripAdds
				counters += plan.NumCounters()
			}
		}
		b.ReportMetric(float64(ops), "dyn_ops")
		b.ReportMetric(float64(counters), "counters")
	})
}

// BenchmarkEstimatePipeline measures the full estimation pipeline
// (Sections 4-5: frequency recovery + bottom-up TIME/VAR) on the LOOPS
// program, reporting the estimated totals.
func BenchmarkEstimatePipeline(b *testing.B) {
	p, err := core.Load(livermore.Source(100, 1))
	if err != nil {
		b.Fatal(err)
	}
	var est *core.ProgramEstimate
	for i := 0; i < b.N; i++ {
		est, err = p.Estimate(cost.Optimized, core.Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(est.Main.Time, "TIME_cycles")
	b.ReportMetric(est.Main.StdDev(), "STD_DEV_cycles")
}

// BenchmarkChunkScheduling regenerates the Section 5 application: a
// variable loop profiled, TIME/STD_DEV fed to Kruskal–Weiss, and the
// resulting chunk size simulated against fixed baselines.
func BenchmarkChunkScheduling(b *testing.B) {
	src := `      PROGRAM PARLOOP
      INTEGER I, K, N
      REAL X
      PARAMETER (N = 512)
      DO 10 I = 1, N
         X = RAND()
         IF (X .LT. 0.08) THEN
            DO 20 K = 1, 600
   20       CONTINUE
         ELSE
            DO 30 K = 1, 5
   30       CONTINUE
         ENDIF
   10 CONTINUE
      END
`
	p, err := core.Load(src)
	if err != nil {
		b.Fatal(err)
	}
	model := cost.Unit
	est, err := p.Estimate(model, core.Options{}, 1, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := p.An.Procs["PARLOOP"]
	var outer = a.Intervals.Headers()[0]
	for _, h := range a.Intervals.Headers() {
		if a.Intervals.Depth(h) == 1 {
			outer = h
		}
	}
	body := est.Procs["PARLOOP"].Node[outer]
	iters, err := chunk.MeasureIterations(p.Res, "PARLOOP", outer, model, interp.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const P = 16
	const overhead = 30.0
	params := chunk.Params{N: len(iters), P: P, Mu: body.Time, Sigma: body.StdDev, Overhead: overhead}
	var kw, naive, best float64
	var kStar int
	for i := 0; i < b.N; i++ {
		kStar = chunk.KruskalWeiss(params)
		kw = chunk.Simulate(iters, P, kStar, overhead)
		naive = chunk.Simulate(iters, P, len(iters)/P, overhead)
		_, bestR := chunk.Sweep(iters, P, overhead, chunk.DefaultKs(len(iters), P))
		best = bestR.Makespan
	}
	b.ReportMetric(float64(kStar), "k_star")
	b.ReportMetric(kw, "makespan_kw")
	b.ReportMetric(naive, "makespan_naiveNP")
	b.ReportMetric(best, "makespan_sweep_best")
}

// BenchmarkInterpreter measures raw tree-walker throughput and allocation
// on the two Table 1 programs at a reduced size.
func BenchmarkInterpreter(b *testing.B) {
	for _, pr := range []struct{ name, src string }{
		{"SIMPLE", simplecfd.Source(24, 2)},
		{"LOOPS", livermore.Source(24, 1)},
	} {
		b.Run(pr.name, func(b *testing.B) {
			p, err := core.Load(pr.src)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				run, err := interp.Run(p.Res, interp.Options{Seed: 1, Engine: interp.EngineTree})
				if err != nil {
					b.Fatal(err)
				}
				steps = run.Steps
			}
			b.ReportMetric(float64(steps), "steps/run")
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnode/s")
		})
	}
}

// BenchmarkAnalysisPipeline measures graph analysis (intervals, ECFG,
// CDG, FCDG) over every SIMPLE procedure.
func BenchmarkAnalysisPipeline(b *testing.B) {
	p, err := core.Load(simplecfd.Source(24, 2))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeProgram(p.Res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale measures the end-to-end pipeline (parse, lower, analyze,
// profile over 8 seeds, estimate) on generated programs of increasing
// size, once sequentially and once with the full worker pool. The
// nodes/sec metric is CFG nodes analyzed per second; comparing Workers1
// to WorkersMax at the same size shows the parallel speedup.
func BenchmarkScale(b *testing.B) {
	sizes := []struct {
		name        string
		size, depth int
	}{
		{"small", 20, 2},
		{"medium", 80, 3},
		{"large", 240, 4},
	}
	pools := []struct {
		name    string
		workers int
	}{
		{"Workers1", 1},
		{"WorkersMax", runtime.GOMAXPROCS(0)},
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, sz := range sizes {
		src := progen.Generate(7, sz.size, sz.depth)
		for _, pool := range pools {
			b.Run(sz.name+"/"+pool.name, func(b *testing.B) {
				var nodes int
				for i := 0; i < b.N; i++ {
					p, err := core.LoadWorkers(src, pool.workers)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.Estimate(cost.Optimized, core.Options{}, seeds...); err != nil {
						b.Fatal(err)
					}
					nodes = 0
					for _, a := range p.An.Procs {
						nodes += a.P.G.NumNodes()
					}
				}
				b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/sec")
			})
		}
	}
}

// BenchmarkInterp compares the two execution engines on each progen
// family. The VM sub-benchmarks compile once outside the timed loop
// (the compile-once/run-many contract); steps/sec is the interpretation
// throughput of the engine's step loop alone.
func BenchmarkInterp(b *testing.B) {
	families := []struct {
		name string
		opts progen.Opts
	}{
		{"branchy", progen.Opts{}},
		{"det-loop", progen.Opts{BranchFree: true, ConstLoops: true}},
		{"branch-free", progen.Opts{BranchFree: true}},
	}
	for _, fam := range families {
		src := progen.GenerateOpts(9, 40, 3, fam.opts)
		p, err := core.Load(src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := vm.Compile(p.Res)
		if err != nil {
			b.Fatal(err)
		}
		m := cost.Optimized
		run := func(b *testing.B, f func(o interp.Options) (*interp.Result, error)) {
			b.Helper()
			var steps int64
			for i := 0; i < b.N; i++ {
				mc := m
				r, err := f(interp.Options{Seed: uint64(i), Model: &mc})
				if err != nil {
					b.Fatal(err)
				}
				steps += r.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
		}
		b.Run(fam.name+"/tree", func(b *testing.B) {
			run(b, func(o interp.Options) (*interp.Result, error) {
				o.Engine = interp.EngineTree
				return interp.Run(p.Res, o)
			})
		})
		b.Run(fam.name+"/vm", func(b *testing.B) {
			run(b, prog.Run)
		})
	}
}
