package vm

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/lower"
	"repro/internal/pathprof"
	"repro/internal/progen"
	"repro/internal/simplecfd"
)

// benchProgram compiles a medium-sized generated program (80 statements,
// nesting depth 3), so pprof sessions on these benchmarks look at a
// typical generated instruction mix.
func benchProgram(b *testing.B) *Program {
	b.Helper()
	src := progen.Generate(7, 80, 3)
	prog, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		b.Fatal(err)
	}
	p, err := Compile(res)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkRun measures the one-shot path: one Run call per iteration, a
// fresh one-seed lane (Result and frame arena) each time.
func BenchmarkRun(b *testing.B) {
	p := benchProgram(b)
	m := cost.Optimized
	opt := interp.Options{Model: &m}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opt
		o.Seed = uint64(i) + 1
		res, err := p.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkRunBatch measures the batched path: one reusable lane state,
// arena frames and results recycled between seeds.
func BenchmarkRunBatch(b *testing.B) {
	p := benchProgram(b)
	m := cost.Optimized
	opt := interp.Options{Model: &m}
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := p.RunBatch(opt, seeds, 1, func(idx int, seed uint64, res *interp.Result, err error) bool {
			return false
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += stats.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkTable1VM runs the paper's Table 1 programs at the benchmark's
// table1-profile sizes, SIMPLE at 100×100 with 10 cycles and LOOPS at
// n = 100 repeated 128 times, through Program.Run: one fresh one-seed lane
// per iteration, allocations included. Mnode/s is CFG nodes executed per
// second. The plain sub-benchmarks run uninstrumented; the bl ones run
// the same programs under their Ball–Larus path profiling spec, the
// table1-profile "bl" configuration.
func BenchmarkTable1VM(b *testing.B) {
	for _, pr := range []struct{ name, src string }{
		{"SIMPLE", simplecfd.Source(100, 10)},
		{"LOOPS", livermore.Source(100, 128)},
	} {
		prog, err := lang.Parse(pr.src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			b.Fatal(err)
		}
		p, err := Compile(res)
		if err != nil {
			b.Fatal(err)
		}
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			b.Fatal(err)
		}
		bl, err := pathprof.BuildPlans(ap, pathprof.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			name string
			spec *interp.PathSpec
		}{{pr.name, nil}, {pr.name + "/bl", bl.Spec()}} {
			b.Run(cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				var steps int64
				for i := 0; i < b.N; i++ {
					run, err := p.Run(interp.Options{Seed: 1, PathSpec: cfg.spec})
					if err != nil {
						b.Fatal(err)
					}
					steps += run.Steps
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds()/1e6, "Mnode/s")
			})
		}
	}
}
