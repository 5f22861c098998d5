package vm

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/progen"
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
