package profiler

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/lang"
	"repro/internal/lower"
)

// BenchmarkPlan times the counter planner alone: PlanFlow over every
// procedure of the first 20 cold-large programs, with parsing, lowering
// and analysis done before the timer starts.
func BenchmarkPlan(b *testing.B) {
	var procs []*analysis.Proc
	for _, src := range corpus.ColdLarge(20) {
		prog, err := lang.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			b.Fatal(err)
		}
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range ap.Procs {
			procs = append(procs, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range procs {
			if _, err := PlanFlow(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}
