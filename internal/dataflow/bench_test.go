package dataflow

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/progen"
)

// benchFacts keeps the benchmarked result live.
var benchFacts *Facts

// BenchmarkDataflow measures Analyze alone on a cold-large-sized program
// (progen 7/240/4: one procedure of ~1.9k CFG nodes). Run it with
// `make bench-analysis`.
func BenchmarkDataflow(b *testing.B) {
	prog, err := lang.Parse(progen.Generate(7, 240, 4))
	if err != nil {
		b.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range res.Procs {
			benchFacts = Analyze(p)
		}
	}
	b.ReportMetric(float64(res.Main.G.NumNodes()), "cfg_nodes")
}
