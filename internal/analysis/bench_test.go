package analysis

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/progen"
)

// BenchmarkAnalyzeProgram measures the middle end alone (interval, ECFG,
// CDG, FCDG and dataflow) on a generated program of the size the
// cold-large benchmark workload loads (progen size 240, depth 4: one
// procedure of ~1.9k CFG nodes), with one and with GOMAXPROCS pool
// workers. Run it with `make bench-analysis`.
func BenchmarkAnalyzeProgram(b *testing.B) {
	prog, err := lang.Parse(progen.Generate(7, 240, 4))
	if err != nil {
		b.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		b.Fatal(err)
	}
	nodes := 0
	for _, p := range res.Procs {
		nodes += p.G.NumNodes()
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("Workers"+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeProgramWorkers(res, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nodes), "cfg_nodes")
		})
	}
}
