package artifact

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/lower"
	"repro/internal/profiler"
	"repro/internal/simplecfd"
	"repro/internal/wire"
)

// BenchmarkCacheSections times each blob section both ways on the Table 1
// programs: "decode" reads every procedure's section payload back, the
// work a warm load does; "derive" recomputes the same product from the
// lowered program with one worker, the work a cold load does. A section
// earns its place in the blob only while decode is the faster of the two.
// Decoded Sarkar plans build their recovery schedule on first use, which
// decode does not include.
func BenchmarkCacheSections(b *testing.B) {
	progs := []struct{ name, src string }{
		{"LOOPS", livermore.Source(100, 1)},
		{"SIMPLE", simplecfd.Source(100, 10)},
	}
	for _, pg := range progs {
		prog, err := lang.Parse(pg.src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			b.Fatal(err)
		}
		an, err := analysis.AnalyzeProgramWorkers(res, 1)
		if err != nil {
			b.Fatal(err)
		}
		plans, err := profiler.BuildPlans(an)
		if err != nil {
			b.Fatal(err)
		}
		anSec := make(map[string][]byte, len(an.Procs))
		planSec := make(map[string][]byte, len(an.Procs))
		for name, a := range an.Procs {
			var w wire.Writer
			encodeAnalysis(&w, a)
			anSec[name] = w.Bytes()
			w = wire.Writer{}
			plans[name].Encode(&w)
			planSec[name] = w.Bytes()
		}

		b.Run(pg.name+"/analysis/derive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analysis.AnalyzeProgramWorkers(res, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(pg.name+"/analysis/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for name, p := range res.Procs {
					r := wire.NewReader(anSec[name])
					if decodeAnalysis(r, p) == nil {
						b.Fatalf("%s: %v", name, r.Err())
					}
				}
			}
		})
		b.Run(pg.name+"/sarkar/derive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := profiler.BuildPlans(an); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(pg.name+"/sarkar/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for name, a := range an.Procs {
					r := wire.NewReader(planSec[name])
					if profiler.DecodePlan(r, a); r.Err() != nil {
						b.Fatalf("%s: %v", name, r.Err())
					}
				}
			}
		})
	}
}
