// Package corpus is the fixed program corpus the byte-for-byte digest
// goldens cover: the shipped examples plus a progen corpus mixing sizes,
// nesting depths, the ConstFacts gadget family and the Stops family. The
// plan digests (internal/profiler) and the analysis digests
// (internal/analysis) both hash every procedure of it, so a change that
// moves either shows on the same programs.
package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/progen"
)

// Seeds is the size of the generated part of the corpus.
const Seeds = 216

// sizes are the progen sizes the generated part cycles through.
var sizes = []int{3, 8, 16, 32, 64, 128}

// Digest returns the corpus as name → source. Example sources are named
// "examples/<file>", generated ones "progen/<seed>".
func Digest(tb testing.TB) map[string]string {
	tb.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		tb.Fatal("corpus: cannot locate the repository root")
	}
	files, err := filepath.Glob(filepath.Join(filepath.Dir(self), "..", "..", "examples", "*.f"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no example sources: %v", err)
	}
	srcs := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		srcs["examples/"+filepath.Base(f)] = string(b)
	}
	for i := 1; i <= Seeds; i++ {
		o := progen.Opts{ConstFacts: i%3 == 2, Stops: i%4 == 1}
		size := sizes[(i*7)%len(sizes)]
		depth := 2 + i%3
		srcs[fmt.Sprintf("progen/%d", i)] = progen.GenerateOpts(uint64(i), size, depth, o)
	}
	return srcs
}

// ColdLarge returns the first n programs of the cold-large benchmark
// corpus (bench/cold.go): progen size 240, depth 4, program j generated
// from seed coldSeed(j). The front-end digests and BenchmarkFrontEnd use
// them, so the front end is pinned and timed on what the benchmark loads.
func ColdLarge(n int) []string {
	srcs := make([]string, n)
	for j := range srcs {
		srcs[j] = progen.Generate(coldSeed(j), 240, 4)
	}
	return srcs
}

// coldSeed is bench/stats.go's mix(0, streamColdProgram, j): a splitmix64
// finalizer over the program index in stream 1.
func coldSeed(j int) uint64 {
	z := uint64(1)<<40 + uint64(j) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
