package oracle

import (
	"errors"
	"testing"

	"repro/internal/progen"
)

// FuzzParsePipeline feeds arbitrary source text through the whole pipeline.
// The pipeline may reject the input (parse/lower/analyze error) or the run
// may diverge past MaxSteps — both are fine — but it must never panic, a
// program the front end accepts must compile to bytecode, and the core
// estimation invariants must hold on it.
func FuzzParsePipeline(f *testing.F) {
	f.Add("      PROGRAM T\n      X1 = 1.0\n      PRINT *, X1\n      END\n")
	f.Add("      PROGRAM T\n   10 IF (RAND() .LT. 0.5) GOTO 10\n      END\n")
	f.Add("      PROGRAM T\n      INTEGER I\n      DO 10 I = 5, 1\n      PRINT *, I\n   10 CONTINUE\n      END\n")
	f.Add(progen.Generate(1, 4, 2))
	f.Add("")
	f.Add("GARBAGE")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // keep individual executions cheap
		}
		c := &Case{Seed: 1, Size: 1, Depth: 1, ProfileSeeds: []uint64{1, 2}, MaxSteps: 200_000, Src: src}
		ctx, err := c.eval(src, baseModel)
		if err != nil {
			// Rejections must be classified pipeline errors, not ad-hoc ones.
			// A bytecode compile failure is not one: the front end accepted
			// the program. Nor are recover/estimate failures, which can only
			// follow a successful run.
			var pe *PipelineError
			if !errors.As(err, &pe) {
				t.Fatalf("pipeline failed outside a stage boundary: %v\n%s", err, src)
			}
			return
		}
		for _, name := range []string{"recovery-exact", "node-freq", "time-mean", "var-sane"} {
			invs, _ := selectInvariants([]string{name})
			if err := checkOne(invs[0], ctx); err != nil {
				t.Fatalf("invariant %s violated on accepted program: %v\n%s", name, err, src)
			}
		}
	})
}

// FuzzProgenOracle drives the generator knobs instead of raw text: every
// generated program must be accepted by the pipeline and satisfy the whole
// invariant registry.
func FuzzProgenOracle(f *testing.F) {
	f.Add(uint64(1), 4, 2, false)
	f.Add(uint64(7), 6, 3, true)
	f.Add(uint64(42), 1, 1, false)
	f.Fuzz(func(t *testing.T, seed uint64, size, depth int, branchFree bool) {
		size, depth = 1+int(uint(size)%6), 1+int(uint(depth)%3)
		kind := KindRandom
		if branchFree {
			kind = KindBranchFree
		}
		c := NewCase(seed, size, depth, kind, 2)
		c.MaxSteps = 1_000_000
		if err := c.Check(nil); err != nil {
			t.Fatalf("seed=%d size=%d depth=%d kind=%s: %v\n%s", seed, size, depth, kind, err, c.Src)
		}
	})
}
