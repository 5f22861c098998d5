package pathprof

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/profiler"
	"repro/internal/progen"
	"repro/internal/vm"
)

// wideSrc is a loop whose body holds 13 independent diamonds, so the main
// program numbers more than interp.PathDenseLimit paths and keeps sparse
// counts, plus a dense callee that sometimes STOPs, leaving partials in
// both frames.
func wideSrc() string {
	var b strings.Builder
	b.WriteString("      PROGRAM WIDE\n      INTEGER I, A\n      A = 0\n      DO 10 I = 1, 40\n")
	for k := 0; k < 13; k++ {
		fmt.Fprintf(&b, "         IF (RAND() .LT. 0.5) A = A + %d\n", k+1)
	}
	b.WriteString("         CALL HALT(A)\n   10 CONTINUE\n      END\n\n")
	b.WriteString("      SUBROUTINE HALT(A)\n      INTEGER A\n      IF (RAND() .LT. 0.01) THEN\n         STOP\n      ENDIF\n      RETURN\n      END\n")
	return b.String()
}

// TestSeedSumMatchesPerSeedRecovery: SeedSum over a batch equals per-seed
// Plan.Recover summed in seed order, key for key and bit for bit, with
// dense and sparse path counts, STOP partials and Sarkar fallback
// procedures, on one lane and on four lanes that reuse their result
// storage between seeds.
func TestSeedSumMatchesPerSeedRecovery(t *testing.T) {
	type testCase struct {
		name string
		src  string
		opts Options
	}
	cases := []testCase{
		{"wide", wideSrc(), Options{}},
		// The main program overflows the cap and falls back; HALT stays
		// instrumented.
		{"wide/fallback", wideSrc(), Options{MaxPaths: 64}},
	}
	for s := uint64(1); s <= 4; s++ {
		cases = append(cases, testCase{fmt.Sprintf("stops/%d", s), progen.GenerateOpts(s, 24, 3, progen.Opts{Stops: true}), Options{}})
	}
	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	var sparse, dense, partials, fallbacks bool
	for _, tc := range cases {
		res, ap := build(t, tc.src)
		pl, err := BuildPlans(ap, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pl.ByProc {
			fallbacks = fallbacks || !p.Instrumented()
		}
		prog, err := vm.Compile(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{1, 4} {
			acc := pl.NewSeedSum(len(seeds))
			perSeed := make([]profiler.ProgramProfile, len(seeds))
			errs := make([]error, len(seeds))
			// kinds[idx] notes seed idx's storage: sparse, dense, partials.
			kinds := make([][3]bool, len(seeds))
			sink := func(idx int, _ uint64, run *interp.Result, err error) bool {
				if err != nil {
					errs[idx] = err
					return false
				}
				prof := make(profiler.ProgramProfile, len(pl.ByProc))
				for name, p := range pl.ByProc {
					if prof[name], err = p.Recover(run); err != nil {
						errs[idx] = err
						return false
					}
				}
				perSeed[idx] = prof
				for _, pc := range run.Paths {
					k := &kinds[idx]
					k[0] = k[0] || pc.Sparse != nil
					k[1] = k[1] || pc.Dense != nil
					k[2] = k[2] || len(pc.Partials) > 0
				}
				errs[idx] = acc.Add(idx, run)
				return false
			}
			opt := interp.Options{MaxSteps: 1_000_000, PathSpec: pl.Spec()}
			if _, err := interp.RunBatchOn(context.Background(), res, prog, opt, seeds, lanes, sink); err != nil {
				t.Fatal(err)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s lanes %d seed %d: %v", tc.name, lanes, seeds[i], err)
				}
				sparse = sparse || kinds[i][0]
				dense = dense || kinds[i][1]
				partials = partials || kinds[i][2]
			}
			want := make(profiler.ProgramProfile)
			for _, prof := range perSeed {
				for name, totals := range prof {
					if want[name] == nil {
						want[name] = make(freq.Totals)
					}
					want[name].Add(totals)
				}
			}
			got, err := acc.Profile()
			if err != nil {
				t.Fatalf("%s lanes %d: %v", tc.name, lanes, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s lanes %d: %d procedures, per-seed %d", tc.name, lanes, len(got), len(want))
			}
			for name, w := range want {
				g := got[name]
				if len(g) != len(w) {
					t.Fatalf("%s lanes %d %s: %d conditions, per-seed %d", tc.name, lanes, name, len(g), len(w))
				}
				for c, wv := range w {
					if gv, ok := g[c]; !ok || math.Float64bits(gv) != math.Float64bits(wv) {
						t.Fatalf("%s lanes %d %s: TOTAL%v = %v (present %v), per-seed %v", tc.name, lanes, name, c, gv, ok, wv)
					}
				}
			}
		}
	}
	if !sparse || !dense || !partials || !fallbacks {
		t.Fatalf("corpus misses a case: sparse %v, dense %v, partials %v, fallback %v", sparse, dense, partials, fallbacks)
	}
}
