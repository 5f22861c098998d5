package interp_test

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"

	// Link the bytecode engine into this test binary so the interp tests
	// exercise the VM dispatch path, the default engine (REPRO_ENGINE=tree
	// runs them on the tree-walker, CI's extra tier-1 leg).
	_ "repro/internal/vm"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want interp.Engine
		ok   bool
	}{
		{"", interp.EngineDefault, true},
		{"default", interp.EngineDefault, true},
		{"tree", interp.EngineTree, true},
		{"vm", interp.EngineVM, true},
		{"vm-batch", interp.EngineVMBatch, true},
		{"jit", 0, false},
	}
	for _, c := range cases {
		got, err := interp.ParseEngine(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseEngine(%q) succeeded, want error", c.in)
		}
	}
}

func TestEngineString(t *testing.T) {
	if interp.EngineTree.String() != "tree" || interp.EngineVM.String() != "vm" ||
		interp.EngineVMBatch.String() != "vm-batch" || interp.EngineDefault.String() != "default" {
		t.Errorf("unexpected engine names: %v %v %v %v",
			interp.EngineDefault, interp.EngineTree, interp.EngineVM, interp.EngineVMBatch)
	}
}

func TestEngineVMBased(t *testing.T) {
	if interp.EngineTree.VMBased() || interp.EngineDefault.VMBased() {
		t.Error("tree/default must not report VM-based")
	}
	if !interp.EngineVM.VMBased() || !interp.EngineVMBatch.VMBased() {
		t.Error("vm and vm-batch must report VM-based")
	}
}

func TestEffectiveEngineResolvesExplicit(t *testing.T) {
	if got := interp.EffectiveEngine(interp.EngineTree); got != interp.EngineTree {
		t.Errorf("EffectiveEngine(tree) = %v", got)
	}
	if got := interp.EffectiveEngine(interp.EngineVM); got != interp.EngineVM {
		t.Errorf("EffectiveEngine(vm) = %v", got)
	}
}

// TestEffectiveEngineDefault: EngineDefault resolves to the bytecode VM
// unless REPRO_ENGINE names another engine.
func TestEffectiveEngineDefault(t *testing.T) {
	want := interp.EngineVM
	if env, err := interp.ParseEngine(os.Getenv("REPRO_ENGINE")); err == nil && env != interp.EngineDefault {
		want = env
	}
	if got := interp.EffectiveEngine(interp.EngineDefault); got != want {
		t.Errorf("EffectiveEngine(default) = %v, want %v", got, want)
	}
}

// TestVMDispatchFromInterp runs the same program through interp.Run on
// both engines; with the vm package linked, Engine: EngineVM must route to
// the bytecode engine and still produce identical results.
func TestVMDispatchFromInterp(t *testing.T) {
	src := `      PROGRAM P
      INTEGER I, S
      S = 0
      DO 10 I = 1, 100
      S = S + I
   10 CONTINUE
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := interp.Run(res, interp.Options{Engine: interp.EngineTree})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineVMBatch} {
		vmr, err := interp.Run(res, interp.Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Steps != vmr.Steps || tree.Stopped != vmr.Stopped {
			t.Fatalf("engines disagree: tree steps %d, %v steps %d", tree.Steps, eng, vmr.Steps)
		}
	}
}

// TestRunBatchDispatch drives interp.RunBatch on every engine: every
// engine shards the batch across the requested lanes, and every sink
// observation must match per-seed interp.Run.
func TestRunBatchDispatch(t *testing.T) {
	src := `      PROGRAM P
      INTEGER I, S
      S = 0
      DO 10 I = 1, 50
      S = S + IRAND(9)
   10 CONTINUE
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	want := make([]*interp.Result, len(seeds))
	for i, s := range seeds {
		want[i], err = interp.Run(res, interp.Options{Seed: s, Engine: interp.EngineTree})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM, interp.EngineVMBatch} {
		// Lanes may call the sink concurrently.
		var calls atomic.Int64
		stats, err := interp.RunBatch(res, interp.Options{Engine: eng}, seeds, 3,
			func(idx int, seed uint64, r *interp.Result, rerr error) bool {
				if rerr != nil {
					t.Errorf("%v seed %d: %v", eng, seed, rerr)
					return false
				}
				if seed != seeds[idx] {
					t.Errorf("%v: idx %d got seed %d want %d", eng, idx, seed, seeds[idx])
				}
				if r.Steps != want[idx].Steps || r.Cost != want[idx].Cost {
					t.Errorf("%v seed %d: steps %d cost %v, want %d %v",
						eng, seed, r.Steps, r.Cost, want[idx].Steps, want[idx].Cost)
				}
				calls.Add(1)
				return false
			})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if int(calls.Load()) != len(seeds) || stats.Seeds != len(seeds) {
			t.Fatalf("%v: %d sink calls, stats.Seeds %d, want %d", eng, calls.Load(), stats.Seeds, len(seeds))
		}
		if stats.Lanes != 3 {
			t.Fatalf("%v: lanes = %d, want 3", eng, stats.Lanes)
		}
	}
}

// TestLocalArrayErrorDeterministic: locals are allocated in slot order, so
// a program with two oversized local arrays fails on the same one in every
// run on every engine — runtime errors are bit-identical across engines.
func TestLocalArrayErrorDeterministic(t *testing.T) {
	src := `      PROGRAM P
      REAL A(60000000), B(60000000)
      A(1) = 1.0
      B(1) = 2.0
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for range 50 {
		for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
			_, err := interp.Run(res, interp.Options{Engine: eng})
			if err == nil {
				t.Fatalf("%v: run succeeded, want an array-size error", eng)
			}
			if want == "" {
				want = err.Error()
			}
			if err.Error() != want {
				t.Fatalf("%v: error %q, want %q", eng, err, want)
			}
		}
	}
	if !strings.Contains(want, "array A too large") {
		t.Fatalf("error %q, want it to name A, the first local array in slot order", want)
	}
}

// TestArrayExtentOverflow: extent products that wrap int64 used to slip
// past the size cap (2**32 × 2**32 wraps to 0, 3037000500² to a negative
// count) and panic both engines on the first element access or in make.
// The product is now checked against interp.MaxArrayElems before each
// multiply, for local arrays and for reshaped array parameters alike, and
// both engines (the VM's batch runner too) report the same runtime error.
func TestArrayExtentOverflow(t *testing.T) {
	local := func(n string) string {
		return `      PROGRAM P
      INTEGER N
      PARAMETER (N = ` + n + `)
      REAL A(N, N)
      A(5,7) = 1.0
      END
`
	}
	cases := []struct{ name, src, want string }{
		{"2**32 squared", local("4294967296"), "array A too large (more than 50000000 elements)"},
		{"3037000500 squared", local("3037000500"), "array A too large (more than 50000000 elements)"},
		{"parameter reshape", `      PROGRAM P
      REAL B(4)
      CALL S(B)
      END
      SUBROUTINE S(A)
      INTEGER N
      PARAMETER (N = 2**32)
      REAL A(N, N)
      A(5,7) = 1.0
      END
`, "array parameter A needs more than 50000000 elements, argument has 4"},
		// Every extent is evaluated before any is checked, so an extent
		// that fails to evaluate wins over an earlier one that fails its
		// check, on every engine.
		{"local extent divides by zero", `      PROGRAM P
      CALL S(0)
      END
      SUBROUTINE S(M)
      INTEGER M
      REAL A(0, 5/M)
      A(1,1) = 1.0
      END
`, "integer division by zero"},
		{"parameter extent divides by zero", `      PROGRAM P
      REAL B(4)
      CALL S(B, 0)
      END
      SUBROUTINE S(A, M)
      INTEGER M, N
      PARAMETER (N = 2**32)
      REAL A(N, N, 5/M)
      A(5,7,1) = 1.0
      END
`, "integer division by zero"},
	}
	for _, tc := range cases {
		prog, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM, interp.EngineVMBatch} {
			errs := make([]error, 4)
			if eng == interp.EngineVMBatch {
				// Two lanes, so each failure happens on a lane goroutine,
				// where a panic would take the whole process down.
				_, err = interp.RunBatch(res, interp.Options{Engine: eng}, []uint64{1, 2, 3, 4}, 2,
					func(idx int, _ uint64, _ *interp.Result, err error) bool {
						errs[idx] = err
						return false
					})
				if err != nil {
					t.Fatalf("%s %v: %v", tc.name, eng, err)
				}
			} else {
				_, errs[0] = interp.Run(res, interp.Options{Engine: eng})
				errs = errs[:1]
			}
			for _, got := range errs {
				if got == nil || !strings.Contains(got.Error(), tc.want) {
					t.Fatalf("%s %v: error %v, want %q", tc.name, eng, got, tc.want)
				}
			}
		}
	}
}
