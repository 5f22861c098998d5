package interp_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"

	// Link the bytecode engine into this test binary so the internal
	// interp tests exercise the VM dispatch path when REPRO_ENGINE=vm is
	// set (the tier-1 VM leg in CI).
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
