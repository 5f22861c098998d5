package vm

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/pathprof"
	"repro/internal/progen"
)

// TestPathStubs pins the shape of Ball–Larus instrumentation in the VM:
// Compile emits no edge stub, a run with no PathSpec (or one whose every
// procedure fell back to Sarkar counters) executes the plain procedures
// themselves, and an instrumented procedure carries exactly one stub per
// edge with a nonzero increment or a bump, fused or not.
func TestPathStubs(t *testing.T) {
	for _, seed := range []uint64{3, 8, 11, 23} {
		src := progen.GenerateOpts(seed, 8, 3, progen.Opts{Stops: seed%2 == 1})
		res := lowerSrc(t, src)
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := pathprof.BuildPlans(ap, pathprof.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fallback, err := pathprof.BuildPlans(ap, pathprof.Options{MaxPaths: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(fallback.Spec().Procs) != 0 {
			t.Fatalf("seed %d: MaxPaths 1 still instruments %d procedures", seed, len(fallback.Spec().Procs))
		}
		for _, opt := range []CompileOptions{{}, {NoFuse: true}} {
			p, err := CompileOpts(res, opt)
			if err != nil {
				t.Fatal(err)
			}
			if n := countOps(p, opPathEdge); n != 0 {
				t.Fatalf("seed %d: Compile emitted %d path stubs", seed, n)
			}
			for _, spec := range []*interp.PathSpec{nil, fallback.Spec()} {
				ls := newLaneState(p, interp.Options{PathSpec: spec})
				if len(ls.rs.procs) != len(p.procs) || &ls.rs.procs[0] != &p.procs[0] {
					t.Fatalf("seed %d: uninstrumented run does not execute the plain procedures", seed)
				}
			}

			ls := newLaneState(p, interp.Options{PathSpec: bl.Spec()})
			instrumented := 0
			for i, pc := range ls.rs.procs {
				ps := bl.Spec().Procs[pc.name]
				if ps == nil {
					if pc != p.procs[i] {
						t.Fatalf("seed %d: uninstrumented %s was recompiled", seed, pc.name)
					}
					continue
				}
				instrumented++
				if pc.path == nil || pc == p.procs[i] {
					t.Fatalf("seed %d: %s runs without its stubs", seed, pc.name)
				}
				want := map[int32]bool{}
				for flat := range pc.path.inc {
					if pc.path.inc[flat] != 0 || pc.path.bump[flat] {
						want[int32(flat)] = true
					}
				}
				got := map[int32]int{}
				for _, in := range pc.ins {
					if in.op == opPathEdge {
						got[in.b]++
					}
				}
				for flat := range want {
					if got[flat] != 1 {
						t.Errorf("seed %d: %s: edge %d has %d stubs, want 1", seed, pc.name, flat, got[flat])
					}
				}
				for flat := range got {
					if !want[flat] {
						t.Errorf("seed %d: %s: stub for edge %d, whose increment is 0 and which bumps nothing", seed, pc.name, flat)
					}
				}
			}
			if instrumented == 0 {
				t.Fatalf("seed %d: no procedure instrumented", seed)
			}
		}
	}
}

// TestFuseKeepsStubTargets: fuse treats an edge stub as a jump, so the
// instruction a stub lands on is never folded into a superinstruction,
// and the stub is remapped onto it. Compiled code only ever points stubs
// at node leaders, which no fusion consumes, so this pins the rule on a
// hand-built stream where the target would otherwise be eaten.
func TestFuseKeepsStubTargets(t *testing.T) {
	pc := &procCode{ins: []instr{
		{op: opNode, a: 1},
		{op: opLocal, a: 0},
		{op: opConst, a: 0},
		{op: opBin, a: int32(lang.OpAdd)}, // the stub's target
		{op: opEnd},
		{op: opPathEdge, a: 3},
	}}
	pc.fuse()
	stub := pc.ins[len(pc.ins)-1]
	if stub.op != opPathEdge {
		t.Fatalf("last instruction is %d, want the stub", stub.op)
	}
	if got := pc.ins[stub.a].op; got != opBin {
		t.Fatalf("stub lands on opcode %d, want the unfused opBin %d", got, opBin)
	}
}

// TestPathBatchLanes runs instrumented batches on several lanes of a
// freshly compiled program, so the lanes build and share its instrumented
// procedure set concurrently, and requires every seed's counters, path
// counts and partials to match the tree-walker's.
func TestPathBatchLanes(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{3, 8, 23} {
		src := progen.GenerateOpts(seed, 8, 3, progen.Opts{Stops: true})
		res := lowerSrc(t, src)
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := pathprof.BuildPlans(ap, pathprof.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(res)
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]uint64, 12)
		for k := range seeds {
			seeds[k] = seed*101 + uint64(k)
		}
		opt := interp.Options{MaxSteps: 1_000_000, PathSpec: bl.Spec()}
		got, errs := batchAll(t, prog.RunBatch, opt, seeds, 4)
		for k, s := range seeds {
			o := opt
			o.Seed, o.Engine = s, interp.EngineTree
			want, werr := interp.Run(res, o)
			if (werr == nil) != (errs[k] == nil) || (werr != nil && werr.Error() != errs[k].Error()) {
				t.Fatalf("seed %d run %d: err tree=%v vm=%v", seed, s, werr, errs[k])
			}
			if werr != nil {
				continue
			}
			if d := diffResults(want, got[k]) + diffPaths(want, got[k]); d != "" {
				t.Fatalf("seed %d run %d: %s", seed, s, d)
			}
		}
	}
}
