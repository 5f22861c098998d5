package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/lower"
	"repro/internal/progen"
	"repro/internal/simplecfd"
)

func lowerSrc(t *testing.T, src string) *lower.Result {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	return res
}

// diffResults returns a description of the first difference between two
// interp.Results, or "" when they are bit-identical.
func diffResults(tree, vm *interp.Result) string {
	if tree.Steps != vm.Steps {
		return fmt.Sprintf("Steps: tree %d vm %d", tree.Steps, vm.Steps)
	}
	if tree.Cost != vm.Cost {
		return fmt.Sprintf("Cost: tree %v vm %v", tree.Cost, vm.Cost)
	}
	if tree.Stopped != vm.Stopped {
		return fmt.Sprintf("Stopped: tree %v vm %v", tree.Stopped, vm.Stopped)
	}
	if len(tree.ByProc) != len(vm.ByProc) {
		return fmt.Sprintf("ByProc size: tree %d vm %d", len(tree.ByProc), len(vm.ByProc))
	}
	for name, tc := range tree.ByProc {
		vc := vm.ByProc[name]
		if vc == nil {
			return fmt.Sprintf("proc %s missing from vm result", name)
		}
		if tc.Activations != vc.Activations {
			return fmt.Sprintf("%s Activations: tree %d vm %d", name, tc.Activations, vc.Activations)
		}
		if len(tc.Node) != len(vc.Node) {
			return fmt.Sprintf("%s Node len: tree %d vm %d", name, len(tc.Node), len(vc.Node))
		}
		for id := range tc.Node {
			if tc.Node[id] != vc.Node[id] {
				return fmt.Sprintf("%s Node[%d]: tree %d vm %d", name, id, tc.Node[id], vc.Node[id])
			}
		}
		for id := range tc.Edge {
			if len(tc.Edge[id]) != len(vc.Edge[id]) {
				return fmt.Sprintf("%s Edge[%d] len: tree %d vm %d", name, id, len(tc.Edge[id]), len(vc.Edge[id]))
			}
			for k := range tc.Edge[id] {
				if tc.Edge[id][k] != vc.Edge[id][k] {
					return fmt.Sprintf("%s Edge[%d][%d]: tree %d vm %d", name, id, k, tc.Edge[id][k], vc.Edge[id][k])
				}
			}
		}
	}
	return ""
}

func runBoth(t *testing.T, src string, opt interp.Options) (*interp.Result, error, *interp.Result, error) {
	t.Helper()
	res := lowerSrc(t, src)
	topt := opt
	topt.Engine = interp.EngineTree
	tr, terr := interp.Run(res, topt)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	vr, verr := prog.Run(opt)
	return tr, terr, vr, verr
}

// TestDifferentialProgen runs generated programs of every family on both
// engines and requires bit-identical results, PRINT output included.
func TestDifferentialProgen(t *testing.T) {
	t.Parallel()
	families := []struct {
		name string
		opts progen.Opts
	}{
		{"branchy", progen.Opts{}},
		{"branch-free", progen.Opts{BranchFree: true}},
		{"det-loop", progen.Opts{BranchFree: true, ConstLoops: true}},
	}
	model := cost.Optimized
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 80; seed++ {
				src := progen.GenerateOpts(seed, 2+int(seed%10), 1+int(seed%4), fam.opts)
				res := lowerSrc(t, src)
				prog, err := Compile(res)
				if err != nil {
					t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
				}
				for _, runSeed := range []uint64{seed, seed * 77} {
					var tout, vout bytes.Buffer
					m := model
					topt := interp.Options{Seed: runSeed, MaxSteps: 5_000_000, Model: &m, Out: &tout, Engine: interp.EngineTree}
					tr, terr := interp.Run(res, topt)
					vopt := topt
					vopt.Out = &vout
					vopt.Engine = interp.EngineVM
					vr, verr := prog.Run(vopt)
					if (terr == nil) != (verr == nil) || (terr != nil && terr.Error() != verr.Error()) {
						t.Fatalf("seed %d run %d: err tree=%v vm=%v\n%s", seed, runSeed, terr, verr, src)
					}
					if terr != nil {
						continue
					}
					if d := diffResults(tr, vr); d != "" {
						t.Fatalf("seed %d run %d: %s\n%s", seed, runSeed, d, src)
					}
					if tout.String() != vout.String() {
						t.Fatalf("seed %d run %d: PRINT output differs\ntree: %q\nvm:   %q\n%s",
							seed, runSeed, tout.String(), vout.String(), src)
					}
				}
			}
		})
	}
}

// TestErrorParity checks the engines produce the same runtime errors,
// message for message, and that each case reaches the error it names.
func TestErrorParity(t *testing.T) {
	t.Parallel()
	cases := []struct{ src, want string }{
		{"      PROGRAM P\n      INTEGER I\n      I = 0\n      I = 7 / I\n      END\n",
			"integer division by zero"},
		{"      PROGRAM P\n      INTEGER I, J\n      DO 10 I = 1, 100000000\n      J = J + 1\n   10 CONTINUE\n      END\n",
			"step limit exceeded"},
		{"      PROGRAM P\n      REAL X\n      X = -4.0\n      X = SQRT(X)\n      END\n",
			"SQRT of negative value"},
		{"      PROGRAM P\n      INTEGER A(5), I\n      I = 9\n      A(I) = 1\n      END\n",
			"subscript 9 out of bounds"},
		{"      PROGRAM P\n      INTEGER I\n      I = 0\n      I = MOD(4, I)\n      END\n",
			"MOD by zero"},
		{"      PROGRAM P\n      REAL X, Y\n      X = 1.5\n      Y = 0.0\n      X = X / Y\n      END\n",
			"division by zero"},
		{"      PROGRAM P\n      INTEGER I\n      REAL X\n      I = 0\n      X = 2.5 / I\n      END\n",
			"division by zero"},
		{"      PROGRAM P\n      REAL X\n      X = 0.0\n      X = LOG(X)\n      END\n",
			"LOG of non-positive value"},
		{"      PROGRAM P\n      INTEGER I\n      I = 0\n      I = IRAND(I)\n      END\n",
			"IRAND needs a positive bound"},
		{"      PROGRAM P\n      INTEGER I, J, K\n      J = 0\n      DO 10 I = 1, 5, J\n      K = K + 1\n   10 CONTINUE\n      END\n",
			"DO step is zero"},
	}
	for i, c := range cases {
		_, terr, _, verr := runBoth(t, c.src, interp.Options{MaxSteps: 10000})
		if terr == nil || verr == nil {
			t.Fatalf("case %d: expected errors, tree=%v vm=%v", i, terr, verr)
		}
		if terr.Error() != verr.Error() {
			t.Fatalf("case %d: tree err %q vm err %q", i, terr, verr)
		}
		if !strings.Contains(terr.Error(), "in P ") || !strings.Contains(terr.Error(), c.want) {
			t.Errorf("case %d: err %q, want %q reported in unit P", i, terr, c.want)
		}
	}
}

// TestSubroutineParity exercises by-reference arguments, array passing and
// recursion depth handling across the call boundary.
func TestSubroutineParity(t *testing.T) {
	t.Parallel()
	src := `      PROGRAM P
      INTEGER A(10), I, S
      DO 10 I = 1, 10
      A(I) = I * I
   10 CONTINUE
      S = 0
      CALL SUM(A, 10, S)
      PRINT *, S
      END
      SUBROUTINE SUM(V, N, ACC)
      INTEGER V(N), N, ACC, J
      ACC = 0
      DO 20 J = 1, N
      ACC = ACC + V(J)
   20 CONTINUE
      END
`
	var tout, vout bytes.Buffer
	res := lowerSrc(t, src)
	m := cost.Optimized
	tr, terr := interp.Run(res, interp.Options{Model: &m, Out: &tout, Engine: interp.EngineTree})
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vr, verr := prog.Run(interp.Options{Model: &m, Out: &vout})
	if terr != nil || verr != nil {
		t.Fatalf("tree err %v, vm err %v", terr, verr)
	}
	if d := diffResults(tr, vr); d != "" {
		t.Fatal(d)
	}
	if tout.String() != vout.String() {
		t.Fatalf("output differs: tree %q vm %q", tout.String(), vout.String())
	}
	if tout.String() != " 385\n" && tout.String() == "" {
		t.Fatalf("unexpected output %q", tout.String())
	}
}

// TestEngineDispatch checks interp.Run routes to the VM when asked and
// that results still match the tree engine.
func TestEngineDispatch(t *testing.T) {
	t.Parallel()
	src := progen.Generate(11, 8, 3)
	res := lowerSrc(t, src)
	m := cost.Optimized
	tr, terr := interp.Run(res, interp.Options{Seed: 3, Model: &m, Engine: interp.EngineTree})
	vr, verr := interp.Run(res, interp.Options{Seed: 3, Model: &m, Engine: interp.EngineVM})
	if terr != nil || verr != nil {
		t.Fatalf("tree err %v, vm err %v", terr, verr)
	}
	if d := diffResults(tr, vr); d != "" {
		t.Fatal(d)
	}
}

// TestCompileReuse ensures one compiled Program yields independent,
// reproducible results across many seeds (compile-once/run-many contract).
func TestCompileReuse(t *testing.T) {
	t.Parallel()
	src := progen.Generate(5, 10, 3)
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := cost.Optimized
	first := make(map[uint64]*interp.Result)
	for round := 0; round < 2; round++ {
		for seed := uint64(0); seed < 8; seed++ {
			mc := m
			r, err := prog.Run(interp.Options{Seed: seed, Model: &mc, MaxSteps: 2_000_000})
			if err != nil {
				t.Fatalf("round %d seed %d: %v", round, seed, err)
			}
			if round == 0 {
				first[seed] = r
			} else if d := diffResults(first[seed], r); d != "" {
				t.Fatalf("seed %d not reproducible: %s", seed, d)
			}
		}
	}
}

// batchFunc is one batch runner under test: the compiled VM's
// Program.RunBatch, or interp.RunBatch on the tree-walker.
type batchFunc func(opt interp.Options, seeds []uint64, lanes int, sink interp.BatchSink) (interp.BatchStats, error)

// batchRunners returns the engines the lane-count differentials shard:
// the compiled VM program and the tree-walker.
func batchRunners(res *lower.Result, prog *Program) map[string]batchFunc {
	return map[string]batchFunc{
		"vm": prog.RunBatch,
		"tree": func(opt interp.Options, seeds []uint64, lanes int, sink interp.BatchSink) (interp.BatchStats, error) {
			opt.Engine = interp.EngineTree
			return interp.RunBatch(res, opt, seeds, lanes, sink)
		},
	}
}

// batchAll runs a whole seed batch with a retaining sink and returns the
// per-seed results and errors, indexed like seeds.
func batchAll(t *testing.T, run batchFunc, opt interp.Options, seeds []uint64, lanes int) ([]*interp.Result, []error) {
	t.Helper()
	results := make([]*interp.Result, len(seeds))
	errs := make([]error, len(seeds))
	stats, err := run(opt, seeds, lanes, func(idx int, seed uint64, res *interp.Result, err error) bool {
		if seeds[idx] != seed {
			t.Errorf("sink idx %d: seed %d, want %d", idx, seed, seeds[idx])
		}
		results[idx] = res
		errs[idx] = err
		return true
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if stats.Seeds != len(seeds) {
		t.Fatalf("stats.Seeds = %d, want %d", stats.Seeds, len(seeds))
	}
	return results, errs
}

// TestDifferentialBatch is the third axis of the differential suite: the
// same programs and seeds through per-seed tree runs and through the
// sharded batch loop on the VM and on the tree-walker at lane counts 1, 3
// and 16, all required bit-identical.
func TestDifferentialBatch(t *testing.T) {
	t.Parallel()
	families := []struct {
		name string
		opts progen.Opts
	}{
		{"branchy", progen.Opts{}},
		{"branch-free", progen.Opts{BranchFree: true}},
		{"det-loop", progen.Opts{BranchFree: true, ConstLoops: true}},
	}
	model := cost.Optimized
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 20; seed++ {
				src := progen.GenerateOpts(seed, 2+int(seed%10), 1+int(seed%4), fam.opts)
				res := lowerSrc(t, src)
				prog, err := Compile(res)
				if err != nil {
					t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
				}
				runSeeds := make([]uint64, 16)
				for k := range runSeeds {
					runSeeds[k] = seed*77 + uint64(k)*13
				}
				m := model
				opt := interp.Options{MaxSteps: 5_000_000, Model: &m}
				// Reference: tree-walker, one run per seed.
				want := make([]*interp.Result, len(runSeeds))
				wantErr := make([]error, len(runSeeds))
				for k, rs := range runSeeds {
					o := opt
					o.Seed = rs
					o.Engine = interp.EngineTree
					want[k], wantErr[k] = interp.Run(res, o)
				}
				for eng, run := range batchRunners(res, prog) {
					for _, lanes := range []int{1, 3, 16} {
						got, errs := batchAll(t, run, opt, runSeeds, lanes)
						for k := range runSeeds {
							if (wantErr[k] == nil) != (errs[k] == nil) ||
								(wantErr[k] != nil && wantErr[k].Error() != errs[k].Error()) {
								t.Fatalf("seed %d %s lanes %d run %d: err tree=%v batch=%v\n%s",
									seed, eng, lanes, runSeeds[k], wantErr[k], errs[k], src)
							}
							if wantErr[k] != nil {
								continue
							}
							if d := diffResults(want[k], got[k]); d != "" {
								t.Fatalf("seed %d %s lanes %d run %d: %s\n%s", seed, eng, lanes, runSeeds[k], d, src)
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchErrorMidBatch builds a batch where some seeds hit a runtime
// error: error seeds must report the tree-walker's exact error through the
// sink, the batch must keep going, and later seeds on the same lane must be
// unaffected by the mid-batch unwinding — on the VM and on the tree-walker,
// at every lane count.
func TestBatchErrorMidBatch(t *testing.T) {
	t.Parallel()
	// IRAND(3) draws 1, 2 or 3 per seed; the division errors exactly when
	// it draws 1, so the batch mixes failing and succeeding seeds.
	src := `      PROGRAM P
      INTEGER I, J, K, S
      S = 0
      DO 10 K = 1, 4
      I = IRAND(3)
      J = 6 / (I - 1)
      S = S + J
   10 CONTINUE
      PRINT *, S
      END
`
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	m := cost.Optimized
	opt := interp.Options{MaxSteps: 100000, Model: &m}
	want := make([]*interp.Result, len(seeds))
	wantErr := make([]error, len(seeds))
	failing := 0
	for i, s := range seeds {
		o := opt
		o.Seed = s
		o.Engine = interp.EngineTree
		want[i], wantErr[i] = interp.Run(res, o)
		if wantErr[i] != nil {
			failing++
		}
	}
	if failing == 0 || failing == len(seeds) {
		t.Fatalf("bad corpus: %d/%d failing seeds, need a mix", failing, len(seeds))
	}
	for eng, run := range batchRunners(res, prog) {
		for _, lanes := range []int{1, 3, 16} {
			got, errs := batchAll(t, run, opt, seeds, lanes)
			for i := range seeds {
				if (wantErr[i] == nil) != (errs[i] == nil) ||
					(wantErr[i] != nil && wantErr[i].Error() != errs[i].Error()) {
					t.Fatalf("%s lanes %d seed %d: err tree=%v batch=%v", eng, lanes, seeds[i], wantErr[i], errs[i])
				}
				if wantErr[i] != nil {
					continue
				}
				if d := diffResults(want[i], got[i]); d != "" {
					t.Fatalf("%s lanes %d seed %d: %s", eng, lanes, seeds[i], d)
				}
			}
		}
	}
}

// TestBatchPrintOrdering checks that a batch carrying an output writer is
// forced onto one lane and produces exactly the sequential per-seed output.
func TestBatchPrintOrdering(t *testing.T) {
	t.Parallel()
	src := `      PROGRAM P
      INTEGER I
      I = IRAND(100)
      PRINT *, 'SEED DREW', I
      END
`
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	seeds := []uint64{5, 9, 2, 14, 3, 3, 11}
	var want bytes.Buffer
	for _, s := range seeds {
		if _, err := interp.Run(res, interp.Options{Seed: s, Out: &want, Engine: interp.EngineTree}); err != nil {
			t.Fatalf("tree seed %d: %v", s, err)
		}
	}
	var got bytes.Buffer
	stats, err := prog.RunBatch(interp.Options{Out: &got}, seeds, 16, nil)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if stats.Lanes != 1 {
		t.Fatalf("Out set: lanes = %d, want 1", stats.Lanes)
	}
	if got.String() != want.String() {
		t.Fatalf("batch output differs\nbatch: %q\ntree:  %q", got.String(), want.String())
	}
}

// TestBatchArenaReuse drives one lane directly through seeds with different
// behaviors and re-runs the first seed last: identical results prove the
// arena hands back fully zeroed frames (locals re-seeded, trips cleared,
// refs/arrays dropped) between seeds.
func TestBatchArenaReuse(t *testing.T) {
	t.Parallel()
	src := progen.Generate(7, 12, 3)
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := cost.Optimized
	ls := newLaneState(prog, interp.Options{MaxSteps: 2_000_000, Model: &m})
	first, err := ls.RunSeed(3)
	if err != nil {
		t.Fatalf("seed 3: %v", err)
	}
	snap := cloneResult(first)
	for _, s := range []uint64{8, 1, 99} {
		if _, err := ls.RunSeed(s); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
	again, err := ls.RunSeed(3)
	if err != nil {
		t.Fatalf("seed 3 again: %v", err)
	}
	if d := diffResults(snap, again); d != "" {
		t.Fatalf("lane state leaked across seeds: %s", d)
	}
	// The lane reuses its result storage between seeds unless retained.
	if first != again {
		t.Fatal("lane rebuilt result storage without a retain")
	}
}

// cloneResult deep-copies a Result so it survives lane storage reuse.
func cloneResult(r *interp.Result) *interp.Result {
	out := &interp.Result{Steps: r.Steps, Cost: r.Cost, Stopped: r.Stopped,
		ByProc: make(map[string]*interp.Counts, len(r.ByProc))}
	for name, ct := range r.ByProc {
		cc := &interp.Counts{
			Node:        append([]int64(nil), ct.Node...),
			Edge:        make([][]int64, len(ct.Edge)),
			Activations: ct.Activations,
		}
		for i := range ct.Edge {
			cc.Edge[i] = append([]int64(nil), ct.Edge[i]...)
		}
		out.ByProc[name] = cc
	}
	return out
}

// TestBatchRetain checks the ownership contract: a retained Result must
// stay intact while the lane keeps running, and an unretained one is
// recycled storage.
func TestBatchRetain(t *testing.T) {
	t.Parallel()
	src := progen.Generate(13, 10, 2)
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := cost.Optimized
	opt := interp.Options{MaxSteps: 2_000_000, Model: &m}
	seeds := []uint64{4, 7, 19, 23, 42}
	retained := make([]*interp.Result, len(seeds))
	if _, err := prog.RunBatch(opt, seeds, 1, func(idx int, seed uint64, r *interp.Result, err error) bool {
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		retained[idx] = r
		return true
	}); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, s := range seeds {
		for j := i + 1; j < len(seeds); j++ {
			if retained[i] == retained[j] {
				t.Fatalf("retained results for seeds %d and %d alias", s, seeds[j])
			}
		}
		single, err := prog.Run(interp.Options{Seed: s, MaxSteps: 2_000_000, Model: &m})
		if err != nil {
			t.Fatalf("single seed %d: %v", s, err)
		}
		if d := diffResults(single, retained[i]); d != "" {
			t.Fatalf("seed %d: retained result corrupted: %s", s, d)
		}
	}
}

// TestFusionDifferential compiles the same programs with and without the
// superinstruction pass and requires bit-identical results, while checking
// the pass actually fires on loopy programs.
func TestFusionDifferential(t *testing.T) {
	t.Parallel()
	m := cost.Optimized
	anyFused := false
	for seed := uint64(1); seed <= 40; seed++ {
		src := progen.GenerateOpts(seed, 4+int(seed%8), 1+int(seed%3), progen.Opts{ConstLoops: seed%2 == 0})
		res := lowerSrc(t, src)
		fusedProg, err := Compile(res)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		plainProg, err := CompileOpts(res, CompileOptions{NoFuse: true})
		if err != nil {
			t.Fatalf("seed %d: compile nofuse: %v", seed, err)
		}
		if plainProg.FusedInstructions() != 0 {
			t.Fatalf("seed %d: NoFuse program reports %d fused instructions", seed, plainProg.FusedInstructions())
		}
		if fusedProg.FusedInstructions() > 0 {
			anyFused = true
		}
		if fusedProg.NumInstructions()+fusedProg.FusedInstructions() != plainProg.NumInstructions() {
			t.Fatalf("seed %d: instruction accounting: fused %d + eliminated %d != plain %d",
				seed, fusedProg.NumInstructions(), fusedProg.FusedInstructions(), plainProg.NumInstructions())
		}
		for _, runSeed := range []uint64{seed, seed * 31} {
			var fout, pout bytes.Buffer
			mf, mp := m, m
			fr, ferr := fusedProg.Run(interp.Options{Seed: runSeed, MaxSteps: 2_000_000, Model: &mf, Out: &fout})
			pr, perr := plainProg.Run(interp.Options{Seed: runSeed, MaxSteps: 2_000_000, Model: &mp, Out: &pout})
			if (ferr == nil) != (perr == nil) || (ferr != nil && ferr.Error() != perr.Error()) {
				t.Fatalf("seed %d run %d: err fused=%v plain=%v\n%s", seed, runSeed, ferr, perr, src)
			}
			if ferr != nil {
				continue
			}
			if d := diffResults(pr, fr); d != "" {
				t.Fatalf("seed %d run %d: fused vs plain: %s\n%s", seed, runSeed, d, src)
			}
			if fout.String() != pout.String() {
				t.Fatalf("seed %d run %d: PRINT differs\nfused: %q\nplain: %q", seed, runSeed, fout.String(), pout.String())
			}
		}
	}
	if !anyFused {
		t.Fatal("superinstruction pass never fired on the progen corpus")
	}
}

// TestCheckProc verifies the lint-mode compiler accepts every generated
// program (the progen surface is fully compilable).
func TestCheckProc(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 30; seed++ {
		res := lowerSrc(t, progen.Generate(seed, 6, 3))
		for _, p := range res.Procs {
			if err := CheckProc(p); err != nil {
				t.Fatalf("seed %d proc %s: %v", seed, p.G.Name, err)
			}
		}
	}
}

// TestVMCompilesCorpus: the bytecode compiler bails on no program the
// pipeline is measured or pinned on — the digest corpus, the first 40
// cold-large programs, and the Table 1 programs at their benchmark sizes —
// so none of them falls back to the tree-walker.
func TestVMCompilesCorpus(t *testing.T) {
	t.Parallel()
	srcs := corpus.Digest(t)
	for j, src := range corpus.ColdLarge(40) {
		srcs[fmt.Sprintf("cold-large/%d", j)] = src
	}
	srcs["LOOPS"] = livermore.Source(100, 1)
	srcs["SIMPLE"] = simplecfd.Source(100, 10)
	for name, src := range srcs {
		if _, err := Compile(lowerSrc(t, src)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
