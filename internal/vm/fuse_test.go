package vm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/pathprof"
	"repro/internal/progen"
)

// fusedForms is the full superinstruction catalog: every fused opcode with
// the exact constituent sequence its exec arm concatenates. The structural
// test below walks fused and unfused instruction streams in lockstep and
// requires each fused instruction to stand for precisely this sequence —
// so a new superinstruction must be registered here to pass.
var fusedForms = map[opcode]struct {
	name string
	seq  []opcode
}{
	opNodeJmp:            {"NodeJmp", []opcode{opNode, opJmp}},
	opNodeDoTest:         {"NodeDoTest", []opcode{opNode, opDoTest}},
	opNodeDoIncrJmp:      {"NodeDoIncrJmp", []opcode{opNode, opDoIncr, opJmp}},
	opDoIncrJmp:          {"DoIncrJmp", []opcode{opDoIncr, opJmp}},
	opNodeConst:          {"NodeConst", []opcode{opNode, opConst}},
	opNodeLocal:          {"NodeLocal", []opcode{opNode, opLocal}},
	opNodeRef:            {"NodeRef", []opcode{opNode, opRef}},
	opLocalConstBin:      {"LocalConstBin", []opcode{opLocal, opConst, opBin}},
	opLocalLocalBin:      {"LocalLocalBin", []opcode{opLocal, opLocal, opBin}},
	opStoreLocalJmp:      {"StoreLocalJmp", []opcode{opStoreLocal, opJmp}},
	opStoreRefJmp:        {"StoreRefJmp", []opcode{opStoreRef, opJmp}},
	opRefConstBin:        {"RefConstBin", []opcode{opRef, opConst, opBin}},
	opConstBin:           {"ConstBin", []opcode{opConst, opBin}},
	opBinStoreRefJmp:     {"BinStoreRefJmp", []opcode{opBin, opStoreRef, opJmp}},
	opBinBranch:          {"BinBranch", []opcode{opBin, opBranch}},
	opDoInitFinJmp:       {"DoInitFinJmp", []opcode{opDoInitFin, opJmp}},
	opNodeRefConstBin:    {"NodeRefConstBin", []opcode{opNode, opRef, opConst, opBin}},
	opNodeRefRefConstBin: {"NodeRefRefConstBin", []opcode{opNode, opRef, opRef, opConst, opBin}},
	opNodeConstConst:     {"NodeConstConst", []opcode{opNode, opConst, opConst}},
	opConstTrip:          {"ConstTrip", []opcode{opConst, opTrip}},
	opArgLocal2:          {"ArgLocal2", []opcode{opArgLocal, opArgLocal}},
	opNodeArgLocal2:      {"NodeArgLocal2", []opcode{opNode, opArgLocal, opArgLocal}},
	opActivateGoto:       {"ActivateGoto", []opcode{opActivate, opGoto}},
}

// fuseWitnesses are hand-written programs that, together with a slice of
// the progen corpus, make every superinstruction fire at least once.
var fuseWitnesses = []string{
	// DO loop accumulating through a subroutine ref parameter: loop-header
	// and back-edge fusions, ref-expression fusions, call staging.
	`      PROGRAM FW1
      INTEGER I, S, A, B
      S = 0
      A = 2
      B = 3
      DO 10 I = 1, 8
      S = S + I*2
   10 CONTINUE
      CALL ACC(A, B)
      PRINT *, S, A
      END
      SUBROUTINE ACC(X, Y)
      INTEGER X, Y, J
      DO 20 J = 1, 4
      X = X + 1
      Y = Y + X*3
   20 CONTINUE
      END
`,
	// Branches on computed conditions plus a forward GOTO: NodeJmp and
	// StoreLocalJmp shapes.
	`      PROGRAM FW2
      INTEGER I, S
      S = 1
      I = IRAND(10)
      IF (I .GT. 5) THEN
      S = S * 2
      ELSE
      S = S * 3
      ENDIF
      GOTO 30
      S = 99
   30 CONTINUE
      PRINT *, S
      END
`,
	// Rarer shapes the progen corpus misses: a condition whose comparison
	// operands are both computed (BinBranch), a stepped DO whose increment
	// is preceded by the step expression (standalone DoIncrJmp), a 4-arg
	// CALL (NodeArgLocal2 + ArgLocal2), a bare ref copy (NodeRef) and a
	// ref-const product off a local lead (RefConstBin).
	`      PROGRAM FW3
      INTEGER I, J, K, S, N
      I = IRAND(5)
      J = I + 2
      K = 4
      S = 0
      IF (I + J .GT. K + 1) THEN
      S = 1
      ENDIF
      DO 40 N = 1, 9, 2
      S = S + N
   40 CONTINUE
      CALL Q4(I, J, K, S)
      PRINT *, S, K
      END
      SUBROUTINE Q4(A, B, C, D)
      INTEGER A, B, C, D, T
      T = A
      D = T + B*2
      C = D + A*3
      END
`,
}

// fusedStreamMatchesPlain walks a fused instruction stream against the
// NoFuse stream of the same procedure and returns an error when any fused
// instruction does not stand for the literal concatenation of its
// registered constituents (or when an opcode is missing from the catalog).
// It returns the set of fused opcodes observed.
func fusedStreamMatchesPlain(name string, fused, plain []instr) (map[opcode]bool, error) {
	seen := make(map[opcode]bool)
	j := 0
	for i := 0; i < len(fused); i++ {
		in := fused[i]
		form, isFused := fusedForms[in.op]
		if !isFused {
			if j >= len(plain) || plain[j].op != in.op {
				return nil, fmt.Errorf("proc %s: fused[%d] op %d out of sync with plain[%d]", name, i, in.op, j)
			}
			j++
			continue
		}
		seen[in.op] = true
		for k, want := range form.seq {
			if j >= len(plain) || plain[j].op != want {
				return nil, fmt.Errorf("proc %s: fused[%d] %s constituent %d: plain[%d] is not op %d",
					name, i, form.name, k, j, want)
			}
			j++
		}
	}
	if j != len(plain) {
		return nil, fmt.Errorf("proc %s: fused stream consumed %d plain instructions of %d", name, j, len(plain))
	}
	return seen, nil
}

// TestFuseCatalog checks, over the witness programs plus a progen slice,
// that (a) every fused instruction in every compiled procedure is the
// literal concatenation of its cataloged constituents, and (b) every
// superinstruction in the catalog actually fires somewhere — so dead
// patterns and uncataloged opcodes both fail loudly.
func TestFuseCatalog(t *testing.T) {
	t.Parallel()
	srcs := append([]string{}, fuseWitnesses...)
	for seed := uint64(1); seed <= 40; seed++ {
		srcs = append(srcs, progen.GenerateOpts(seed, 4+int(seed%8), 1+int(seed%3), progen.Opts{ConstLoops: seed%2 == 0}))
	}
	covered := make(map[opcode]bool)
	for si, src := range srcs {
		res := lowerSrc(t, src)
		fusedProg, err := Compile(res)
		if err != nil {
			t.Fatalf("src %d: compile: %v", si, err)
		}
		plainProg, err := CompileOpts(res, CompileOptions{NoFuse: true})
		if err != nil {
			t.Fatalf("src %d: compile nofuse: %v", si, err)
		}
		if len(fusedProg.procs) != len(plainProg.procs) {
			t.Fatalf("src %d: proc count differs", si)
		}
		for pi, pc := range fusedProg.procs {
			seen, err := fusedStreamMatchesPlain(pc.name, pc.ins, plainProg.procs[pi].ins)
			if err != nil {
				t.Fatalf("src %d: %v", si, err)
			}
			for op := range seen {
				covered[op] = true
			}
		}
	}
	for op, form := range fusedForms {
		if !covered[op] {
			t.Errorf("superinstruction %s never fired on the witness corpus", form.name)
		}
	}
}

// FuzzFusePipeline feeds generator knobs to the fused and unfused
// compilers and requires bit-identical execution (result counters, PRINT
// output, error text) on two interpreter seeds per program. Its Ball–Larus
// arm runs the same seeds under the program's path profiling spec (pair
// counters on odd seeds) and requires the path counters and STOP partials
// of both VMs to match the tree-walker's bit for bit; family 2 generates
// STOP gadgets, so partials occur.
func FuzzFusePipeline(f *testing.F) {
	f.Add(uint64(7), byte(6), byte(2), byte(0))
	f.Add(uint64(19), byte(10), byte(3), byte(1))
	f.Add(uint64(3), byte(4), byte(1), byte(2))
	f.Fuzz(func(t *testing.T, seed uint64, size, depth, fam byte) {
		opts := progen.Opts{
			BranchFree: fam%3 == 1,
			Stops:      fam%3 == 2,
		}
		src := progen.GenerateOpts(seed, 1+int(size%12), 1+int(depth%4), opts)
		res := lowerSrc(t, src)
		fusedProg, err := Compile(res)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		plainProg, err := CompileOpts(res, CompileOptions{NoFuse: true})
		if err != nil {
			t.Fatalf("compile nofuse: %v\n%s", err, src)
		}
		m := cost.Optimized
		runSeeds := []uint64{seed, seed*31 + 1}
		for _, runSeed := range runSeeds {
			var fout, pout bytes.Buffer
			mf, mp := m, m
			fr, ferr := fusedProg.Run(interp.Options{Seed: runSeed, MaxSteps: 1_000_000, Model: &mf, Out: &fout})
			pr, perr := plainProg.Run(interp.Options{Seed: runSeed, MaxSteps: 1_000_000, Model: &mp, Out: &pout})
			if (ferr == nil) != (perr == nil) || (ferr != nil && ferr.Error() != perr.Error()) {
				t.Fatalf("run %d: err fused=%v plain=%v\n%s", runSeed, ferr, perr, src)
			}
			if ferr != nil {
				continue
			}
			if d := diffResults(pr, fr); d != "" {
				t.Fatalf("run %d: %s\n%s", runSeed, d, src)
			}
			if fout.String() != pout.String() {
				t.Fatalf("run %d: PRINT differs\nfused: %q\nplain: %q", runSeed, fout.String(), pout.String())
			}
		}

		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatalf("analyze: %v\n%s", err, src)
		}
		bl, err := pathprof.BuildPlans(ap, pathprof.Options{})
		if err != nil {
			t.Fatalf("path plans: %v\n%s", err, src)
		}
		for _, runSeed := range runSeeds {
			opt := interp.Options{Seed: runSeed, MaxSteps: 1_000_000, PathSpec: bl.Spec()}
			topt := opt
			topt.Engine = interp.EngineTree
			want, werr := interp.Run(res, topt)
			for _, vm := range []struct {
				name string
				prog *Program
			}{{"fused", fusedProg}, {"nofuse", plainProg}} {
				got, err := vm.prog.Run(opt)
				if (werr == nil) != (err == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("bl run %d: err %s=%v tree=%v\n%s", runSeed, vm.name, err, werr, src)
				}
				if werr != nil {
					continue
				}
				if d := diffResults(want, got) + diffPaths(want, got); d != "" {
					t.Fatalf("bl run %d: %s: %s\n%s", runSeed, vm.name, d, src)
				}
				if !reflect.DeepEqual(want.Paths, got.Paths) {
					t.Fatalf("bl run %d: %s: path counters differ from the tree-walker's\n%s", runSeed, vm.name, src)
				}
			}
		}
	})
}
