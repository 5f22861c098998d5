package vm

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/simplecfd"
)

// The array differential corpus. Generated programs have no arrays, so the
// progen sweeps never dispatch an element instruction; these programs do,
// on every engine configuration the benchmark profiles.

// dumpArrays returns src with unit's local arrays printed element by
// element just before the unit returns, so a wrong element value shows
// in the PRINT output even where it changes no counter.
func dumpArrays(t *testing.T, src, unit string) string {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Unit(unit)
	if u == nil {
		t.Fatalf("no unit %s", unit)
	}
	var names []string
	for name, sym := range u.Symbols {
		if sym.Kind == lang.SymArray && !sym.IsParam {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var dump strings.Builder
	label := 9900
	for _, name := range names {
		dims := u.Symbols[name].Dims
		var idx []string
		for d, de := range dims {
			fmt.Fprintf(&dump, "      DO %d ZD%d = 1, %s\n", label+1+d, d+1, de)
			idx = append(idx, fmt.Sprintf("ZD%d", d+1))
		}
		fmt.Fprintf(&dump, "      PRINT *, '%s', %s(%s)\n", name, name, strings.Join(idx, ", "))
		for d := len(dims) - 1; d >= 0; d-- {
			fmt.Fprintf(&dump, " %d CONTINUE\n", label+1+d)
		}
		label += len(dims)
	}
	// The dump's loop variables are declared with the unit's PARAMETERs;
	// the dump itself goes before the unit's closing RETURN, or its END.
	header := regexp.MustCompile(`(?m)^      (SUBROUTINE|PROGRAM) ` + unit + `\b`).FindStringIndex(src)
	if header == nil {
		t.Fatalf("no header for %s", unit)
	}
	body := src[header[1]:]
	param := regexp.MustCompile(`(?m)^      PARAMETER .*\n`).FindStringIndex(body)
	end := regexp.MustCompile(`(?m)^(      RETURN\n)?      END$`).FindStringIndex(body)
	if param == nil || end == nil || param[1] > end[0] {
		t.Fatalf("%s: no PARAMETER line or END", unit)
	}
	return src[:header[1]] + body[:param[1]] + "      INTEGER ZD1, ZD2, ZD3\n" +
		body[param[1]:end[0]] + dump.String() + body[end[0]:]
}

// arrayCorpus is every Livermore kernel at n = 20 and SIMPLE at 12×12 for
// two cycles, each with its arrays dumped.
func arrayCorpus(t *testing.T) map[string]string {
	corpus := map[string]string{"SIMPLE": dumpArrays(t, simplecfd.Source(12, 2), "SIMPLE")}
	for k := 1; k <= livermore.Kernels; k++ {
		name := fmt.Sprintf("KERN%02d", k)
		corpus[name] = dumpArrays(t, livermore.KernelSource(k, 20), name)
	}
	return corpus
}

// TestDifferentialArrays runs the array corpus under the tree-walker, the
// VM, the VM's batch runner, and the batch runner with Ball–Larus path
// profiling, and requires bit-identical results, path counters and PRINT
// output. The batch runs put two seeds on one lane, so the second seed
// runs on recycled frames and their reused local arrays.
func TestDifferentialArrays(t *testing.T) {
	t.Parallel()
	m := cost.Optimized
	seeds := []uint64{1, 2}
	for name, src := range arrayCorpus(t) {
		res := lowerSrc(t, src)
		prog, err := Compile(res)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if n := countOps(prog, opElemAff, opStoreElemAff); n == 0 {
			t.Fatalf("%s: no affine element instruction compiled", name)
		}
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		sk, err := profiler.BuildPlans(ap)
		if err != nil {
			t.Fatalf("%s: plans: %v", name, err)
		}
		bl, err := pathprof.BuildPlansWith(ap, sk, pathprof.Options{})
		if err != nil {
			t.Fatalf("%s: path plans: %v", name, err)
		}
		for _, spec := range []*interp.PathSpec{nil, bl.Spec()} {
			opt := interp.Options{Model: &m, PathSpec: spec}
			var treeOut bytes.Buffer
			var want []*interp.Result
			for _, s := range seeds {
				o := opt
				o.Seed, o.Out, o.Engine = s, &treeOut, interp.EngineTree
				r, err := interp.Run(res, o)
				if err != nil {
					t.Fatalf("%s: tree seed %d: %v", name, s, err)
				}
				want = append(want, r)
			}
			var vmOut bytes.Buffer
			for i, s := range seeds {
				o := opt
				o.Seed, o.Out = s, &vmOut
				r, err := prog.Run(o)
				if err != nil {
					t.Fatalf("%s: vm seed %d: %v", name, s, err)
				}
				if d := diffResults(want[i], r) + diffPaths(want[i], r); d != "" {
					t.Fatalf("%s: vm seed %d (paths %v): %s", name, s, spec != nil, d)
				}
			}
			var batchOut bytes.Buffer
			o := opt
			o.Out = &batchOut
			got, errs := batchAll(t, prog.RunBatch, o, seeds, 1)
			for i, s := range seeds {
				if errs[i] != nil {
					t.Fatalf("%s: vm-batch seed %d: %v", name, s, errs[i])
				}
				if d := diffResults(want[i], got[i]) + diffPaths(want[i], got[i]); d != "" {
					t.Fatalf("%s: vm-batch seed %d (paths %v): %s", name, s, spec != nil, d)
				}
			}
			for engine, out := range map[string]string{"vm": vmOut.String(), "vm-batch": batchOut.String()} {
				if out != treeOut.String() {
					t.Fatalf("%s: %s PRINT output differs from the tree-walker's (paths %v)", name, engine, spec != nil)
				}
			}
			if !strings.Contains(treeOut.String(), "\n") {
				t.Fatalf("%s: corpus program printed nothing", name)
			}
		}
	}
}

// countOps counts the instructions of prog whose opcode is one of ops.
func countOps(prog *Program, ops ...opcode) int {
	n := 0
	for _, pc := range prog.procs {
		for _, in := range pc.ins {
			for _, op := range ops {
				if in.op == op {
					n++
				}
			}
		}
	}
	return n
}

// runArrays runs src under both engines with output captured and requires
// the same error (text included) and the same PRINT output.
func runArrays(t *testing.T, src string) (string, error) {
	t.Helper()
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var tout, vout bytes.Buffer
	_, terr := interp.Run(res, interp.Options{Out: &tout, MaxSteps: 100000, Engine: interp.EngineTree})
	_, verr := prog.Run(interp.Options{Out: &vout, MaxSteps: 100000})
	if fmt.Sprint(terr) != fmt.Sprint(verr) {
		t.Fatalf("errors differ:\ntree: %v\nvm:   %v", terr, verr)
	}
	if tout.String() != vout.String() {
		t.Fatalf("PRINT output differs:\ntree: %q\nvm:   %q", tout.String(), vout.String())
	}
	return vout.String(), verr
}

// TestAffineBoundsErrors drives out-of-bounds accesses through each
// affine operand shape (local plus and minus a constant, and a rank-2
// reference) on loads, stores and element arguments: the error text must
// be the tree-walker's.
func TestAffineBoundsErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]struct{ body, want string }{
		"load I+1":  {"      I = 5\n      X = A(I+1)\n", "A: subscript 6 out of bounds 1..5 in dimension 1"},
		"load I-1":  {"      I = 1\n      X = A(I-1)\n", "A: subscript 0 out of bounds 1..5 in dimension 1"},
		"store I+1": {"      I = 5\n      A(I+1) = 1.0\n", "A: subscript 6 out of bounds 1..5 in dimension 1"},
		"store J+1": {"      I = 2\n      J = 3\n      B(I, J+1) = 1.0\n", "B: subscript 4 out of bounds 1..3 in dimension 2"},
		"load J+1":  {"      I = 4\n      J = 1\n      X = B(I, J+1)\n", "B: subscript 4 out of bounds 1..3 in dimension 1"},
		"arg I-1":   {"      I = 1\n      CALL BUMP(A(I-1))\n", "A: subscript 0 out of bounds 1..5 in dimension 1"},
		"arg J+1":   {"      I = 1\n      J = 3\n      CALL BUMP(B(I, J+1))\n", "B: subscript 4 out of bounds 1..3 in dimension 2"},
		"const":     {"      X = B(3, 4)\n", "B: subscript 4 out of bounds 1..3 in dimension 2"},
	}
	for name, tc := range cases {
		src := "      PROGRAM P\n      REAL A(5), B(3, 3), X\n      INTEGER I, J\n" + tc.body +
			"      END\n      SUBROUTINE BUMP(Y)\n      REAL Y\n      Y = Y + 1.0\n      END\n"
		prog, err := Compile(lowerSrc(t, src))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if countOps(prog, opElemAff, opStoreElemAff, opArgElemAff) == 0 {
			t.Fatalf("%s: access did not compile to an affine element instruction", name)
		}
		_, err = runArrays(t, src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", name, err, tc.want)
		}
	}
}

// TestAffineWraparound: a subscript like I + 9223372036854775807 wraps
// exactly as the generic int64 add does, on loads, stores and element
// arguments: an overflowing sum lands negative (or, for I - 1 at the
// bottom of the range, at the top) and fails the bounds check with the
// wrapped value in its text, and a sum that does not overflow indexes the
// array.
func TestAffineWraparound(t *testing.T) {
	t.Parallel()
	decl := "      PROGRAM P\n      REAL A(5), X\n      INTEGER I, BIG\n      PARAMETER (BIG = 9223372036854775807)\n"
	cases := map[string]struct{ body, want string }{
		"load":    {"      I = BIG\n      X = A(I + 9223372036854775807)\n", "subscript -2 out of bounds"},
		"store":   {"      I = BIG - 3\n      A(I + BIG) = 1.0\n", "subscript -5 out of bounds"},
		"arg":     {"      I = BIG\n      CALL BUMP(A(I + 2))\n", "subscript -9223372036854775807 out of bounds"},
		"sub":     {"      I = -BIG - 1\n      X = A(I - 1)\n", "subscript 9223372036854775807 out of bounds"},
		"no wrap": {"      I = -BIG + 1\n      A(I + BIG) = 7.0\n      PRINT *, A(I + 9223372036854775807), A(1)\n", ""},
	}
	for name, tc := range cases {
		src := decl + tc.body + "      END\n      SUBROUTINE BUMP(Y)\n      REAL Y\n      Y = Y + 1.0\n      END\n"
		prog, err := Compile(lowerSrc(t, src))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if countOps(prog, opElemAff, opStoreElemAff, opArgElemAff) == 0 {
			t.Fatalf("%s: no affine element instruction compiled", name)
		}
		out, err := runArrays(t, src)
		if tc.want == "" {
			if err != nil || out != "7 7\n" {
				t.Fatalf("%s: output %q, error %v; want the store read back twice", name, out, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", name, err, tc.want)
		}
	}
}

// TestAffineGenericFallback: a subscript outside the affine forms — one
// built from a REAL local (sema admits only INTEGER subscripts, so through
// INT), a scalar parameter, a product — compiles to the generic element
// instruction and still matches the tree-walker.
func TestAffineGenericFallback(t *testing.T) {
	t.Parallel()
	src := `      PROGRAM P
      REAL A(5), R
      INTEGER I
      R = 2.0
      I = 2
      A(INT(R)) = 1.0
      A(I*2) = 2.0
      CALL S(A, I)
      PRINT *, A(1), A(2), A(3), A(4)
      END
      SUBROUTINE S(A, K)
      REAL A(5)
      INTEGER K
      A(K+1) = 3.0
      END
`
	prog, err := Compile(lowerSrc(t, src))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if countOps(prog, opElemAff, opStoreElemAff) != 4 {
		t.Fatalf("want only the PRINT's 4 references affine, got %d", countOps(prog, opElemAff, opStoreElemAff))
	}
	if n := countOps(prog, opStoreElem); n != 3 {
		t.Fatalf("want 3 generic stores (REAL, product, parameter subscripts), got %d", n)
	}
	out, err := runArrays(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("no output")
	}
}

// TestLocalArrayReuseReadsZero pins the reuse contract: a local array is
// reset on every activation, so reading it before writing it yields zero
// even when the frame (and the array's storage) was recycled from a
// previous activation that wrote it. The adjustable extent grows and
// shrinks across calls, so both the reuse and the reallocation paths run.
func TestLocalArrayReuseReadsZero(t *testing.T) {
	t.Parallel()
	src := `      PROGRAM P
      INTEGER K
      DO 10 K = 1, 4
      CALL W(K, 3 - MOD(K, 2))
   10 CONTINUE
      END
      SUBROUTINE W(K, N)
      INTEGER K, N, I
      REAL T(N)
      INTEGER C(2, 2)
      PRINT *, K, T(1), T(N), C(1, 1), C(2, 2)
      DO 20 I = 1, N
      T(I) = 1.5 * K
   20 CONTINUE
      C(1, 1) = K
      C(2, 2) = -K
      PRINT *, T(1), T(N), C(1, 1), C(2, 2)
      END
`
	out, err := runArrays(t, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) == 5 && (f[1] != "0" || f[2] != "0" || f[3] != "0" || f[4] != "0") {
			t.Fatalf("local array read before write is not zero: %q\n%s", line, out)
		}
	}
	// Also on one lane across seeds: the second seed starts from frames the
	// first one recycled.
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := prog.RunBatch(interp.Options{Out: &got}, []uint64{1, 2}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got.String() != out+out {
		t.Fatalf("second seed on a recycled lane differs:\n%s\nwant twice:\n%s", got.String(), out)
	}
}

// TestExtentsReadLocalsAndRNG: array extents that read a local scalar or
// a local array element, or that call RAND or IRAND, compile (no
// bailout) and run exactly as on the tree-walker. The tree-walker binds a
// frame's locals one by one in slot order, so an extent sees the locals
// of earlier slots (zero, or a freshly zeroed array) and fails on one of
// its own or a later slot. Every case runs seeds 1-3 on the tree-walker,
// as single VM runs, and as a one-lane VM batch (the later seeds on
// recycled frames); values, PRINT output (which prints draws taken after
// the allocations, so the RNG stream is compared too) and runtime errors
// must agree.
func TestExtentsReadLocalsAndRNG(t *testing.T) {
	t.Parallel()
	cases := map[string]struct{ src, want string }{
		// K's slot comes before X's: K is bound, and still zero.
		"local scalar before": {`      PROGRAM P
      INTEGER K
      REAL X(K + 3)
      K = 4
      X(3) = 2.5
      PRINT *, X(3), RAND()
      X(K) = 1.0
      END
`, "X: subscript 4 out of bounds 1..3 in dimension 1"},
		// N's slot comes after A's: N is not bound yet.
		"local scalar after": {`      PROGRAM P
      INTEGER N
      REAL A(N + 3)
      N = 2
      A(1) = 1.0
      END
`, "no scalar N"},
		"local scalar zero extent": {`      PROGRAM P
      INTEGER K
      REAL X(K)
      X(1) = 1.0
      END
`, "array X has non-positive extent 0"},
		// Every activation reads its own K as zero, on fresh and on
		// recycled frames alike.
		"local scalar per activation": {`      PROGRAM P
      INTEGER I
      DO 10 I = 1, 3
      CALL W(I)
   10 CONTINUE
      END
      SUBROUTINE W(I)
      INTEGER I, K
      REAL T(K + 2)
      PRINT *, I, K, T(2), RAND()
      T(2) = 1.5
      K = 7
      END
`, ""},
		"RAND and IRAND": {`      PROGRAM P
      INTEGER B(IRAND(5) + 2), I
      REAL C(INT(RAND() * 4.0) + 1)
      C(1) = 0.5
      PRINT *, C(1), RAND(), IRAND(1000)
      DO 10 I = 1, 8
      B(I) = I
   10 CONTINUE
      END
`, "B: subscript"},
		// A's slot comes before Z's: A is allocated, every element zero.
		"local array before": {`      PROGRAM P
      INTEGER A(4)
      REAL Z(A(1) + 2)
      Z(2) = 1.0
      Z(3) = 1.0
      END
`, "Z: subscript 3 out of bounds 1..2 in dimension 1"},
		// Z's slot comes after Y's: Z is not allocated yet, and the
		// tree-walker says so before it evaluates the subscript.
		"local array after": {`      PROGRAM P
      INTEGER Y(INT(Z(IRAND(3))) + 1)
      REAL Z(2)
      Y(1) = 1
      END
`, "Z is not an array"},
		// With a constant subscript there is nothing to evaluate first.
		"local array after, constant subscript": {`      PROGRAM P
      INTEGER Y(Z(1) + 1)
      INTEGER Z(2)
      Y(1) = 1
      END
`, "Z is not an array"},
		"local subscript": {`      PROGRAM P
      INTEGER A(4), K
      REAL Z(A(K + 1) + 2)
      Z(2) = 1.0
      PRINT *, Z(2)
      END
`, ""},
		"local subscript out of bounds": {`      PROGRAM P
      INTEGER A(4), K
      REAL Z(A(K) + 2)
      Z(2) = 1.0
      END
`, "A: subscript 0 out of bounds 1..4 in dimension 1"},
		"unbound local subscript": {`      PROGRAM P
      INTEGER A(4), M
      REAL B(A(M) + 1)
      B(1) = 1.0
      END
`, "no scalar M"},
		// An array parameter is reshaped after every local is bound.
		"parameter reads local": {`      PROGRAM P
      INTEGER A(5)
      CALL S(A)
      END
      SUBROUTINE S(V)
      INTEGER V(K + 2), K
      V(2) = 1
      V(3) = 1
      END
`, "V: subscript 3 out of bounds 1..2 in dimension 1"},
		"parameter draws": {`      PROGRAM P
      INTEGER A(5), I
      CALL S(A, 4)
      END
      SUBROUTINE S(V, N)
      INTEGER V(IRAND(N)), N, I
      PRINT *, RAND()
      DO 10 I = 1, N + 1
      V(I) = I
   10 CONTINUE
      END
`, "V: subscript"},
	}
	seeds := []uint64{1, 2, 3}
	for name, tc := range cases {
		res := lowerSrc(t, tc.src)
		prog, err := Compile(res)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		var treeOut, vmOut, batchOut bytes.Buffer
		var want []*interp.Result
		var treeErrs []error
		for _, s := range seeds {
			opt := interp.Options{Seed: s, MaxSteps: 100000}
			o := opt
			o.Out, o.Engine = &treeOut, interp.EngineTree
			tr, terr := interp.Run(res, o)
			o = opt
			o.Out = &vmOut
			vr, verr := prog.Run(o)
			if fmt.Sprint(terr) != fmt.Sprint(verr) {
				t.Fatalf("%s seed %d: errors differ:\ntree: %v\nvm:   %v", name, s, terr, verr)
			}
			if d := diffResults(tr, vr); d != "" {
				t.Fatalf("%s seed %d: %s", name, s, d)
			}
			if tc.want == "" && terr != nil || tc.want != "" && (terr == nil || !strings.Contains(terr.Error(), tc.want)) {
				t.Fatalf("%s seed %d: error %v, want %q", name, s, terr, tc.want)
			}
			want, treeErrs = append(want, tr), append(treeErrs, terr)
		}
		got, errs := batchAll(t, prog.RunBatch, interp.Options{Out: &batchOut, MaxSteps: 100000}, seeds, 1)
		for i, s := range seeds {
			if fmt.Sprint(errs[i]) != fmt.Sprint(treeErrs[i]) {
				t.Fatalf("%s seed %d: batch error %v, tree %v", name, s, errs[i], treeErrs[i])
			}
			if d := diffResults(want[i], got[i]); d != "" {
				t.Fatalf("%s seed %d: batch: %s", name, s, d)
			}
		}
		if vmOut.String() != treeOut.String() || batchOut.String() != treeOut.String() {
			t.Fatalf("%s: PRINT output differs:\ntree:  %q\nvm:    %q\nbatch: %q", name, treeOut.String(), vmOut.String(), batchOut.String())
		}
	}
}
