package interp

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/lower"
)

// lowerSrc parses and lowers a program.
func lowerSrc(t *testing.T, src string) *lower.Result {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return res
}

// runSrc parses, lowers and runs a program, returning its PRINT output.
func runSrc(t *testing.T, src string, opt Options) (string, *Result) {
	t.Helper()
	res := lowerSrc(t, src)
	var out strings.Builder
	opt.Out = &out
	r, err := Run(res, opt)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	return strings.TrimSpace(out.String()), r
}

// runErr expects a runtime error containing want.
func runErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Run(lowerSrc(t, src), Options{MaxSteps: 100000})
	if err == nil {
		t.Fatalf("run succeeded, want error %q\n%s", want, src)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want substring %q", err, want)
	}
}

func prog(body string) string { return "      PROGRAM T\n" + body + "      END\n" }

func TestArithmeticAndPromotion(t *testing.T) {
	out, _ := runSrc(t, prog(`      INTEGER I
      REAL X
      I = 7/2
      PRINT *, I
      I = -7/2
      PRINT *, I
      X = 7/2
      PRINT *, X
      X = 7.0/2
      PRINT *, X
      I = 2**10
      PRINT *, I
      X = 2.0**0.5
      PRINT *, X
      I = 2**(-1)
      PRINT *, I
`), Options{})
	want := []string{"3", "-3", "3", "3.5", "1024", "1.4142135623730951", "0"}
	got := strings.Split(out, "\n")
	if len(got) != len(want) {
		t.Fatalf("output = %q", out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestIntrinsics(t *testing.T) {
	out, _ := runSrc(t, prog(`      INTEGER I
      REAL X
      I = MOD(17, 5)
      PRINT *, I
      I = MOD(-17, 5)
      PRINT *, I
      X = MOD(7.5, 2.0)
      PRINT *, X
      I = ABS(-3)
      PRINT *, I
      X = ABS(-2.5)
      PRINT *, X
      I = MIN(3, 1, 2)
      PRINT *, I
      I = MAX(3, 1, 2)
      PRINT *, I
      X = MIN(1.5, 2)
      PRINT *, X
      I = INT(3.9)
      PRINT *, I
      I = INT(-3.9)
      PRINT *, I
      X = SIGN(2.0, -1.0)
      PRINT *, X
      X = SQRT(16.0)
      PRINT *, X
      I = MAX(4, 9, 2, 7, 5, 1)
      PRINT *, I
`), Options{})
	want := []string{"2", "-2", "1.5", "3", "2.5", "1", "3", "1.5", "3", "-3", "-2", "4", "9"}
	got := strings.Split(out, "\n")
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestArraysColumnMajorAndBounds(t *testing.T) {
	out, _ := runSrc(t, prog(`      INTEGER A(3,2), I, J, K
      K = 0
      DO 10 J = 1, 2
         DO 20 I = 1, 3
            K = K + 1
            A(I,J) = K
   20    CONTINUE
   10 CONTINUE
      PRINT *, A(1,1), A(3,1), A(1,2), A(3,2)
`), Options{})
	if out != "1 3 4 6" {
		t.Errorf("column-major fill = %q, want \"1 3 4 6\"", out)
	}
	runErr(t, prog(`      INTEGER A(3)
      A(4) = 1
`), "out of bounds")
	runErr(t, prog(`      INTEGER A(3)
      A(0) = 1
`), "out of bounds")
}

func TestDoLoopSemantics(t *testing.T) {
	// Zero-trip, negative step, bounds evaluated once, variable after loop.
	out, _ := runSrc(t, prog(`      INTEGER I, N, S
      S = 0
      DO 10 I = 5, 1
         S = S + 1
   10 CONTINUE
      PRINT *, S
      S = 0
      DO 20 I = 10, 1, -3
         S = S + I
   20 CONTINUE
      PRINT *, S
      N = 3
      S = 0
      DO 30 I = 1, N
         N = 100
         S = S + 1
   30 CONTINUE
      PRINT *, S
      PRINT *, I
`), Options{})
	lines := strings.Split(out, "\n")
	if lines[0] != "0" {
		t.Errorf("zero-trip loop ran %s times", lines[0])
	}
	if lines[1] != "22" { // 10+7+4+1
		t.Errorf("negative step sum = %s, want 22", lines[1])
	}
	if lines[2] != "3" {
		t.Errorf("F77 trip count must be fixed at entry: body ran %s times", lines[2])
	}
	if lines[3] != "4" { // I after completing DO 1..3 is 4
		t.Errorf("loop variable after exit = %s, want 4", lines[3])
	}
	runErr(t, prog(`      INTEGER I, K
      K = 0
      DO 10 I = 1, 5, K
   10 CONTINUE
`), "DO step is zero")
}

func TestByReferenceSemantics(t *testing.T) {
	src := `      PROGRAM T
      INTEGER I, A(3)
      I = 1
      A(2) = 5
      CALL BUMP(I)
      PRINT *, I
      CALL BUMP(A(2))
      PRINT *, A(2)
      CALL BUMP(I + 1)
      PRINT *, I
      CALL FILL(A, 3)
      PRINT *, A(1), A(3)
      END

      SUBROUTINE BUMP(N)
      INTEGER N
      N = N + 1
      RETURN
      END

      SUBROUTINE FILL(V, N)
      INTEGER N, V(N), J
      DO 10 J = 1, N
         V(J) = 7
   10 CONTINUE
      RETURN
      END
`
	out, _ := runSrc(t, src, Options{})
	lines := strings.Split(out, "\n")
	if lines[0] != "2" {
		t.Errorf("scalar by reference: %s", lines[0])
	}
	if lines[1] != "6" {
		t.Errorf("array element by reference: %s", lines[1])
	}
	if lines[2] != "2" {
		t.Errorf("expression argument must not write back: %s", lines[2])
	}
	if lines[3] != "7 7" {
		t.Errorf("whole-array passing: %s", lines[3])
	}
}

func TestSequenceAssociation(t *testing.T) {
	// A 2x3 array viewed as a 6-vector in the callee (column-major).
	src := `      PROGRAM T
      INTEGER A(2,3), I, J, K
      K = 0
      DO 10 J = 1, 3
         DO 20 I = 1, 2
            K = K + 1
            A(I,J) = K
   20    CONTINUE
   10 CONTINUE
      CALL ASVEC(A, 6)
      END

      SUBROUTINE ASVEC(V, N)
      INTEGER N, V(N)
      PRINT *, V(1), V(2), V(6)
      RETURN
      END
`
	out, _ := runSrc(t, src, Options{})
	if out != "1 2 6" {
		t.Errorf("sequence association = %q, want \"1 2 6\"", out)
	}
	// Callee claiming MORE elements than passed is an error.
	bad := strings.Replace(src, "CALL ASVEC(A, 6)", "CALL ASVEC(A, 7)", 1)
	runErr(t, bad, "needs 7 elements")
}

func TestStopUnwinds(t *testing.T) {
	src := `      PROGRAM T
      CALL DEEP
      PRINT *, 'unreachable'
      END

      SUBROUTINE DEEP
      STOP
      RETURN
      END
`
	out, r := runSrc(t, src, Options{})
	if out != "" {
		t.Errorf("output after STOP: %q", out)
	}
	if !r.Stopped {
		t.Error("Stopped flag not set")
	}
}

func TestComputedGotoFallthrough(t *testing.T) {
	out, _ := runSrc(t, prog(`      INTEGER K
      K = 5
      GOTO (10, 20), K
      PRINT *, 'fall'
      GOTO 30
   10 PRINT *, 'one'
      GOTO 30
   20 PRINT *, 'two'
   30 CONTINUE
`), Options{})
	if out != "fall" {
		t.Errorf("out-of-range computed GOTO = %q, want fall-through", out)
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	src := prog(`      REAL X
      X = RAND()
      PRINT *, X
`)
	a, _ := runSrc(t, src, Options{Seed: 42})
	b, _ := runSrc(t, src, Options{Seed: 42})
	c, _ := runSrc(t, src, Options{Seed: 43})
	if a != b {
		t.Errorf("same seed differs: %q vs %q", a, b)
	}
	if a == c {
		t.Errorf("different seeds agree: %q", a)
	}
	runErr(t, prog("      I = IRAND(0)\n"), "positive bound")
}

func TestRuntimeErrors(t *testing.T) {
	runErr(t, prog("      INTEGER I\n      I = 1/(I-I)\n"), "division by zero")
	runErr(t, prog("      X = 1.0/(X-X)\n"), "division by zero")
	runErr(t, prog("      X = SQRT(-1.0)\n"), "negative")
	runErr(t, prog("      X = LOG(0.0)\n"), "non-positive")
	runErr(t, prog("      I = MOD(1, 0)\n"), "MOD by zero")
	runErr(t, prog(`      INTEGER I
      I = 0
   10 I = I + 1
      IF (I .GT. -1) GOTO 10
`), "step limit")
}

func TestRunawayRecursionCaught(t *testing.T) {
	src := `      PROGRAM T
      CALL R
      END

      SUBROUTINE R
      CALL R
      RETURN
      END
`
	progAst, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(progAst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(res, Options{}); err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestCostAccounting(t *testing.T) {
	src := prog(`      INTEGER I, S
      S = 0
      DO 10 I = 1, 4
         S = S + 1
   10 CONTINUE
`)
	progAst, _ := lang.Parse(src)
	res, _ := lower.Lower(progAst)
	m := cost.Unit
	r, err := Run(res, Options{Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	// Under the unit model cost == steps.
	if r.Cost != float64(r.Steps) {
		t.Errorf("unit model cost %g != steps %d", r.Cost, r.Steps)
	}
	// Without a model, cost stays zero.
	r2, err := Run(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cost != 0 {
		t.Errorf("cost without model = %g", r2.Cost)
	}
	if r2.Steps != r.Steps {
		t.Errorf("steps differ with/without model: %d vs %d", r2.Steps, r.Steps)
	}
}

func TestLogicalOpsAndPrint(t *testing.T) {
	out, _ := runSrc(t, prog(`      LOGICAL A, B
      A = .TRUE.
      B = .FALSE.
      PRINT *, A, B, A .AND. B, A .OR. B, A .EQV. B, A .NEQV. B, .NOT. B
      PRINT *, 'literal', 42, 1.5
`), Options{})
	lines := strings.Split(out, "\n")
	if lines[0] != "T F F T F T T" {
		t.Errorf("logical line = %q", lines[0])
	}
	if lines[1] != "literal 42 1.5" {
		t.Errorf("print line = %q", lines[1])
	}
}

func TestActivationCounts(t *testing.T) {
	src := `      PROGRAM T
      INTEGER I
      DO 10 I = 1, 5
         CALL S
   10 CONTINUE
      END

      SUBROUTINE S
      RETURN
      END
`
	_, r := runSrc(t, src, Options{})
	if got := r.ByProc["S"].Activations; got != 5 {
		t.Errorf("S activations = %d, want 5", got)
	}
	if got := r.ByProc["T"].Activations; got != 1 {
		t.Errorf("T activations = %d, want 1", got)
	}
}

func TestLabelCountAndEdgeCount(t *testing.T) {
	src := prog(`      INTEGER I, S
      S = 0
      DO 10 I = 1, 6
         IF (MOD(I, 2) .EQ. 0) S = S + 1
   10 CONTINUE
`)
	progAst, _ := lang.Parse(src)
	res, _ := lower.Lower(progAst)
	r, err := Run(res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Main
	// Find the IF node and check T was taken 3 times, F 3 times.
	for _, n := range p.G.Nodes() {
		if strings.HasPrefix(n.Name(), "IF (MOD") {
			if tc := r.LabelCount(p, n.ID, "T"); tc != 3 {
				t.Errorf("T count = %d, want 3", tc)
			}
			if fc := r.LabelCount(p, n.ID, "F"); fc != 3 {
				t.Errorf("F count = %d, want 3", fc)
			}
		}
	}
}
