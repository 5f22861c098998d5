package lang

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func semaErr(t *testing.T, body, want string) {
	t.Helper()
	_, err := Parse(wrap(body))
	if err == nil {
		t.Fatalf("expected error containing %q for:\n%s", want, body)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want substring %q", err, want)
	}
}

func TestImplicitTyping(t *testing.T) {
	u := parseBody(t, `      I = 1
      X = 1.5
      NUM = 2
      AVG = 0.5
`)
	cases := map[string]Type{"I": TInt, "X": TReal, "NUM": TInt, "AVG": TReal}
	for name, want := range cases {
		sym := u.Symbols[name]
		if sym == nil || sym.Type != want {
			t.Errorf("%s: %+v, want %v", name, sym, want)
		}
	}
}

func TestDuplicateChecks(t *testing.T) {
	semaErr(t, "      INTEGER I\n      INTEGER I\n      I = 1\n", "duplicate declaration")
	semaErr(t, "      PARAMETER (N = 1)\n      PARAMETER (N = 2)\n      X = 1\n", "duplicate name")
	semaErr(t, "   10 CONTINUE\n   10 CONTINUE\n", "duplicate statement label")
}

func TestTypedParameterBothOrders(t *testing.T) {
	for _, body := range []string{
		"      INTEGER N\n      PARAMETER (N = 4)\n      X = N\n",
		"      PARAMETER (N = 4)\n      INTEGER N\n      X = N\n",
	} {
		u := parseBody(t, body)
		sym := u.Symbols["N"]
		if sym.Kind != SymConst || sym.Type != TInt || sym.ConstValue.(int64) != 4 {
			t.Errorf("N: %+v for body:\n%s", sym, body)
		}
	}
}

func TestGotoChecks(t *testing.T) {
	semaErr(t, "      GOTO 99\n", "no such label")
	// Jump INTO a block is illegal...
	semaErr(t, `      GOTO 10
      IF (1 .GT. 0) THEN
   10    X = 1
      ENDIF
`, "jumps into a nested block")
	// ... but jumping OUT is fine.
	if _, err := Parse(wrap(`      INTEGER I
      DO 20 I = 1, 3
         IF (I .GT. 1) GOTO 30
   20 CONTINUE
   30 CONTINUE
`)); err != nil {
		t.Errorf("jump out of a loop must be legal: %v", err)
	}
}

func TestTypeChecks(t *testing.T) {
	semaErr(t, "      INTEGER I\n      IF (I) THEN\n      ENDIF\n", "must be LOGICAL")
	semaErr(t, "      LOGICAL L\n      X = L + 1\n", "needs numeric operands")
	semaErr(t, "      LOGICAL L\n      L = 1 .AND. 2\n", "needs LOGICAL operands")
	semaErr(t, "      INTEGER I\n      I = .TRUE.\n", "cannot assign LOGICAL")
	semaErr(t, "      LOGICAL L\n      L = 1\n", "cannot assign INTEGER")
	semaErr(t, "      REAL X\n      DO 10 X = 1, 5\n   10 CONTINUE\n", "must be an INTEGER scalar")
	semaErr(t, "      REAL X\n      DO 10 I = 1.0, 5\n   10 CONTINUE\n", "DO bounds must be INTEGER")
	semaErr(t, "      LOGICAL L\n      IF (L) 1, 2, 3\n    1 CONTINUE\n    2 CONTINUE\n    3 CONTINUE\n", "needs a numeric expression")
	semaErr(t, "      LOGICAL L\n      GOTO (10, 20), L\n   10 CONTINUE\n   20 CONTINUE\n", "must be INTEGER")
}

func TestArrayChecks(t *testing.T) {
	semaErr(t, "      REAL A(10)\n      X = A(1, 2)\n", "1 dimensions, indexed with 2")
	semaErr(t, "      REAL A(10)\n      A(1.5) = 0.0\n", "must be INTEGER")
	semaErr(t, "      X = B(3)\n", "not an array")
	semaErr(t, "      REAL A(10)\n      A = 0.0\n", "whole array")
	semaErr(t, "      REAL A(2.5)\n      X = 1\n", "must be INTEGER")
	semaErr(t, "      REAL MOD(5)\n      X = 1\n", "intrinsic")
}

func TestParameterChecks(t *testing.T) {
	semaErr(t, "      PARAMETER (N = 1)\n      N = 2\n", "cannot assign to PARAMETER")
	semaErr(t, "      PARAMETER (N = 1/0)\n      X = 1\n", "division by zero")
	semaErr(t, "      PARAMETER (N = X)\n      X = 1\n", "not a PARAMETER constant")
}

func TestCallChecks(t *testing.T) {
	src := `      PROGRAM P
      CALL S(1)
      END
      SUBROUTINE S(A, B)
      RETURN
      END
`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "1 arguments, subroutine takes 2") {
		t.Errorf("arity check: %v", err)
	}
	semaErr(t, "      RETURN\n", "RETURN in main program")
	// CALL to the main program is also rejected.
	src2 := `      PROGRAM P
      CALL P
      END
`
	if _, err := Parse(src2); err == nil || !strings.Contains(err.Error(), "no such subroutine") {
		t.Errorf("call-to-main check: %v", err)
	}
}

func TestProgramStructureChecks(t *testing.T) {
	twoMains := `      PROGRAM A
      END
      PROGRAM B
      END
`
	if _, err := Parse(twoMains); err == nil || !strings.Contains(err.Error(), "exactly one PROGRAM") {
		t.Errorf("two mains: %v", err)
	}
	dup := `      PROGRAM A
      END
      SUBROUTINE A
      RETURN
      END
`
	if _, err := Parse(dup); err == nil || !strings.Contains(err.Error(), "duplicate program unit") {
		t.Errorf("duplicate unit: %v", err)
	}
}

func TestIntrinsicArity(t *testing.T) {
	semaErr(t, "      X = SQRT(1.0, 2.0)\n", "takes 1 arguments")
	semaErr(t, "      X = MIN(1.0)\n", "at least 2")
	semaErr(t, "      LOGICAL L\n      X = SQRT(L)\n", "must be numeric")
}

func TestFoldIntAndLogical(t *testing.T) {
	u := parseBody(t, `      PARAMETER (N = 6, M = 2)
      X = 1
`)
	cases := []struct {
		expr string
		want int64
	}{
		{"N", 6}, {"N*M", 12}, {"N/M", 3}, {"N-M", 4}, {"N**M", 36}, {"-N", -6}, {"MOD(N, M) + 1", 0}, // MOD not foldable: want flag false
	}
	for _, c := range cases[:6] {
		e := parseExprString(t, c.expr)
		got, ok := FoldInt(u, e)
		if !ok || got != c.want {
			t.Errorf("FoldInt(%s) = %d, %v; want %d", c.expr, got, ok, c.want)
		}
	}
	if _, ok := FoldInt(u, parseExprString(t, "MOD(N, M)")); ok {
		t.Error("intrinsics must not fold")
	}
	if _, ok := FoldInt(u, parseExprString(t, "X")); ok {
		t.Error("variables must not fold")
	}

	logical := []struct {
		expr string
		want bool
	}{
		{"N .GT. M", true}, {"N .LT. M", false}, {".TRUE. .AND. N .EQ. 6", true},
		{".NOT. (M .GE. N)", true}, {"N .EQ. 6 .OR. X .GT. 0", false}, // second operand unfoldable
	}
	for _, c := range logical[:4] {
		e := parseExprString(t, c.expr)
		got, ok := FoldLogical(u, e)
		if !ok || got != c.want {
			t.Errorf("FoldLogical(%s) = %v, %v; want %v", c.expr, got, ok, c.want)
		}
	}
	if _, ok := FoldLogical(u, parseExprString(t, "N .EQ. 6 .OR. X .GT. 0")); ok {
		t.Error("expressions over variables must not fold")
	}
}

func parseExprString(t *testing.T, src string) Expr {
	t.Helper()
	lines, err := Lex("      JUNK = " + src + "\n")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTokens(lines[0])
	ts.next() // JUNK
	ts.next() // =
	e, err := ts.parseExpr()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestWalkVisitsNestedBodies(t *testing.T) {
	u := parseBody(t, `      INTEGER I
      DO 10 I = 1, 2
         IF (I .GT. 0) THEN
            X = 1.0
         ELSE
            X = 2.0
         ENDIF
         IF (I .GT. 1) X = 3.0
   10 CONTINUE
`)
	var assigns int
	Walk(u.Body, func(s Stmt) {
		if _, ok := s.(*Assign); ok {
			assigns++
		}
	})
	if assigns != 3 {
		t.Errorf("Walk saw %d assignments, want 3", assigns)
	}
}

func TestArrayDimensionLimit(t *testing.T) {
	u := parseBody(t, "      REAL A(2,2,2,2,2,2,2)\n      A(1,1,1,1,1,1,2) = 1.0\n")
	if got := len(u.Symbols["A"].Dims); got != MaxDims {
		t.Fatalf("A has %d dimensions, want %d", got, MaxDims)
	}
	semaErr(t, "      REAL A(2,2,2,2,2,2,2,2)\n      X = 1.0\n", "at most 7 allowed")
	semaErr(t, "      REAL A\n      DIMENSION A(2,2,2,2,2,2,2,2)\n      X = 1.0\n", "at most 7 allowed")
}

// TestIntPowMatchesRepeatedMultiplication pins square-and-multiply to the
// repeated-multiplication loop it replaced, wrapping included.
func TestIntPowMatchesRepeatedMultiplication(t *testing.T) {
	for base := int64(-3); base <= 3; base++ {
		want := int64(1)
		for exp := int64(0); exp <= 130; exp++ {
			if got := IntPow(base, exp); got != want {
				t.Fatalf("IntPow(%d, %d) = %d, want %d", base, exp, got, want)
			}
			want *= base
		}
	}
	for _, c := range []struct{ base, exp, want int64 }{
		{1, -3, 1}, {-1, -3, -1}, {-1, -4, 1}, {2, -1, 0}, {0, -2, 0},
	} {
		if got := IntPow(c.base, c.exp); got != c.want {
			t.Errorf("IntPow(%d, %d) = %d, want %d", c.base, c.exp, got, c.want)
		}
	}
}

// TestHugeExponentFoldsQuickly: folding a PARAMETER with a huge integer
// exponent takes logarithmic work, so a parse cannot be made to spin.
func TestHugeExponentFoldsQuickly(t *testing.T) {
	start := time.Now()
	u := parseBody(t, `      INTEGER K
      PARAMETER (K = 1**2000000000)
      PRINT *, K
`)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("parse took %v, want under 100ms", d)
	}
	if got := u.Symbols["K"].ConstValue; got != int64(1) {
		t.Errorf("K folds to %v, want 1", got)
	}
}

// TestValueAndArgumentKinds: a whole array is a value only as a CALL
// argument, a string literal only as a PRINT item, and every CALL
// argument's kind matches its parameter's. Each rejection names the
// statement's line and column. The bytecode compiler has code for
// nothing else, so these rules are what keep every accepted program
// compilable.
func TestValueAndArgumentKinds(t *testing.T) {
	main := func(body string) string {
		return "      PROGRAM P\n      REAL A(3), B(2)\n      INTEGER K(2)\n" + body + "      END\n"
	}
	sub := "      SUBROUTINE SA(V)\n      REAL V(3)\n      V(1) = 0.0\n      END\n" +
		"      SUBROUTINE SS(X)\n      X = 1.0\n      END\n" +
		"      SUBROUTINE SN(X)\n      END\n"
	cases := []struct {
		name, src, want string // want "" = accepted
	}{
		// Class 1: a whole array used as a value.
		{"array in expression", main("      X = A + 1.0\n"), "line 4:7: whole array A used as a value"},
		{"array in PRINT", main("      PRINT *, A\n"), "line 4:7: whole array A used as a value"},
		{"array as IF condition", main("      IF (A .GT. 0.0) X = 1.0\n"), "line 4:7: whole array A used as a value"},
		{"array in arithmetic IF", main("      IF (A) 10, 20, 20\n   10 CONTINUE\n   20 CONTINUE\n"), "line 4:7: whole array A used as a value"},
		{"array as computed GOTO index", main("      GOTO (10, 20), K\n   10 CONTINUE\n   20 CONTINUE\n"), "line 4:7: whole array K used as a value"},
		{"array as DO bound", main("      DO 10 I = 1, K\n   10 CONTINUE\n"), "line 4:7: whole array K used as a value"},
		{"array as intrinsic argument", main("      X = SQRT(A)\n"), "line 4:7: whole array A used as a value"},
		{"array as subscript", main("      A(K) = 1.0\n"), "line 4:7: whole array K used as a value"},
		{"array as array bound", main("      REAL C(K)\n"), "line 4:7: unit P: array C bound: whole array K used as a value"},
		// Class 2: a string literal anywhere except a PRINT item.
		{"string assigned", main("      X = 'AB'\n"), "line 4:7: string used as a value"},
		{"string as CALL argument", main("      CALL SS('AB')\n") + sub, "line 4:7: string used as a value"},
		{"string as array bound", main("      REAL C('AB')\n"), "line 4:7: unit P: array C bound: string used as a value"},
		// Class 3: an argument whose kind does not match its parameter.
		{"scalar to array parameter", main("      CALL SA(X)\n") + sub, "line 4:7: CALL SA: argument 1 for array parameter V is not an array"},
		{"constant to array parameter", "      PROGRAM P\n      PARAMETER (N = 3)\n      CALL SA(N)\n      END\n" + sub, "line 3:7: CALL SA: argument 1 for array parameter V is not an array"},
		{"element to array parameter", main("      CALL SA(A(1))\n") + sub, "line 4:7: CALL SA: argument 1 for array parameter V is not an array"},
		{"expression to array parameter", main("      CALL SA(X + 1.0)\n") + sub, "line 4:7: CALL SA: argument 1 for array parameter V is not an array"},
		{"array to scalar parameter", main("      CALL SS(A)\n") + sub, "line 4:7: CALL SS: array A passed to scalar parameter X"},
		{"array to unread scalar parameter", main("      CALL SN(B)\n") + sub, "line 4:7: CALL SN: array B passed to scalar parameter X"},
		{"array parameter passed on to a scalar one", main("      CALL SA(A)\n") + sub +
			"      SUBROUTINE SP(V)\n      REAL V(3)\n      CALL SS(V)\n      END\n", "line 17:7: CALL SS: array V passed to scalar parameter X"},
		{"callee declared before its caller", sub + main("      CALL SS(A)\n"), "line 13:7: CALL SS: array A passed to scalar parameter X"},
		{"string stored in a callee's array", `      PROGRAM BMAIN
      REAL X
      X = 1.0
      CALL BSUB(X)
      PRINT *, X
      END

      SUBROUTINE BSUB(X)
      REAL X
      REAL A(3)
      A(1) = 'AB'
      X = X + A(1)
      RETURN
      END
`, "line 11:7: string used as a value"},
		// Legal neighbours.
		{"element to scalar parameter", main("      CALL SS(A(2))\n") + sub, ""},
		{"array to array parameter", main("      CALL SA(A)\n") + sub, ""},
		{"array parameter passed on to an array one", main("      CALL SP(A)\n") + sub +
			"      SUBROUTINE SP(V)\n      REAL V(3)\n      CALL SA(V)\n      END\n", ""},
		{"strings in PRINT", main("      PRINT *, 'A(1) =', A(1), 'K', K(2)\n"), ""},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want == "":
		case err == nil:
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		case err.Error() != c.want:
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		default:
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%s: %T is not a *SyntaxError", c.name, err)
			}
		}
	}
}
