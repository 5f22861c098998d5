package interp_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/vm"
)

// The scalars every FuzzEvalConst program starts with, and their values.
var fuzzScalars = map[string]interp.Value{
	"I": interp.Int(7), "J": interp.Int(-3), "K": interp.Int(0),
	"N": interp.Int(1<<53 + 1),
	"X": interp.Real(2.5), "Y": interp.Real(-0.5), "Z": interp.Real(0),
	"L": interp.Logical(true), "M": interp.Logical(false),
}

var (
	intLeaves  = []string{"I", "J", "K", "N", "2", "9007199254740992"}
	realLeaves = []string{"X", "Y", "Z", "1.0", "0.0"}
	logLeaves  = []string{"L", "M", ".TRUE.", ".FALSE."}
	arithOps   = []string{"+", "-", "*", "/", "**"}
	relOps     = []string{".LT.", ".LE.", ".GT.", ".GE.", ".EQ.", ".NE."}
	logOps     = []string{".AND.", ".OR.", ".EQV.", ".NEQV."}
)

// exprGen decodes fuzz bytes into a well-typed expression: each byte picks
// a production, a missing byte reads as 0 (a leaf).
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

func pick(xs []string, b int) string { return xs[b%len(xs)] }

func (g *exprGen) expr(t lang.Type, depth int) string {
	if depth >= 4 {
		return g.leaf(t)
	}
	d := depth + 1
	switch t {
	case lang.TInt:
		switch g.next() % 5 {
		case 1:
			op := pick(arithOps, g.next())
			return "(" + g.expr(lang.TInt, d) + op + g.expr(lang.TInt, d) + ")"
		case 2:
			return "(-" + g.expr(lang.TInt, d) + ")"
		case 3:
			switch g.next() % 6 {
			case 0:
				return "ABS(" + g.expr(lang.TInt, d) + ")"
			case 1:
				return "MOD(" + g.expr(lang.TInt, d) + "," + g.expr(lang.TInt, d) + ")"
			case 2:
				return "SIGN(" + g.expr(lang.TInt, d) + "," + g.expr(lang.TInt, d) + ")"
			case 3:
				return "MIN(" + g.expr(lang.TInt, d) + "," + g.expr(lang.TInt, d) + ")"
			case 4:
				return "MAX(" + g.expr(lang.TInt, d) + "," + g.expr(lang.TInt, d) + "," + g.expr(lang.TInt, d) + ")"
			default:
				return "INT(" + g.expr(lang.TReal, d) + ")"
			}
		case 4:
			return "IRAND(" + g.expr(lang.TInt, d) + ")"
		}
	case lang.TReal:
		switch g.next() % 5 {
		case 1:
			op := pick(arithOps, g.next())
			l, r := lang.TReal, lang.TReal
			switch g.next() % 3 {
			case 1:
				r = lang.TInt
			case 2:
				l = lang.TInt
			}
			return "(" + g.expr(l, d) + op + g.expr(r, d) + ")"
		case 2:
			return "(-" + g.expr(lang.TReal, d) + ")"
		case 3:
			switch g.next() % 11 {
			case 0:
				return "SQRT(" + g.expr(lang.TReal, d) + ")"
			case 1:
				return "EXP(" + g.expr(lang.TReal, d) + ")"
			case 2:
				return "LOG(" + g.expr(lang.TReal, d) + ")"
			case 3:
				return "SIN(" + g.expr(lang.TReal, d) + ")"
			case 4:
				return "COS(" + g.expr(lang.TReal, d) + ")"
			case 5:
				return "REAL(" + g.expr(lang.TInt, d) + ")"
			case 6:
				return "ABS(" + g.expr(lang.TReal, d) + ")"
			case 7:
				return "MOD(" + g.expr(lang.TReal, d) + "," + g.expr(lang.TReal, d) + ")"
			case 8:
				return "SIGN(" + g.expr(lang.TReal, d) + "," + g.expr(lang.TInt, d) + ")"
			case 9:
				return "MIN(" + g.expr(lang.TReal, d) + "," + g.expr(lang.TInt, d) + ")"
			default:
				return "MAX(" + g.expr(lang.TInt, d) + "," + g.expr(lang.TReal, d) + ")"
			}
		case 4:
			return "RAND()"
		}
	default:
		switch g.next() % 4 {
		case 1:
			op := pick(relOps, g.next())
			types := [][2]lang.Type{{lang.TInt, lang.TInt}, {lang.TReal, lang.TReal}, {lang.TInt, lang.TReal}, {lang.TReal, lang.TInt}}
			lr := types[g.next()%len(types)]
			return "(" + g.expr(lr[0], d) + op + g.expr(lr[1], d) + ")"
		case 2:
			op := pick(logOps, g.next())
			return "(" + g.expr(lang.TLogical, d) + op + g.expr(lang.TLogical, d) + ")"
		case 3:
			return "(.NOT." + g.expr(lang.TLogical, d) + ")"
		}
	}
	return g.leaf(t)
}

func (g *exprGen) leaf(t lang.Type) string {
	switch t {
	case lang.TInt:
		return pick(intLeaves, g.next())
	case lang.TReal:
		return pick(realLeaves, g.next())
	}
	return pick(logLeaves, g.next())
}

// parseValue reads back what PRINT wrote for a value of type t. Value's
// %g formatting is the shortest text that round-trips a float64.
func parseValue(t *testing.T, ty lang.Type, s string) interp.Value {
	t.Helper()
	switch ty {
	case lang.TInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PRINT wrote %q for an INTEGER: %v", s, err)
		}
		return interp.Int(i)
	case lang.TReal:
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("PRINT wrote %q for a REAL: %v", s, err)
		}
		return interp.Real(r)
	}
	return interp.Logical(s == "T")
}

// FuzzEvalConst checks that SCCP's constant evaluator never disagrees with
// execution. The first byte picks the result type, the rest an expression
// over scalars of known value; the program assigns it and prints it. Where
// EvalConst answers ok, the tree-walker and the VM must both succeed with
// a value dataflow.ValueEq accepts; where an engine fails, EvalConst must
// not be ok. The engines must also agree with each other, errors included.
func FuzzEvalConst(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		ty := []lang.Type{lang.TInt, lang.TReal, lang.TLogical}[g.next()%3]
		target := map[lang.Type]string{lang.TInt: "IR", lang.TReal: "R", lang.TLogical: "LR"}[ty]
		rhs := g.expr(ty, 0)
		var src strings.Builder
		src.WriteString("      PROGRAM F\n      INTEGER I, J, K, N, IR\n      REAL X, Y, Z, R\n      LOGICAL L, M, LR\n")
		for _, name := range []string{"I", "J", "K", "N", "X", "Y", "Z", "L", "M"} {
			v := fuzzScalars[name]
			lit := v.String()
			switch v.T {
			case lang.TReal:
				lit = strconv.FormatFloat(v.R, 'f', -1, 64)
				if !strings.Contains(lit, ".") {
					lit += ".0"
				}
			case lang.TLogical:
				lit = map[bool]string{true: ".TRUE.", false: ".FALSE."}[v.B]
			}
			src.WriteString("      " + name + " = " + lit + "\n")
		}
		src.WriteString("      " + target + " = " + rhs + "\n      PRINT *, " + target + "\n      END\n")
		prog, err := lang.Parse(src.String())
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src.String())
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatalf("lower: %v\n%s", err, src.String())
		}
		u := prog.Units[0]
		assign := u.Body[len(u.Body)-2].(*lang.Assign)
		cv, ok := interp.EvalConst(u, assign.RHS, func(x *lang.Var) (interp.Value, bool) {
			v, known := fuzzScalars[x.Name]
			return v, known
		})

		var tout, vout bytes.Buffer
		opt := interp.Options{Seed: 1, MaxSteps: 1000}
		topt, vopt := opt, opt
		topt.Engine, topt.Out = interp.EngineTree, &tout
		vopt.Out = &vout
		_, terr := interp.Run(res, topt)
		c, err := vm.Compile(res)
		if err != nil {
			t.Fatalf("vm compile: %v\n%s", err, src.String())
		}
		_, verr := c.Run(vopt)
		if (terr == nil) != (verr == nil) || (terr != nil && terr.Error() != verr.Error()) || tout.String() != vout.String() {
			t.Fatalf("engines disagree on %s: tree %v %q, vm %v %q", rhs, terr, tout.String(), verr, vout.String())
		}
		if terr != nil {
			if ok {
				t.Fatalf("EvalConst(%s) = %v, ok; the engines fail: %v", rhs, cv, terr)
			}
			return
		}
		if !ok {
			return
		}
		if got := parseValue(t, ty, strings.TrimSpace(tout.String())); !dataflow.ValueEq(cv, got) {
			t.Fatalf("EvalConst(%s) = %v, the engines computed %v", rhs, cv, got)
		}
	})
}
