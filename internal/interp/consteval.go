package interp

import (
	"math"

	"repro/internal/lang"
)

// ConstEnv supplies the scalar variables whose runtime value is known at the
// program point being evaluated. ok=false means "unknown", not "absent".
type ConstEnv func(v *lang.Var) (Value, bool)

// EvalConst evaluates e exactly as machine.eval would, using only the
// constants env supplies plus folded PARAMETER symbols. It returns ok=true
// only when every execution reaching this program point is guaranteed to
// produce v: any leaf outside env, any nondeterminism (RAND/IRAND), any
// array access, and any expression whose runtime evaluation could fail
// (division by zero, MOD by zero, SQRT/LOG domain errors) all yield
// ok=false. It must stay semantically identical to machine.eval — integer
// arithmetic stays integer with truncating division and lang.IntPow, mixed
// arithmetic promotes through Float, relationals compare as float64 — so
// that a static "constant" claim can never disagree with an actual run.
func EvalConst(u *lang.Unit, e lang.Expr, env ConstEnv) (Value, bool) {
	switch x := e.(type) {
	case *lang.IntLit:
		return Int(x.Val), true
	case *lang.RealLit:
		return Real(x.Val), true
	case *lang.LogLit:
		return Logical(x.Val), true
	case *lang.StrLit:
		return Value{}, false // runtime error: string used as value
	case *lang.Var:
		if v, ok := env(x); ok {
			return v, true
		}
		if sym := x.Sym; u != nil && sym != nil && sym.Kind == lang.SymConst {
			return constValue(sym), true
		}
		return Value{}, false
	case *lang.Index:
		return Value{}, false // array elements are not tracked
	case *lang.Un:
		v, ok := EvalConst(u, x.X, env)
		if !ok {
			return Value{}, false
		}
		switch x.Op {
		case lang.OpNot:
			return Logical(!v.B), true
		case lang.OpNeg:
			if v.T == lang.TInt {
				return Int(-v.I), true
			}
			return Real(-v.R), true
		default:
			return v, true
		}
	case *lang.Bin:
		return evalConstBin(u, x, env)
	case *lang.Intrinsic:
		return evalConstIntrinsic(u, x, env)
	}
	return Value{}, false
}

// evalConstBin mirrors machine.evalBin. Both operands must be known (the
// runtime evaluates both unconditionally, so there is no short-circuiting
// to exploit).
func evalConstBin(u *lang.Unit, x *lang.Bin, env ConstEnv) (Value, bool) {
	l, ok := EvalConst(u, x.L, env)
	if !ok {
		return Value{}, false
	}
	r, ok := EvalConst(u, x.R, env)
	if !ok {
		return Value{}, false
	}
	switch x.Op {
	case lang.OpAnd:
		return Logical(l.B && r.B), true
	case lang.OpOr:
		return Logical(l.B || r.B), true
	case lang.OpEqv:
		return Logical(l.B == r.B), true
	case lang.OpNeqv:
		return Logical(l.B != r.B), true
	}
	if x.Op.Relational() {
		a, b := l.Float(), r.Float()
		if l.T == lang.TInt && r.T == lang.TInt {
			a, b = float64(l.I), float64(r.I)
		}
		switch x.Op {
		case lang.OpLT:
			return Logical(a < b), true
		case lang.OpLE:
			return Logical(a <= b), true
		case lang.OpGT:
			return Logical(a > b), true
		case lang.OpGE:
			return Logical(a >= b), true
		case lang.OpEQ:
			return Logical(a == b), true
		default:
			return Logical(a != b), true
		}
	}
	if l.T == lang.TInt && r.T == lang.TInt {
		switch x.Op {
		case lang.OpAdd:
			return Int(l.I + r.I), true
		case lang.OpSub:
			return Int(l.I - r.I), true
		case lang.OpMul:
			return Int(l.I * r.I), true
		case lang.OpDiv:
			if r.I == 0 {
				return Value{}, false // runtime error
			}
			return Int(l.I / r.I), true
		case lang.OpPow:
			return Int(lang.IntPow(l.I, r.I)), true
		}
	}
	a, b := l.Float(), r.Float()
	switch x.Op {
	case lang.OpAdd:
		return Real(a + b), true
	case lang.OpSub:
		return Real(a - b), true
	case lang.OpMul:
		return Real(a * b), true
	case lang.OpDiv:
		if b == 0 {
			return Value{}, false // runtime error
		}
		return Real(a / b), true
	case lang.OpPow:
		return Real(math.Pow(a, b)), true
	}
	return Value{}, false
}

// evalConstIntrinsic mirrors machine.evalIntrinsic for the deterministic
// intrinsics; RAND and IRAND are never foldable.
func evalConstIntrinsic(u *lang.Unit, x *lang.Intrinsic, env ConstEnv) (Value, bool) {
	if x.Name == "RAND" || x.Name == "IRAND" {
		return Value{}, false
	}
	var buf [4]Value // intrinsics take at most a few arguments
	args := buf[:0]
	for _, a := range x.Args {
		v, ok := EvalConst(u, a, env)
		if !ok {
			return Value{}, false
		}
		args = append(args, v)
	}
	if len(args) == 0 {
		return Value{}, false
	}
	allInt := true
	for _, a := range args {
		if a.T != lang.TInt {
			allInt = false
		}
	}
	switch x.Name {
	case "ABS":
		if args[0].T == lang.TInt {
			if args[0].I < 0 {
				return Int(-args[0].I), true
			}
			return args[0], true
		}
		return Real(math.Abs(args[0].R)), true
	case "MOD":
		if len(args) < 2 {
			return Value{}, false
		}
		if allInt {
			if args[1].I == 0 {
				return Value{}, false // runtime error
			}
			return Int(args[0].I % args[1].I), true
		}
		return Real(math.Mod(args[0].Float(), args[1].Float())), true
	case "SIGN":
		if len(args) < 2 {
			return Value{}, false
		}
		mag := math.Abs(args[0].Float())
		if args[1].Float() < 0 {
			mag = -mag
		}
		if allInt {
			return Int(int64(mag)), true
		}
		return Real(mag), true
	case "MIN", "MAX":
		best := args[0]
		for _, a := range args[1:] {
			better := a.Float() < best.Float()
			if x.Name == "MAX" {
				better = a.Float() > best.Float()
			}
			if better {
				best = a
			}
		}
		if allInt {
			return Int(int64(best.Float())), true
		}
		return Real(best.Float()), true
	case "SQRT":
		v := args[0].Float()
		if v < 0 {
			return Value{}, false // runtime error
		}
		return Real(math.Sqrt(v)), true
	case "EXP":
		return Real(math.Exp(args[0].Float())), true
	case "LOG":
		v := args[0].Float()
		if v <= 0 {
			return Value{}, false // runtime error
		}
		return Real(math.Log(v)), true
	case "SIN":
		return Real(math.Sin(args[0].Float())), true
	case "COS":
		return Real(math.Cos(args[0].Float())), true
	case "INT":
		return Int(int64(args[0].Float())), true
	case "REAL":
		return Real(args[0].Float()), true
	}
	return Value{}, false
}
