package interp

import "repro/internal/lang"

// ConstEnv supplies the scalar variables whose runtime value is known at the
// program point being evaluated. ok=false means "unknown", not "absent".
type ConstEnv func(v *lang.Var) (Value, bool)

// EvalConst evaluates e with the engines' own operators (BinOp, UnOp,
// Intrinsic) over the constants env supplies, folded PARAMETER symbols and
// literals. It returns ok=true only when every execution reaching this
// program point is guaranteed to produce v: any leaf outside env, any array
// element or string, any RAND/IRAND draw, and any operation that reports a
// runtime error (a zero divisor, a SQRT or LOG domain error) yields
// ok=false, so a static "constant" claim can never disagree with an actual
// run.
func EvalConst(u *lang.Unit, e lang.Expr, env ConstEnv) (Value, bool) {
	switch x := e.(type) {
	case *lang.IntLit:
		return Int(x.Val), true
	case *lang.RealLit:
		return Real(x.Val), true
	case *lang.LogLit:
		return Logical(x.Val), true
	case *lang.Var:
		if v, ok := env(x); ok {
			return v, true
		}
		if sym := x.Sym; u != nil && sym != nil && sym.Kind == lang.SymConst {
			return constValue(sym), true
		}
	case *lang.Un:
		if v, ok := EvalConst(u, x.X, env); ok {
			return UnOp(x.Op, v), true
		}
	case *lang.Bin:
		// The runtime evaluates both operands unconditionally, so there is
		// no short-circuiting to exploit.
		l, ok := EvalConst(u, x.L, env)
		if !ok {
			return Value{}, false
		}
		r, ok := EvalConst(u, x.R, env)
		if !ok {
			return Value{}, false
		}
		v, msg := BinOp(x.Op, l, r)
		return v, msg == ""
	case *lang.Intrinsic:
		if x.ID == lang.IntrRAND || x.ID == lang.IntrIRAND {
			return Value{}, false
		}
		var buf [4]Value
		args := buf[:0]
		for _, a := range x.Args {
			v, ok := EvalConst(u, a, env)
			if !ok {
				return Value{}, false
			}
			args = append(args, v)
		}
		v, msg := Intrinsic(x.ID, args, nil)
		return v, msg == ""
	}
	return Value{}, false
}
