package interp

import (
	"fmt"
	"math"

	"repro/internal/lang"
)

// The value-level semantics of the language: operators, builtins, DO trip
// counts and the RAND/IRAND generator. The tree-walker, the bytecode VM and
// EvalConst each fetch operands their own way and call these, so an
// expression means one thing everywhere. A non-empty msg is the runtime
// error text; callers wrap it in a *RuntimeError carrying their unit name.

// UnOp applies a unary operator to an evaluated operand.
func UnOp(op lang.UnOp, v Value) Value {
	switch op {
	case lang.OpNot:
		return Logical(!v.B)
	case lang.OpNeg:
		if v.T == lang.TInt {
			return Int(-v.I)
		}
		return Real(-v.R)
	}
	return v
}

// BinOp applies a binary operator to two evaluated operands. INTEGER
// arithmetic stays integer, with truncating division and lang.IntPow;
// mixed arithmetic promotes through Float; relationals compare as float64.
// The all-REAL block comes first because it is the common case (~96% of
// draws on the bench corpus, counting relationals); it covers every
// operator two TReal operands can meet and computes on .R exactly as the
// mixed path's Float() conversions do. The all-INTEGER block follows for
// the same reason.
func BinOp(op lang.BinOp, l, r Value) (v Value, msg string) {
	if l.T == lang.TReal && r.T == lang.TReal {
		switch op {
		case lang.OpAdd:
			return Real(l.R + r.R), ""
		case lang.OpSub:
			return Real(l.R - r.R), ""
		case lang.OpMul:
			return Real(l.R * r.R), ""
		case lang.OpDiv:
			if r.R == 0 {
				return Value{}, "division by zero"
			}
			return Real(l.R / r.R), ""
		case lang.OpPow:
			return Real(math.Pow(l.R, r.R)), ""
		case lang.OpLT:
			return Logical(l.R < r.R), ""
		case lang.OpLE:
			return Logical(l.R <= r.R), ""
		case lang.OpGT:
			return Logical(l.R > r.R), ""
		case lang.OpGE:
			return Logical(l.R >= r.R), ""
		case lang.OpEQ:
			return Logical(l.R == r.R), ""
		case lang.OpNE:
			return Logical(l.R != r.R), ""
		}
	}
	if l.T == lang.TInt && r.T == lang.TInt {
		switch op {
		case lang.OpAdd:
			return Int(l.I + r.I), ""
		case lang.OpSub:
			return Int(l.I - r.I), ""
		case lang.OpMul:
			return Int(l.I * r.I), ""
		case lang.OpDiv:
			if r.I == 0 {
				return Value{}, "integer division by zero"
			}
			return Int(l.I / r.I), ""
		case lang.OpPow:
			return Int(lang.IntPow(l.I, r.I)), ""
		case lang.OpLT:
			return Logical(float64(l.I) < float64(r.I)), ""
		case lang.OpLE:
			return Logical(float64(l.I) <= float64(r.I)), ""
		case lang.OpGT:
			return Logical(float64(l.I) > float64(r.I)), ""
		case lang.OpGE:
			return Logical(float64(l.I) >= float64(r.I)), ""
		case lang.OpEQ:
			return Logical(float64(l.I) == float64(r.I)), ""
		case lang.OpNE:
			return Logical(float64(l.I) != float64(r.I)), ""
		}
	}
	switch op {
	case lang.OpAnd:
		return Logical(l.B && r.B), ""
	case lang.OpOr:
		return Logical(l.B || r.B), ""
	case lang.OpEqv:
		return Logical(l.B == r.B), ""
	case lang.OpNeqv:
		return Logical(l.B != r.B), ""
	}
	a, b := l.Float(), r.Float()
	switch op {
	case lang.OpAdd:
		return Real(a + b), ""
	case lang.OpSub:
		return Real(a - b), ""
	case lang.OpMul:
		return Real(a * b), ""
	case lang.OpDiv:
		if b == 0 {
			return Value{}, "division by zero"
		}
		return Real(a / b), ""
	case lang.OpPow:
		return Real(math.Pow(a, b)), ""
	case lang.OpLT:
		return Logical(a < b), ""
	case lang.OpLE:
		return Logical(a <= b), ""
	case lang.OpGT:
		return Logical(a > b), ""
	case lang.OpGE:
		return Logical(a >= b), ""
	case lang.OpEQ:
		return Logical(a == b), ""
	case lang.OpNE:
		return Logical(a != b), ""
	}
	return Value{}, fmt.Sprintf("bad operator %v", op)
}

// Intrinsic applies builtin fn to its evaluated arguments, whose count
// semantic analysis has checked. RAND and IRAND draw from *rng; every
// other builtin leaves it alone, so EvalConst passes nil.
func Intrinsic(fn lang.IntrinsicID, args []Value, rng *uint64) (v Value, msg string) {
	allInt := true
	for _, a := range args {
		if a.T != lang.TInt {
			allInt = false
		}
	}
	switch fn {
	case lang.IntrABS:
		if args[0].T == lang.TInt {
			if args[0].I < 0 {
				return Int(-args[0].I), ""
			}
			return args[0], ""
		}
		return Real(math.Abs(args[0].R)), ""
	case lang.IntrMOD:
		if allInt {
			if args[1].I == 0 {
				return Value{}, "MOD by zero"
			}
			return Int(args[0].I % args[1].I), ""
		}
		return Real(math.Mod(args[0].Float(), args[1].Float())), ""
	case lang.IntrSIGN:
		mag := math.Abs(args[0].Float())
		if args[1].Float() < 0 {
			mag = -mag
		}
		if allInt {
			return Int(int64(mag)), ""
		}
		return Real(mag), ""
	case lang.IntrMIN, lang.IntrMAX:
		best := args[0]
		for _, a := range args[1:] {
			better := a.Float() < best.Float()
			if fn == lang.IntrMAX {
				better = a.Float() > best.Float()
			}
			if better {
				best = a
			}
		}
		if allInt {
			return Int(int64(best.Float())), ""
		}
		return Real(best.Float()), ""
	case lang.IntrSQRT:
		x := args[0].Float()
		if x < 0 {
			return Value{}, "SQRT of negative value"
		}
		return Real(math.Sqrt(x)), ""
	case lang.IntrEXP:
		return Real(math.Exp(args[0].Float())), ""
	case lang.IntrLOG:
		x := args[0].Float()
		if x <= 0 {
			return Value{}, "LOG of non-positive value"
		}
		return Real(math.Log(x)), ""
	case lang.IntrSIN:
		return Real(math.Sin(args[0].Float())), ""
	case lang.IntrCOS:
		return Real(math.Cos(args[0].Float())), ""
	case lang.IntrINT:
		return Int(int64(args[0].Float())), ""
	case lang.IntrREAL:
		return Real(args[0].Float()), ""
	case lang.IntrRAND:
		return Real(rand(rng)), ""
	case lang.IntrIRAND:
		n := args[0].I
		if n < 1 {
			return Value{}, "IRAND needs a positive bound"
		}
		return Int(1 + int64(rand(rng)*float64(n))), ""
	}
	return Value{}, fmt.Sprintf("unknown intrinsic %d", fn)
}

// TripCount is the F77 trip count of a counted DO loop whose bounds
// evaluated to lo, hi and step: MAX(0, (hi-lo+step)/step).
func TripCount(lo, hi, step int64) (trip int64, msg string) {
	if step == 0 {
		return 0, "DO step is zero"
	}
	return max(0, (hi-lo+step)/step), ""
}

// SeedRNG returns the RAND/IRAND generator state a run with this seed
// starts from.
func SeedRNG(seed uint64) uint64 { return seed*2862933555777941757 + 3037000493 }

// rand advances the 64-bit LCG state *rng and returns a draw in [0, 1).
func rand(rng *uint64) float64 {
	*rng = *rng*6364136223846793005 + 1442695040888963407
	return float64(*rng>>11) / float64(1<<53)
}
