package lang

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Analyze runs semantic analysis over the whole program: it resolves
// PARAMETER constants, builds per-unit symbol tables (with Fortran implicit
// typing: undeclared I–N names are INTEGER, the rest REAL), type-checks
// every statement and expression, verifies label usage (targets exist, no
// jumps into DO bodies or IF arms from outside), and checks CALL sites
// against subroutine signatures. It resolves every name once: each symbol
// gets its Slot, and every Var, Index and DoLoop its Sym/VarSym.
func Analyze(prog *Program) error {
	mains := 0
	seen := map[string]bool{}
	for _, u := range prog.Units {
		if u.IsMain {
			mains++
		}
		if seen[u.Name] {
			return fmt.Errorf("duplicate program unit %s", u.Name)
		}
		seen[u.Name] = true
	}
	if mains != 1 {
		return fmt.Errorf("program must have exactly one PROGRAM unit, found %d", mains)
	}
	for _, u := range prog.Units {
		a := &analyzer{prog: prog, unit: u, resolve: true}
		if err := a.run(); err != nil {
			return err
		}
	}
	return nil
}

type analyzer struct {
	prog *Program
	unit *Unit
	// resolve makes foldConst stamp the Vars it folds. Only Analyze sets
	// it: FoldInt and FoldLogical run on analyzed ASTs that other
	// goroutines may be reading.
	resolve bool
	// labels maps a statement label to the block path where it is defined;
	// paths are dot-joined block IDs so prefix testing detects illegal
	// inward jumps.
	labels map[int]string
	// gotos records (target label, block path of the GOTO, line).
	gotos []gotoRef
	// blockSeq generates unique block IDs.
	blockSeq int
}

type gotoRef struct {
	target int
	path   string
	line   int
	col    int
}

func (a *analyzer) run() error {
	u := a.unit
	u.Symbols = make(map[string]*Symbol)

	// PARAMETER constants first (they may appear in array bounds).
	for _, c := range u.Consts {
		if _, dup := u.Symbols[c.Name]; dup {
			return errf(c.Line, c.Col, "duplicate name %s", c.Name)
		}
		val, ty, err := a.foldConst(c.Value)
		if err != nil {
			return errf(c.Line, c.Col, "PARAMETER %s: %v", c.Name, err)
		}
		u.Symbols[c.Name] = &Symbol{Name: c.Name, Kind: SymConst, Type: ty, ConstValue: val}
	}

	// Declarations. DIMENSION (Type == TNone) keeps the implicit type.
	for _, d := range u.Decls {
		for _, item := range d.Items {
			if len(item.Dims) > MaxDims {
				return errf(d.Line, d.Col, "array %s has %d dimensions, at most %d allowed", item.Name, len(item.Dims), MaxDims)
			}
			ty := d.Type
			if ty == TNone {
				ty = implicitType(item.Name)
			}
			if prev, dup := u.Symbols[item.Name]; dup {
				// A second mention is legal in two forms: adding dimensions
				// to a previously typed scalar ("INTEGER N" + "DIMENSION
				// N(10)"), or giving an explicit type to a PARAMETER
				// constant ("INTEGER N" + "PARAMETER (N = 100)" in either
				// order).
				if prev.Kind == SymScalar && len(item.Dims) > 0 && (d.Type == TNone || d.Type == prev.Type) {
					prev.Kind = SymArray
					prev.Dims = item.Dims
					continue
				}
				if prev.Kind == SymConst && len(item.Dims) == 0 && d.Type != TNone {
					if prev.Type == TReal && d.Type == TInt {
						// Integer-typed parameter folded as real: re-fold is
						// unnecessary since foldConst kept int64 for TInt
						// expressions; just truncate.
						if rv, ok := prev.ConstValue.(float64); ok {
							prev.ConstValue = int64(rv)
						}
					}
					prev.Type = d.Type
					continue
				}
				return errf(d.Line, d.Col, "duplicate declaration of %s", item.Name)
			}
			sym := &Symbol{Name: item.Name, Type: ty}
			if len(item.Dims) > 0 {
				sym.Kind = SymArray
				sym.Dims = item.Dims
			}
			if _, isIntr := Intrinsics[item.Name]; isIntr && sym.Kind == SymArray {
				return errf(d.Line, d.Col, "cannot declare array %s: name is an intrinsic function", item.Name)
			}
			u.Symbols[item.Name] = sym
		}
	}
	for _, p := range u.Params {
		sym, ok := u.Symbols[p]
		if !ok {
			sym = &Symbol{Name: p, Type: implicitType(p)}
			u.Symbols[p] = sym
		}
		if sym.Kind == SymConst {
			return fmt.Errorf("unit %s: parameter %s conflicts with PARAMETER constant", u.Name, p)
		}
		sym.IsParam = true
	}

	// Array bounds must be integer expressions over constants and (in
	// subroutines) parameters.
	for _, sym := range u.Symbols {
		for _, dim := range sym.Dims {
			ty, err := a.typeOf(dim)
			if err != nil {
				return fmt.Errorf("unit %s: array %s bound: %v", u.Name, sym.Name, err)
			}
			if ty != TInt {
				return fmt.Errorf("unit %s: array %s bound must be INTEGER", u.Name, sym.Name)
			}
		}
	}

	// Collect labels with their block paths, then statements.
	a.labels = make(map[int]string)
	a.gotos = nil
	if err := a.checkBlock(u.Body, "0"); err != nil {
		return err
	}
	for _, g := range a.gotos {
		defPath, ok := a.labels[g.target]
		if !ok {
			return errf(g.line, g.col, "GOTO %d: no such label in unit %s", g.target, u.Name)
		}
		// Legal iff the label's block is the GOTO's block or an ancestor:
		// jumping out of blocks is fine, jumping in is not.
		if !strings.HasPrefix(g.path+".", defPath+".") {
			return errf(g.line, g.col, "GOTO %d jumps into a nested block", g.target)
		}
	}

	// Number the symbols densely in sorted-name order.
	u.Slots = make([]*Symbol, 0, len(u.Symbols))
	for _, sym := range u.Symbols {
		u.Slots = append(u.Slots, sym)
	}
	slices.SortFunc(u.Slots, func(x, y *Symbol) int { return strings.Compare(x.Name, y.Name) })
	for i, sym := range u.Slots {
		sym.Slot = i
	}
	return nil
}

func implicitType(name string) Type {
	if name == "" {
		return TReal
	}
	if c := name[0]; c >= 'I' && c <= 'N' {
		return TInt
	}
	return TReal
}

// lookup returns the symbol for name, creating it with the implicit type on
// first use (Fortran implicit typing).
func (a *analyzer) lookup(name string) *Symbol {
	if sym, ok := a.unit.Symbols[name]; ok {
		return sym
	}
	sym := &Symbol{Name: name, Kind: SymScalar, Type: implicitType(name)}
	a.unit.Symbols[name] = sym
	return sym
}

func (a *analyzer) checkBlock(body []Stmt, path string) error {
	for _, s := range body {
		if l := s.Lab(); l != 0 {
			if _, dup := a.labels[l]; dup {
				return errf(s.Pos(), s.Column(), "duplicate statement label %d", l)
			}
			a.labels[l] = path
		}
		if err := a.checkStmt(s, path); err != nil {
			return err
		}
	}
	return nil
}

func (a *analyzer) subBlock() string {
	a.blockSeq++
	return fmt.Sprintf("%d", a.blockSeq)
}

func (a *analyzer) checkStmt(s Stmt, path string) error {
	switch st := s.(type) {
	case *Assign:
		return a.checkAssign(st)
	case *IfBlock:
		if err := a.checkCond(st.Cond, st.Line, st.Col); err != nil {
			return err
		}
		if err := a.checkBlock(st.Then, path+"."+a.subBlock()); err != nil {
			return err
		}
		for _, arm := range st.Elifs {
			if err := a.checkCond(arm.Cond, arm.Line, 0); err != nil {
				return err
			}
			if err := a.checkBlock(arm.Body, path+"."+a.subBlock()); err != nil {
				return err
			}
		}
		return a.checkBlock(st.Else, path+"."+a.subBlock())
	case *LogicalIf:
		if err := a.checkCond(st.Cond, st.Line, st.Col); err != nil {
			return err
		}
		if _, nested := st.Then.(*LogicalIf); nested {
			return errf(st.Line, st.Col, "logical IF body cannot be another IF")
		}
		return a.checkStmt(st.Then, path)
	case *ArithIf:
		ty, err := a.typeOf(st.Expr)
		if err != nil {
			return errf(st.Line, st.Col, "%v", err)
		}
		if ty != TInt && ty != TReal {
			return errf(st.Line, st.Col, "arithmetic IF needs a numeric expression")
		}
		for _, t := range []int{st.OnNeg, st.OnZero, st.OnPos} {
			a.gotos = append(a.gotos, gotoRef{target: t, path: path, line: st.Line, col: st.Col})
		}
		return nil
	case *DoLoop:
		sym := a.lookup(st.Var)
		st.VarSym = sym
		if sym.Kind != SymScalar || sym.Type != TInt {
			return errf(st.Line, st.Col, "DO variable %s must be an INTEGER scalar", st.Var)
		}
		for _, e := range []Expr{st.Lo, st.Hi, st.Step} {
			if e == nil {
				continue
			}
			ty, err := a.typeOf(e)
			if err != nil {
				return errf(st.Line, st.Col, "%v", err)
			}
			if ty != TInt {
				return errf(st.Line, st.Col, "DO bounds must be INTEGER")
			}
		}
		return a.checkBlock(st.Body, path+"."+a.subBlock())
	case *Goto:
		a.gotos = append(a.gotos, gotoRef{target: st.Target, path: path, line: st.Line, col: st.Col})
		return nil
	case *ComputedGoto:
		ty, err := a.typeOf(st.Expr)
		if err != nil {
			return errf(st.Line, st.Col, "%v", err)
		}
		if ty != TInt {
			return errf(st.Line, st.Col, "computed GOTO index must be INTEGER")
		}
		for _, t := range st.Targets {
			a.gotos = append(a.gotos, gotoRef{target: t, path: path, line: st.Line, col: st.Col})
		}
		return nil
	case *CallStmt:
		callee := a.prog.Unit(st.Name)
		if callee == nil || callee.IsMain {
			return errf(st.Line, st.Col, "CALL %s: no such subroutine", st.Name)
		}
		if len(st.Args) != len(callee.Params) {
			return errf(st.Line, st.Col, "CALL %s: %d arguments, subroutine takes %d",
				st.Name, len(st.Args), len(callee.Params))
		}
		for _, arg := range st.Args {
			if _, err := a.typeOf(arg); err != nil {
				return errf(st.Line, st.Col, "%v", err)
			}
		}
		return nil
	case *Return:
		if a.unit.IsMain {
			return errf(st.Line, st.Col, "RETURN in main program (use STOP or END)")
		}
		return nil
	case *StopStmt, *Continue:
		return nil
	case *Print:
		for _, e := range st.Items {
			if _, err := a.typeOf(e); err != nil {
				return errf(st.Line, st.Col, "%v", err)
			}
		}
		return nil
	}
	return errf(s.Pos(), s.Column(), "unhandled statement %T", s)
}

func (a *analyzer) checkCond(e Expr, line, col int) error {
	ty, err := a.typeOf(e)
	if err != nil {
		return errf(line, col, "%v", err)
	}
	if ty != TLogical {
		return errf(line, col, "IF condition must be LOGICAL, got %s", ty)
	}
	return nil
}

func (a *analyzer) checkAssign(st *Assign) error {
	var sym *Symbol
	switch lhs := st.LHS.(type) {
	case *Var:
		sym = a.lookup(lhs.Name)
		lhs.Sym = sym
		if sym.Kind == SymArray {
			return errf(st.Line, st.Col, "cannot assign to whole array %s", lhs.Name)
		}
	case *Index:
		sym = a.lookup(lhs.Name)
		lhs.Sym = sym
		if sym.Kind != SymArray {
			return errf(st.Line, st.Col, "%s is not an array", lhs.Name)
		}
		if len(lhs.Subs) != len(sym.Dims) {
			return errf(st.Line, st.Col, "%s has %d dimensions, indexed with %d",
				lhs.Name, len(sym.Dims), len(lhs.Subs))
		}
		for _, sub := range lhs.Subs {
			ty, err := a.typeOf(sub)
			if err != nil {
				return errf(st.Line, st.Col, "%v", err)
			}
			if ty != TInt {
				return errf(st.Line, st.Col, "array subscript must be INTEGER")
			}
		}
	default:
		return errf(st.Line, st.Col, "bad assignment target")
	}
	if sym.Kind == SymConst {
		return errf(st.Line, st.Col, "cannot assign to PARAMETER %s", sym.Name)
	}
	rty, err := a.typeOf(st.RHS)
	if err != nil {
		return errf(st.Line, st.Col, "%v", err)
	}
	lty := sym.Type
	if lty == TLogical != (rty == TLogical) {
		return errf(st.Line, st.Col, "cannot assign %s to %s variable", rty, lty)
	}
	return nil
}

// typeOf type-checks an expression and returns its type. Numeric operands
// promote INTEGER -> REAL.
func (a *analyzer) typeOf(e Expr) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return TInt, nil
	case *RealLit:
		return TReal, nil
	case *LogLit:
		return TLogical, nil
	case *StrLit:
		return TNone, nil // only legal in PRINT; callers needing a value reject TNone
	case *Var:
		sym := a.lookup(x.Name)
		x.Sym = sym
		if sym.Kind == SymArray {
			// Whole-array reference: legal only as a CALL argument; typeOf
			// is also used there, so return the element type.
			return sym.Type, nil
		}
		return sym.Type, nil
	case *Index:
		sym := a.lookup(x.Name)
		x.Sym = sym
		if sym.Kind != SymArray {
			return TNone, fmt.Errorf("%s is not an array (or undeclared array use)", x.Name)
		}
		if len(x.Subs) != len(sym.Dims) {
			return TNone, fmt.Errorf("%s has %d dimensions, indexed with %d", x.Name, len(sym.Dims), len(x.Subs))
		}
		for _, sub := range x.Subs {
			ty, err := a.typeOf(sub)
			if err != nil {
				return TNone, err
			}
			if ty != TInt {
				return TNone, fmt.Errorf("subscript of %s must be INTEGER", x.Name)
			}
		}
		return sym.Type, nil
	case *Intrinsic:
		return a.typeOfIntrinsic(x)
	case *Un:
		ty, err := a.typeOf(x.X)
		if err != nil {
			return TNone, err
		}
		switch x.Op {
		case OpNot:
			if ty != TLogical {
				return TNone, fmt.Errorf(".NOT. needs a LOGICAL operand")
			}
			return TLogical, nil
		default:
			if ty != TInt && ty != TReal {
				return TNone, fmt.Errorf("unary %v needs a numeric operand", x.Op)
			}
			return ty, nil
		}
	case *Bin:
		lt, err := a.typeOf(x.L)
		if err != nil {
			return TNone, err
		}
		rt, err := a.typeOf(x.R)
		if err != nil {
			return TNone, err
		}
		switch {
		case x.Op.Logical():
			if lt != TLogical || rt != TLogical {
				return TNone, fmt.Errorf("%s needs LOGICAL operands", x.Op)
			}
			return TLogical, nil
		case x.Op.Relational():
			if !numeric(lt) || !numeric(rt) {
				return TNone, fmt.Errorf("%s needs numeric operands", x.Op)
			}
			return TLogical, nil
		default:
			if !numeric(lt) || !numeric(rt) {
				return TNone, fmt.Errorf("%s needs numeric operands", x.Op)
			}
			if lt == TReal || rt == TReal {
				return TReal, nil
			}
			return TInt, nil
		}
	}
	return TNone, fmt.Errorf("unhandled expression %T", e)
}

func numeric(t Type) bool { return t == TInt || t == TReal }

func (a *analyzer) typeOfIntrinsic(x *Intrinsic) (Type, error) {
	sig, ok := Intrinsics[x.Name]
	if !ok {
		return TNone, fmt.Errorf("unknown intrinsic %s", x.Name)
	}
	if sig.Arity >= 0 && len(x.Args) != sig.Arity {
		return TNone, fmt.Errorf("%s takes %d arguments, got %d", x.Name, sig.Arity, len(x.Args))
	}
	if sig.Arity < 0 && len(x.Args) < 2 {
		return TNone, fmt.Errorf("%s needs at least 2 arguments", x.Name)
	}
	x.ID = sig.ID
	var argTypes []Type
	for _, arg := range x.Args {
		ty, err := a.typeOf(arg)
		if err != nil {
			return TNone, err
		}
		if !numeric(ty) {
			return TNone, fmt.Errorf("%s argument must be numeric", x.Name)
		}
		argTypes = append(argTypes, ty)
	}
	switch x.ID {
	case IntrSQRT, IntrEXP, IntrLOG, IntrSIN, IntrCOS, IntrREAL, IntrRAND:
		return TReal, nil
	case IntrINT, IntrIRAND:
		return TInt, nil
	case IntrABS:
		return argTypes[0], nil
	case IntrMOD, IntrSIGN:
		if argTypes[0] == TReal || argTypes[1] == TReal {
			return TReal, nil
		}
		return TInt, nil
	case IntrMIN, IntrMAX:
		out := TInt
		for _, t := range argTypes {
			if t == TReal {
				out = TReal
			}
		}
		return out, nil
	}
	return TNone, fmt.Errorf("unhandled intrinsic %s", x.Name)
}

// foldConst evaluates a constant expression for PARAMETER definitions,
// compile-time trip counts and compile-time branch conditions. It supports
// literals, previously defined PARAMETER names, arithmetic, relational and
// logical operators.
func (a *analyzer) foldConst(e Expr) (any, Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, TInt, nil
	case *RealLit:
		return x.Val, TReal, nil
	case *LogLit:
		return x.Val, TLogical, nil
	case *Var:
		sym, ok := a.unit.Symbols[x.Name]
		if !ok || sym.Kind != SymConst {
			return nil, TNone, fmt.Errorf("%s is not a PARAMETER constant", x.Name)
		}
		if a.resolve {
			x.Sym = sym
		}
		return sym.ConstValue, sym.Type, nil
	case *Un:
		v, ty, err := a.foldConst(x.X)
		if err != nil {
			return nil, TNone, err
		}
		switch x.Op {
		case OpNeg:
			if i, ok := v.(int64); ok {
				return -i, ty, nil
			}
			return -v.(float64), ty, nil
		case OpPlus:
			return v, ty, nil
		case OpNot:
			if b, ok := v.(bool); ok {
				return !b, TLogical, nil
			}
		}
		return nil, TNone, fmt.Errorf("cannot fold unary operator")
	case *Bin:
		lv, lt, err := a.foldConst(x.L)
		if err != nil {
			return nil, TNone, err
		}
		rv, rt, err := a.foldConst(x.R)
		if err != nil {
			return nil, TNone, err
		}
		if x.Op.Logical() {
			lb, lok := lv.(bool)
			rb, rok := rv.(bool)
			if !lok || !rok {
				return nil, TNone, fmt.Errorf("%s needs LOGICAL constants", x.Op)
			}
			switch x.Op {
			case OpAnd:
				return lb && rb, TLogical, nil
			case OpOr:
				return lb || rb, TLogical, nil
			case OpEqv:
				return lb == rb, TLogical, nil
			case OpNeqv:
				return lb != rb, TLogical, nil
			}
		}
		if x.Op.Relational() {
			if lt == TLogical || rt == TLogical {
				return nil, TNone, fmt.Errorf("%s needs numeric constants", x.Op)
			}
			l, r := toF(lv), toF(rv)
			switch x.Op {
			case OpLT:
				return l < r, TLogical, nil
			case OpLE:
				return l <= r, TLogical, nil
			case OpGT:
				return l > r, TLogical, nil
			case OpGE:
				return l >= r, TLogical, nil
			case OpEQ:
				return l == r, TLogical, nil
			default:
				return l != r, TLogical, nil
			}
		}
		if lt == TInt && rt == TInt {
			l, r := lv.(int64), rv.(int64)
			switch x.Op {
			case OpAdd:
				return l + r, TInt, nil
			case OpSub:
				return l - r, TInt, nil
			case OpMul:
				return l * r, TInt, nil
			case OpDiv:
				if r == 0 {
					return nil, TNone, fmt.Errorf("division by zero in constant")
				}
				return l / r, TInt, nil
			case OpPow:
				if r < 0 {
					return nil, TNone, fmt.Errorf("negative integer exponent in constant")
				}
				return IntPow(l, r), TInt, nil
			}
			return nil, TNone, fmt.Errorf("cannot fold operator %s", x.Op)
		}
		l, r := toF(lv), toF(rv)
		switch x.Op {
		case OpAdd:
			return l + r, TReal, nil
		case OpSub:
			return l - r, TReal, nil
		case OpMul:
			return l * r, TReal, nil
		case OpDiv:
			if r == 0 {
				return nil, TNone, fmt.Errorf("division by zero in constant")
			}
			return l / r, TReal, nil
		case OpPow:
			return math.Pow(l, r), TReal, nil
		}
		return nil, TNone, fmt.Errorf("cannot fold operator %s", x.Op)
	}
	return nil, TNone, fmt.Errorf("not a constant expression: %s", e)
}

// IntPow is F77 integer exponentiation with wrapping int64 arithmetic:
// negative exponents yield 0 except for bases 1 and -1. It squares and
// multiplies, so the work is logarithmic in exp; wrapping multiplication
// is associative, so the result equals exp repeated multiplications.
func IntPow(base, exp int64) int64 {
	if exp < 0 {
		switch base {
		case 1:
			return 1
		case -1:
			if exp%2 == 0 {
				return 1
			}
			return -1
		default:
			return 0
		}
	}
	out := int64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

func toF(v any) float64 {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v.(float64)
}

// FoldInt folds e to an integer constant using unit u's PARAMETER table.
// It returns (value, true) on success. The profiler uses it to detect DO
// loops with compile-time-constant trip counts (third optimization).
func FoldInt(u *Unit, e Expr) (int64, bool) {
	a := &analyzer{unit: u}
	v, ty, err := a.foldConst(e)
	if err != nil || ty != TInt {
		return 0, false
	}
	i, ok := v.(int64)
	return i, ok
}

// FoldLogical folds e to a LOGICAL constant using unit u's PARAMETER table.
// It returns (value, true) on success. The static frequency analysis uses
// it to resolve compile-time IF conditions (the paper's "an IF condition
// that can be computed at compile-time").
func FoldLogical(u *Unit, e Expr) (bool, bool) {
	a := &analyzer{unit: u}
	v, ty, err := a.foldConst(e)
	if err != nil || ty != TLogical {
		return false, false
	}
	b, ok := v.(bool)
	return b, ok
}
