package lang

import (
	"fmt"
	"strings"
)

// Type is a data type of the subset.
type Type int

// Data types. TInt maps to Go int64, TReal to float64, TLogical to bool.
const (
	TNone Type = iota
	TInt
	TReal
	TLogical
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TReal:
		return "REAL"
	case TLogical:
		return "LOGICAL"
	}
	return "NONE"
}

// Program is a whole compilation unit: one PROGRAM plus any SUBROUTINEs.
type Program struct {
	Units []*Unit
}

// Unit returns the named program unit, or nil.
func (p *Program) Unit(name string) *Unit {
	for _, u := range p.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// Main returns the PROGRAM unit, or nil.
func (p *Program) Main() *Unit {
	for _, u := range p.Units {
		if u.IsMain {
			return u
		}
	}
	return nil
}

// Unit is one program unit: the main PROGRAM or a SUBROUTINE.
type Unit struct {
	Name   string
	IsMain bool
	Params []string
	Decls  []*Decl
	Consts []*Const
	Body   []Stmt

	// Symbols is filled by semantic analysis.
	Symbols map[string]*Symbol
	// Slots lists Symbols by Symbol.Slot, which is sorted-name order; also
	// filled by semantic analysis.
	Slots []*Symbol
}

// Decl declares one or more names with a type and optional array bounds.
type Decl struct {
	Type  Type
	Items []DeclItem
	Line  int
	Col   int
}

// DeclItem is one declared name; Dims is nil for scalars. Each dimension is
// an expression that must fold to a positive constant at unit entry
// (parameters are allowed, e.g. A(N) inside a subroutine).
type DeclItem struct {
	Name string
	Dims []Expr
}

// Const is a PARAMETER (NAME = constant-expression) definition.
type Const struct {
	Name  string
	Value Expr
	Line  int
	Col   int
}

// SymbolKind distinguishes what a name denotes.
type SymbolKind int

// Symbol kinds.
const (
	SymScalar SymbolKind = iota
	SymArray
	SymConst
)

// Symbol is the semantic information for one name in a unit.
type Symbol struct {
	Name    string
	Kind    SymbolKind
	Type    Type
	Dims    []Expr // arrays: one extent expression per dimension
	IsParam bool   // appears in the SUBROUTINE parameter list
	// ConstValue holds the folded PARAMETER value (IntVal or RealVal).
	ConstValue any
	// Slot is the symbol's dense index in its unit, 0..len(Symbols)-1 in
	// sorted-name order: engines index activation frames by it.
	Slot int
}

// MaxDims is the most dimensions an array may declare (the Fortran 77
// limit); sema rejects more, so engines may keep subscripts in a fixed
// array.
const MaxDims = 7

// ---------------------------------------------------------------------------
// Statements. Every statement carries its source line and optional label.

// Stmt is any executable statement.
type Stmt interface {
	stmtNode()
	// Pos returns the physical source line.
	Pos() int
	// Column returns the 1-based column of the statement's first token
	// (0 when unknown, e.g. for synthesized statements).
	Column() int
	// Lab returns the numeric statement label (0 if none).
	Lab() int
	// Text renders the statement head the way Figure 1 labels CFG nodes,
	// e.g. "IF (M.GE.0)" — block bodies are not included.
	Text() string
}

// StmtBase carries position and label for all statements.
type StmtBase struct {
	Line  int
	Col   int
	Label int
}

func (s StmtBase) Pos() int    { return s.Line }
func (s StmtBase) Column() int { return s.Col }
func (s StmtBase) Lab() int    { return s.Label }

// Assign is "lhs = rhs"; LHS is a Var or Index expression.
type Assign struct {
	StmtBase
	LHS Expr
	RHS Expr
}

// IfBlock is a block IF with zero or more ELSEIF arms and an optional ELSE.
type IfBlock struct {
	StmtBase
	Cond Expr
	Then []Stmt
	// Elifs are the ELSE IF arms in order.
	Elifs []ElifArm
	Else  []Stmt
}

// ElifArm is one ELSE IF (cond) THEN arm.
type ElifArm struct {
	Cond Expr
	Line int
	Body []Stmt
}

// LogicalIf is "IF (cond) stmt" with a single-statement body.
type LogicalIf struct {
	StmtBase
	Cond Expr
	Then Stmt
}

// ArithIf is the three-way arithmetic IF: "IF (e) l1, l2, l3" branching on
// the sign of e (negative, zero, positive).
type ArithIf struct {
	StmtBase
	Expr                 Expr
	OnNeg, OnZero, OnPos int
}

// DoLoop is a counted DO loop: "DO [label] var = lo, hi [, step]". The body
// is the statements up to the matching terminator (labelled statement or
// ENDDO), terminator included when it is a labelled CONTINUE.
type DoLoop struct {
	StmtBase
	Var      string
	VarSym   *Symbol // Var's symbol, resolved by semantic analysis
	Lo, Hi   Expr
	Step     Expr // nil means 1
	EndLabel int  // 0 for DO/ENDDO form
	Body     []Stmt
}

// Goto is an unconditional GOTO.
type Goto struct {
	StmtBase
	Target int
}

// ComputedGoto is "GOTO (l1, ..., lk), e": jumps to the e-th label; falls
// through when e is out of range.
type ComputedGoto struct {
	StmtBase
	Targets []int
	Expr    Expr
}

// CallStmt is "CALL name(args)".
type CallStmt struct {
	StmtBase
	Name string
	Args []Expr
}

// Return is RETURN (subroutines only).
type Return struct{ StmtBase }

// StopStmt is STOP: terminates the whole program.
type StopStmt struct{ StmtBase }

// Continue is CONTINUE: a no-op, usually a branch target.
type Continue struct{ StmtBase }

// Print is "PRINT *, items".
type Print struct {
	StmtBase
	Items []Expr
}

func (*Assign) stmtNode()       {}
func (*IfBlock) stmtNode()      {}
func (*LogicalIf) stmtNode()    {}
func (*ArithIf) stmtNode()      {}
func (*DoLoop) stmtNode()       {}
func (*Goto) stmtNode()         {}
func (*ComputedGoto) stmtNode() {}
func (*CallStmt) stmtNode()     {}
func (*Return) stmtNode()       {}
func (*StopStmt) stmtNode()     {}
func (*Continue) stmtNode()     {}
func (*Print) stmtNode()        {}

func (s *Assign) Text() string { return fmt.Sprintf("%s = %s", s.LHS, s.RHS) }
func (s *IfBlock) Text() string {
	return fmt.Sprintf("IF (%s) THEN", s.Cond)
}
func (s *LogicalIf) Text() string {
	return fmt.Sprintf("IF (%s) %s", s.Cond, s.Then.Text())
}
func (s *ArithIf) Text() string {
	return fmt.Sprintf("IF (%s) %d,%d,%d", s.Expr, s.OnNeg, s.OnZero, s.OnPos)
}
func (s *DoLoop) Text() string {
	step := ""
	if s.Step != nil {
		step = fmt.Sprintf(",%s", s.Step)
	}
	return fmt.Sprintf("DO %s = %s,%s%s", s.Var, s.Lo, s.Hi, step)
}
func (s *Goto) Text() string { return fmt.Sprintf("GOTO %d", s.Target) }
func (s *ComputedGoto) Text() string {
	parts := make([]string, len(s.Targets))
	for i, t := range s.Targets {
		parts[i] = fmt.Sprintf("%d", t)
	}
	return fmt.Sprintf("GOTO (%s), %s", strings.Join(parts, ","), s.Expr)
}
func (s *CallStmt) Text() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("CALL %s(%s)", s.Name, strings.Join(args, ","))
}
func (s *Return) Text() string   { return "RETURN" }
func (s *StopStmt) Text() string { return "STOP" }
func (s *Continue) Text() string { return "CONTINUE" }
func (s *Print) Text() string    { return "PRINT *" }

// ---------------------------------------------------------------------------
// Expressions.

// Expr is any expression. String renders source-like text.
type Expr interface {
	exprNode()
	String() string
}

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// RealLit is a real literal.
type RealLit struct{ Val float64 }

// LogLit is .TRUE. or .FALSE..
type LogLit struct{ Val bool }

// StrLit is a character literal (PRINT only).
type StrLit struct{ Val string }

// Var references a scalar variable (or whole array in a CALL argument).
// Sym is Name's symbol in the enclosing unit, resolved by semantic
// analysis.
type Var struct {
	Name string
	Sym  *Symbol
}

// Index references an array element: Name(Subs...). Sym is Name's symbol
// in the enclosing unit, resolved by semantic analysis.
type Index struct {
	Name string
	Subs []Expr
	Sym  *Symbol
}

// Intrinsic is a call to a builtin function: ABS, MOD, MIN, MAX, SQRT, EXP,
// LOG, SIN, COS, INT, REAL, RAND, IRAND. ID is Name's builtin, resolved by
// semantic analysis.
type Intrinsic struct {
	Name string
	Args []Expr
	ID   IntrinsicID
}

// BinOp identifies a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
	OpEqv
	OpNeqv
)

var binOpText = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "**",
	OpLT: ".LT.", OpLE: ".LE.", OpGT: ".GT.", OpGE: ".GE.", OpEQ: ".EQ.", OpNE: ".NE.",
	OpAnd: ".AND.", OpOr: ".OR.", OpEqv: ".EQV.", OpNeqv: ".NEQV.",
}

func (op BinOp) String() string { return binOpText[op] }

// Relational reports whether op compares two numeric operands.
func (op BinOp) Relational() bool { return op >= OpLT && op <= OpNE }

// Logical reports whether op combines two logical operands.
func (op BinOp) Logical() bool { return op >= OpAnd }

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// UnOp identifies a unary operator.
type UnOp int

// Unary operators.
const (
	OpNeg UnOp = iota
	OpNot
	OpPlus
)

// Un is a unary expression.
type Un struct {
	Op UnOp
	X  Expr
}

func (*IntLit) exprNode()    {}
func (*RealLit) exprNode()   {}
func (*LogLit) exprNode()    {}
func (*StrLit) exprNode()    {}
func (*Var) exprNode()       {}
func (*Index) exprNode()     {}
func (*Intrinsic) exprNode() {}
func (*Bin) exprNode()       {}
func (*Un) exprNode()        {}

func (e *IntLit) String() string  { return fmt.Sprintf("%d", e.Val) }
func (e *RealLit) String() string { return fmt.Sprintf("%g", e.Val) }
func (e *LogLit) String() string {
	if e.Val {
		return ".TRUE."
	}
	return ".FALSE."
}
func (e *StrLit) String() string { return fmt.Sprintf("'%s'", e.Val) }
func (e *Var) String() string    { return e.Name }
func (e *Index) String() string {
	subs := make([]string, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = s.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(subs, ","))
}
func (e *Intrinsic) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ","))
}
func (e *Bin) String() string {
	op := binOpText[e.Op]
	if e.Op == OpAdd || e.Op == OpSub || e.Op == OpMul || e.Op == OpDiv || e.Op == OpPow {
		return fmt.Sprintf("%s%s%s", e.L, op, e.R)
	}
	return fmt.Sprintf("%s%s%s", e.L, op, e.R)
}
func (e *Un) String() string {
	switch e.Op {
	case OpNeg:
		return fmt.Sprintf("-%s", e.X)
	case OpNot:
		return fmt.Sprintf(".NOT.%s", e.X)
	}
	return fmt.Sprintf("+%s", e.X)
}

// IntrinsicID identifies a builtin function. The zero value is no builtin:
// a call semantic analysis has not resolved.
type IntrinsicID uint8

// Builtin functions.
const (
	IntrABS IntrinsicID = iota + 1
	IntrMOD
	IntrSIGN
	IntrMIN
	IntrMAX
	IntrSQRT
	IntrEXP
	IntrLOG
	IntrSIN
	IntrCOS
	IntrINT
	IntrREAL
	IntrRAND
	IntrIRAND
)

// IntrinsicSig is a builtin's id and arity (-1 = variadic, at least two).
type IntrinsicSig struct {
	ID    IntrinsicID
	Arity int
}

// Intrinsics lists the builtin functions by name.
var Intrinsics = map[string]IntrinsicSig{
	"ABS": {IntrABS, 1}, "MOD": {IntrMOD, 2}, "SIGN": {IntrSIGN, 2},
	"MIN": {IntrMIN, -1}, "MAX": {IntrMAX, -1}, "SQRT": {IntrSQRT, 1},
	"EXP": {IntrEXP, 1}, "LOG": {IntrLOG, 1}, "SIN": {IntrSIN, 1},
	"COS": {IntrCOS, 1}, "INT": {IntrINT, 1}, "REAL": {IntrREAL, 1},
	"RAND": {IntrRAND, 0}, "IRAND": {IntrIRAND, 1},
}

// Walk visits every statement in body depth-first, pre-order, calling fn
// for each. Nested bodies (IF arms, DO bodies, logical-IF targets) are
// included.
func Walk(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		switch st := s.(type) {
		case *IfBlock:
			Walk(st.Then, fn)
			for _, a := range st.Elifs {
				Walk(a.Body, fn)
			}
			Walk(st.Else, fn)
		case *LogicalIf:
			Walk([]Stmt{st.Then}, fn)
		case *DoLoop:
			Walk(st.Body, fn)
		}
	}
}
