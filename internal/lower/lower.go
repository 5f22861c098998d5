// Package lower translates the AST of a program into one statement-level
// control flow graph per program unit, matching the granularity of Figure 1
// of the paper: one CFG node per executable statement, with T/F labels on
// conditional branch edges and U on unconditional ones.
//
// Each node's Payload is an Op describing what executing the node does; the
// interpreter (internal/interp) dispatches on these. Lowered nodes carry no
// name of their own: every Op is a cfg.Namer, so a node's label ("IF
// (M.GE.0)", "DO-TEST I") is rendered from its Op only when a dump, DOT
// output or diagnostic asks for it. Counted DO loops lower
// into three nodes — DoInit (compute the F77 trip count, set the loop
// variable), DoTest (the loop header: branch T into the body while trips
// remain) and DoIncr (advance the variable, branch back to the test) — so
// the loop header is the target of exactly one back edge and interval
// analysis sees the textbook shape.
//
// Unreachable statements (code after an unconditional transfer that carries
// no label) are dropped, mirroring a compiler's dead-code elimination; the
// analyses require every CFG node to be reachable.
package lower

import (
	"fmt"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/dfst"
	"repro/internal/lang"
)

// Branch labels beyond cfg's T/F/U: the arithmetic IF's three-way branch
// and the computed GOTO's cases.
const (
	// LabelNeg/LabelZero/LabelPos are the arithmetic IF edges.
	LabelNeg  cfg.Label = "LT"
	LabelZero cfg.Label = "EQ"
	LabelPos  cfg.Label = "GT"
	// LabelDefault is the computed GOTO fall-through (index out of range).
	LabelDefault cfg.Label = "D"
)

// GotoCase returns the edge label of the i-th (1-based) computed GOTO case.
// Engines and analyses call it per dispatch, so the first cases come from a
// table; only larger ones are formatted.
func GotoCase(i int) cfg.Label {
	if i >= 0 && i < len(gotoCases) {
		return gotoCases[i]
	}
	return cfg.Label("G" + strconv.Itoa(i))
}

var gotoCases = func() (t [64]cfg.Label) {
	for i := range t {
		t[i] = cfg.Label("G" + strconv.Itoa(i))
	}
	return t
}()

// Op is the executable payload of a CFG node. NodeName renders the node's
// label from the op and the statement it lowers.
type Op interface {
	opName() string
	NodeName() string
}

// OpAssign evaluates S.RHS and stores it into S.LHS.
type OpAssign struct{ S *lang.Assign }

// OpBranch evaluates Cond and leaves on the T or F edge. S is the IF
// statement it lowers: a LogicalIf, or the IfBlock whose condition (or one
// of whose ELSEIF conditions) Cond is.
type OpBranch struct {
	Cond lang.Expr
	S    lang.Stmt
}

// OpArithIf evaluates E and leaves on LT, EQ or GT by the sign of E.
type OpArithIf struct {
	E lang.Expr
	S *lang.ArithIf
}

// OpComputedGoto evaluates E and leaves on edge G<E>, or D if out of range.
type OpComputedGoto struct {
	E lang.Expr
	N int // number of cases
	S *lang.ComputedGoto
}

// OpCall invokes a subroutine.
type OpCall struct{ S *lang.CallStmt }

// OpDoInit evaluates the loop bounds, sets the loop variable, and computes
// the F77 trip count MAX(0, (hi-lo+step)/step) into hidden per-frame state.
type OpDoInit struct {
	L *lang.DoLoop
	// Test is the node carrying the matching OpDoTest; the hidden trip
	// state is keyed by it.
	Test cfg.NodeID
}

// OpDoTest leaves on T while trips remain, F when the loop is exhausted.
// Key identifies the trip-state slot; it equals the original test node ID
// and is shared by any node-split copies, which therefore share the state.
type OpDoTest struct {
	L   *lang.DoLoop
	Key cfg.NodeID
}

// OpDoIncr advances the loop variable by the step and consumes one trip.
type OpDoIncr struct {
	L    *lang.DoLoop
	Test cfg.NodeID
}

// OpPrint prints list-directed output.
type OpPrint struct{ S *lang.Print }

// OpNop does nothing: S is the CONTINUE or GOTO statement it lowers.
type OpNop struct{ S lang.Stmt }

// OpReturn returns from the current subroutine.
type OpReturn struct{}

// OpStop terminates the whole program.
type OpStop struct{}

// OpEnd marks the unit exit node (n_last).
type OpEnd struct{}

func (OpAssign) opName() string       { return "assign" }
func (OpBranch) opName() string       { return "branch" }
func (OpArithIf) opName() string      { return "arith-if" }
func (OpComputedGoto) opName() string { return "computed-goto" }
func (OpCall) opName() string         { return "call" }
func (OpDoInit) opName() string       { return "do-init" }
func (OpDoTest) opName() string       { return "do-test" }
func (OpDoIncr) opName() string       { return "do-incr" }
func (OpPrint) opName() string        { return "print" }
func (OpNop) opName() string          { return "nop" }
func (OpReturn) opName() string       { return "return" }
func (OpStop) opName() string         { return "stop" }
func (OpEnd) opName() string          { return "end" }

// NodeName implementations: the CFG node labels of Figure 1.

func (o OpAssign) NodeName() string { return o.S.Text() }
func (o OpBranch) NodeName() string {
	if l, ok := o.S.(*lang.LogicalIf); ok {
		if _, ok := l.Then.(*lang.Goto); ok {
			return l.Text() // "IF (c) GOTO l" is one node
		}
	}
	return "IF (" + o.Cond.String() + ")"
}
func (o OpArithIf) NodeName() string      { return o.S.Text() }
func (o OpComputedGoto) NodeName() string { return o.S.Text() }
func (o OpCall) NodeName() string         { return o.S.Text() }
func (o OpDoInit) NodeName() string       { return o.L.Text() }
func (o OpDoTest) NodeName() string       { return "DO-TEST " + o.L.Var }
func (o OpDoIncr) NodeName() string       { return "DO-INCR " + o.L.Var }
func (OpPrint) NodeName() string          { return "PRINT *" }
func (o OpNop) NodeName() string          { return o.S.Text() }
func (OpReturn) NodeName() string         { return "RETURN" }
func (OpStop) NodeName() string           { return "STOP" }
func (OpEnd) NodeName() string            { return "END" }

// Proc is the lowered form of one program unit.
type Proc struct {
	Unit *lang.Unit
	G    *cfg.Graph
	// Stmt maps each node to the source statement it came from (nil for
	// the synthetic END node).
	Stmt map[cfg.NodeID]lang.Stmt
	// Calls lists the callee names of every OpCall node, in node order.
	Calls []string
	// Splits counts node duplications performed to make an irreducible
	// CFG (from GOTO spaghetti) reducible; 0 for structured code.
	Splits int
}

// Result holds the lowered program.
type Result struct {
	Prog *lang.Program
	// Procs maps unit name to its lowered form.
	Procs map[string]*Proc
	// Main is the lowered PROGRAM unit.
	Main *Proc
	// CallGraph maps caller unit name to the distinct callee names.
	CallGraph map[string][]string
}

// Lower lowers every unit of an analyzed program.
func Lower(prog *lang.Program) (*Result, error) {
	res := &Result{
		Prog:      prog,
		Procs:     make(map[string]*Proc),
		CallGraph: make(map[string][]string),
	}
	for _, u := range prog.Units {
		p, err := lowerUnit(u)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", u.Name, err)
		}
		res.Procs[u.Name] = p
		if u.IsMain {
			res.Main = p
		}
		seen := map[string]bool{}
		for _, callee := range p.Calls {
			if !seen[callee] {
				seen[callee] = true
				res.CallGraph[u.Name] = append(res.CallGraph[u.Name], callee)
			}
		}
	}
	return res, nil
}

// pending is a dangling out-edge waiting for its target.
type pending struct {
	from  cfg.NodeID
	label cfg.Label
}

type builder struct {
	g     *cfg.Graph
	proc  *Proc
	first cfg.NodeID         // first node created: the unit entry
	label map[int]cfg.NodeID // statement label -> its node
	// jumps are GOTO-ish edges resolved after the whole body is lowered;
	// target -1 means the unit exit.
	jumps []jump
	// scratch backs the single-edge frontiers one returns.
	scratch []pending
}

type jump struct {
	from   cfg.NodeID
	label  cfg.Label
	target int
}

const exitTarget = -1

func lowerUnit(u *lang.Unit) (*Proc, error) {
	nodes := nodeBound(u)
	b := &builder{
		g:       cfg.New(u.Name),
		label:   make(map[int]cfg.NodeID),
		scratch: make([]pending, 0, 2),
	}
	b.g.Grow(nodes)
	b.proc = &Proc{Unit: u, G: b.g, Stmt: make(map[cfg.NodeID]lang.Stmt, nodes)}

	frontier, err := b.seq(u.Body, nil)
	if err != nil {
		return nil, err
	}
	// Exit node (n_last).
	exit := b.newNode(OpEnd{}, nil)
	b.connect(frontier, exit)
	for _, j := range b.jumps {
		target := exit
		if j.target != exitTarget {
			t, ok := b.label[j.target]
			if !ok {
				return nil, fmt.Errorf("GOTO %d: label was never lowered", j.target)
			}
			target = t
		}
		if err := b.g.AddEdge(j.from, target, j.label); err != nil {
			return nil, err
		}
	}
	if b.first == cfg.None {
		b.first = exit
	}
	b.g.Entry, b.g.Exit = b.first, exit
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	// GOTO spaghetti can produce an irreducible graph; the paper's
	// framework (and every later phase here) requires reducibility, so
	// apply node splitting now. Copies share their original's payload.
	if !dfst.Reducible(b.g) {
		split, sr, err := dfst.MakeReducible(b.g)
		if err != nil {
			return nil, err
		}
		stmt := make(map[cfg.NodeID]lang.Stmt, len(b.proc.Stmt))
		for id := cfg.NodeID(1); id <= split.MaxID(); id++ {
			if s, ok := b.proc.Stmt[sr.Original[id]]; ok {
				stmt[id] = s
			}
		}
		b.proc.G = split
		b.proc.Stmt = stmt
		b.proc.Splits = sr.Splits
	}
	return b.proc, nil
}

// nodeBound bounds the nodes lowering u creates: one per statement, two
// more per DO loop (its test and increment), one per ELSEIF arm, and END.
func nodeBound(u *lang.Unit) int {
	n := 1
	lang.Walk(u.Body, func(s lang.Stmt) {
		n++
		switch st := s.(type) {
		case *lang.DoLoop:
			n += 2
		case *lang.IfBlock:
			n += len(st.Elifs)
		}
	})
	return n
}

// newNode adds a node executing op, lowered from stmt. It has no name of
// its own: op renders it (see Op).
func (b *builder) newNode(op Op, stmt lang.Stmt) cfg.NodeID {
	n := b.g.AddNode(cfg.Other, "")
	n.Payload = op
	if stmt != nil {
		b.proc.Stmt[n.ID] = stmt
	}
	if b.first == cfg.None {
		b.first = n.ID
	}
	return n.ID
}

// one returns the frontier of the single edge (from, label). It lives in
// the builder's scratch buffer, which the next call to one overwrites:
// every frontier is connected before the next node is lowered, and a
// caller that keeps one across lowering (ifBlock) copies it out first.
func (b *builder) one(from cfg.NodeID, label cfg.Label) []pending {
	b.scratch = append(b.scratch[:0], pending{from, label})
	return b.scratch
}

func (b *builder) connect(frontier []pending, to cfg.NodeID) {
	for _, p := range frontier {
		b.g.MustAddEdge(p.from, to, p.label)
	}
}

// seq lowers a statement list. frontier holds the dangling edges that reach
// the list's start; the returned frontier reaches past its end.
func (b *builder) seq(body []lang.Stmt, frontier []pending) ([]pending, error) {
	for _, s := range body {
		// Dead code: nothing flows here, nothing can jump here, and at
		// least one node exists already (before the first node, control is
		// live because the unit entry starts the list).
		if len(frontier) == 0 && b.first != cfg.None && s.Lab() == 0 && !anchored(s) {
			continue
		}
		var err error
		frontier, err = b.stmt(s, frontier)
		if err != nil {
			return nil, err
		}
	}
	return frontier, nil
}

// anchored reports whether a statement must be lowered even when its own
// frontier is empty because something may jump to a label inside it (a DO
// terminator or any labelled statement in its nested bodies).
func anchored(s lang.Stmt) bool {
	found := false
	lang.Walk([]lang.Stmt{s}, func(n lang.Stmt) {
		if n.Lab() != 0 {
			found = true
		}
	})
	return found
}

func (b *builder) stmt(s lang.Stmt, frontier []pending) ([]pending, error) {
	switch st := s.(type) {
	case *lang.Assign:
		n := b.newNode(OpAssign{S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		return b.one(n, cfg.Uncond), nil

	case *lang.Continue:
		n := b.newNode(OpNop{S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		return b.one(n, cfg.Uncond), nil

	case *lang.Print:
		n := b.newNode(OpPrint{S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		return b.one(n, cfg.Uncond), nil

	case *lang.CallStmt:
		n := b.newNode(OpCall{S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		b.proc.Calls = append(b.proc.Calls, st.Name)
		return b.one(n, cfg.Uncond), nil

	case *lang.Goto:
		n := b.newNode(OpNop{S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		b.jumps = append(b.jumps, jump{n, cfg.Uncond, st.Target})
		return nil, nil

	case *lang.ComputedGoto:
		n := b.newNode(OpComputedGoto{E: st.Expr, N: len(st.Targets), S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		for i, t := range st.Targets {
			b.jumps = append(b.jumps, jump{n, GotoCase(i + 1), t})
		}
		return b.one(n, LabelDefault), nil

	case *lang.ArithIf:
		n := b.newNode(OpArithIf{E: st.Expr, S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		b.jumps = append(b.jumps,
			jump{n, LabelNeg, st.OnNeg},
			jump{n, LabelZero, st.OnZero},
			jump{n, LabelPos, st.OnPos})
		return nil, nil

	case *lang.Return:
		n := b.newNode(OpReturn{}, st)
		b.define(st, n)
		b.connect(frontier, n)
		b.jumps = append(b.jumps, jump{n, cfg.Uncond, exitTarget})
		return nil, nil

	case *lang.StopStmt:
		n := b.newNode(OpStop{}, st)
		b.define(st, n)
		b.connect(frontier, n)
		b.jumps = append(b.jumps, jump{n, cfg.Uncond, exitTarget})
		return nil, nil

	case *lang.LogicalIf:
		return b.logicalIf(st, frontier)

	case *lang.IfBlock:
		return b.ifBlock(st, frontier)

	case *lang.DoLoop:
		return b.doLoop(st, frontier)
	}
	return nil, fmt.Errorf("line %d: cannot lower %T", s.Pos(), s)
}

// define records the statement label of s on node n.
func (b *builder) define(s lang.Stmt, n cfg.NodeID) {
	if l := s.Lab(); l != 0 {
		b.label[l] = n
	}
}

func (b *builder) logicalIf(st *lang.LogicalIf, frontier []pending) ([]pending, error) {
	// "IF (c) GOTO l" is a single node, exactly as in Figure 1.
	if g, ok := st.Then.(*lang.Goto); ok {
		n := b.newNode(OpBranch{Cond: st.Cond, S: st}, st)
		b.define(st, n)
		b.connect(frontier, n)
		b.jumps = append(b.jumps, jump{n, cfg.True, g.Target})
		return b.one(n, cfg.False), nil
	}
	// General form: branch node, body on the T arm.
	n := b.newNode(OpBranch{Cond: st.Cond, S: st}, st)
	b.define(st, n)
	b.connect(frontier, n)
	bodyOut, err := b.stmt(st.Then, b.one(n, cfg.True))
	if err != nil {
		return nil, err
	}
	return append(bodyOut, pending{n, cfg.False}), nil
}

func (b *builder) ifBlock(st *lang.IfBlock, frontier []pending) ([]pending, error) {
	n := b.newNode(OpBranch{Cond: st.Cond, S: st}, st)
	b.define(st, n)
	b.connect(frontier, n)
	// out collects the arms' frontiers, copied out of the scratch buffer
	// before the next arm is lowered.
	var out []pending
	thenOut, err := b.seq(st.Then, b.one(n, cfg.True))
	if err != nil {
		return nil, err
	}
	out = append(out, thenOut...)
	elseIn := b.one(n, cfg.False)
	for _, arm := range st.Elifs {
		en := b.newNode(OpBranch{Cond: arm.Cond, S: st}, st)
		b.connect(elseIn, en)
		armOut, err := b.seq(arm.Body, b.one(en, cfg.True))
		if err != nil {
			return nil, err
		}
		out = append(out, armOut...)
		elseIn = b.one(en, cfg.False)
	}
	if st.Else != nil {
		elseOut, err := b.seq(st.Else, elseIn)
		if err != nil {
			return nil, err
		}
		out = append(out, elseOut...)
	} else {
		out = append(out, elseIn...)
	}
	return out, nil
}

func (b *builder) doLoop(st *lang.DoLoop, frontier []pending) ([]pending, error) {
	// The test node is added right after init, so init's op can name it
	// (the trip state key) up front.
	test := b.g.MaxID() + 2
	init := b.newNode(OpDoInit{L: st, Test: test}, st)
	b.define(st, init)
	b.connect(frontier, init)
	b.newNode(OpDoTest{L: st, Key: test}, st)
	b.g.MustAddEdge(init, test, cfg.Uncond)

	bodyOut, err := b.seq(st.Body, b.one(test, cfg.True))
	if err != nil {
		return nil, err
	}
	incr := b.newNode(OpDoIncr{L: st, Test: test}, st)
	b.connect(bodyOut, incr)
	b.g.MustAddEdge(incr, test, cfg.Uncond) // the back edge
	return b.one(test, cfg.False), nil
}
