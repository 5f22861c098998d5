package vm

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/obs"
)

// CompileOptions tune the bytecode compiler.
type CompileOptions struct {
	// NoFuse disables the superinstruction peephole pass (fuse.go). The
	// differential suite compiles both ways to prove fusion changes
	// nothing observable; production callers leave it false.
	NoFuse bool
}

// Compile translates every procedure of a lowered program into bytecode
// and runs the superinstruction fusion pass over each. The returned
// Program is immutable and safe for concurrent Run calls — compile once,
// run every seed. lang.Analyze rejects every construct the compiler has no
// code for, so an error here is a bug in the front end or the compiler.
func Compile(res *lower.Result) (*Program, error) {
	return CompileOpts(res, CompileOptions{})
}

// CompileOpts is Compile with explicit options.
func CompileOpts(res *lower.Result, opt CompileOptions) (*Program, error) {
	prog, err := compileAll(res, opt)
	if err != nil {
		return nil, err
	}
	obs.Default.Add("vm.superinstructions", int64(prog.FusedInstructions()))
	return prog, nil
}

func compileAll(res *lower.Result, opt CompileOptions) (*Program, error) {
	if res.Main == nil {
		return nil, fmt.Errorf("vm: program has no main unit")
	}
	names := make([]string, 0, len(res.Procs))
	for name := range res.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	p := &Program{res: res, byName: make(map[string]int, len(names)), noFuse: opt.NoFuse}
	for i, name := range names {
		p.byName[name] = i
	}
	for _, name := range names {
		pc, err := compileProc(res, res.Procs[name], p.byName)
		if err != nil {
			return nil, err
		}
		if !opt.NoFuse {
			pc.fuse()
		}
		p.procs = append(p.procs, pc)
	}
	p.mainIdx = p.byName[res.Main.G.Name]
	return p, nil
}

// fixup marks an instruction field holding a node ID that must be patched
// to the node's instruction index.
type fixup struct {
	idx   int
	field uint8 // 0 = a, 1 = b
}

// procComp compiles one procedure.
type procComp struct {
	res    *lower.Result
	p      *lower.Proc
	byName map[string]int
	out    *procCode

	valSlot  map[string]int32
	refSlot  map[string]int32
	arrSlot  map[string]int32
	metaIdx  map[string]int32
	tripSlot map[cfg.NodeID]int32
	constIdx map[interp.Value]int32
	strIdx   map[string]int32

	localArrays []string // sorted; allocated in the prologue

	nodeIP []int32
	fix    []fixup

	depth   int
	curNode cfg.NodeID
	// unboundFrom is the first slot of the locals not yet bound (see
	// compilePrologue), len(Slots) outside local-array extents.
	unboundFrom int
	zero        int32 // see zeroSlot; -1 until first use
}

func compileProc(res *lower.Result, p *lower.Proc, byName map[string]int) (*procCode, error) {
	c := &procComp{
		res:      res,
		p:        p,
		byName:   byName,
		out:      &procCode{proc: p, name: p.G.Name},
		valSlot:  make(map[string]int32),
		refSlot:  make(map[string]int32),
		arrSlot:  make(map[string]int32),
		metaIdx:  make(map[string]int32),
		tripSlot: make(map[cfg.NodeID]int32),
		constIdx: make(map[interp.Value]int32),
		strIdx:   make(map[string]int32),
		zero:     -1,

		unboundFrom: len(p.Unit.Slots),
	}
	if err := c.allocSlots(); err != nil {
		return nil, err
	}
	if err := c.compileBody(); err != nil {
		return nil, err
	}
	if err := c.compilePrologue(); err != nil {
		return nil, err
	}
	c.patch()
	c.out.numTrips = len(c.tripSlot)
	c.out.tripNodes = make([]cfg.NodeID, len(c.tripSlot))
	for key, slot := range c.tripSlot {
		c.out.tripNodes[slot] = key
	}
	return c.out, nil
}

// bail reports a construct the compiler has no code for.
func (c *procComp) bail(construct, format string, args ...any) error {
	line := 0
	if s, ok := c.p.Stmt[c.curNode]; ok && s != nil {
		line = s.Pos()
	}
	return fmt.Errorf("vm: %s line %d: cannot compile %s: %s", c.p.G.Name, line, construct, fmt.Sprintf(format, args...))
}

// allocSlots assigns every symbol a dense frame slot: parameters to
// reference slots (scalars) or array slots, locals to value slots seeded
// from valTemplate or array slots filled by the prologue.
func (c *procComp) allocSlots() error {
	unit := c.p.Unit
	for _, name := range unit.Params {
		sym := unit.Symbols[name]
		if sym == nil {
			return c.bail("parameter", "parameter %s has no symbol", name)
		}
		switch sym.Kind {
		case lang.SymArray:
			slot := int32(c.out.numArrays)
			c.out.numArrays++
			c.arrSlot[name] = slot
			c.metaIdx[name] = int32(len(c.out.meta))
			c.out.meta = append(c.out.meta, arrayMeta{name: name, typ: sym.Type})
			c.out.params = append(c.out.params, paramBind{slot: slot, isArray: true})
		case lang.SymScalar:
			slot := int32(c.out.numRefs)
			c.out.numRefs++
			c.refSlot[name] = slot
			c.out.params = append(c.out.params, paramBind{slot: slot, isArray: false})
		default:
			return c.bail("parameter", "parameter %s is not a scalar or array", name)
		}
	}
	names := make([]string, 0, len(unit.Symbols))
	for name := range unit.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sym := unit.Symbols[name]
		if sym.IsParam || sym.Kind == lang.SymConst {
			continue
		}
		if sym.Kind == lang.SymArray {
			slot := int32(c.out.numArrays)
			c.out.numArrays++
			c.arrSlot[name] = slot
			c.metaIdx[name] = int32(len(c.out.meta))
			c.out.meta = append(c.out.meta, arrayMeta{name: name, typ: sym.Type})
			c.localArrays = append(c.localArrays, name)
		} else {
			c.valSlot[name] = int32(len(c.out.valTemplate))
			c.out.valTemplate = append(c.out.valTemplate, interp.Value{T: sym.Type})
		}
	}
	return nil
}

// compileBody emits each CFG node's code in node-ID order: the opNode
// bookkeeping marker, the node's operation, and a terminal transferring
// control along a counted edge.
func (c *procComp) compileBody() error {
	g := c.p.G
	maxID := g.MaxID()
	c.nodeIP = make([]int32, maxID+1)
	c.out.lines = make([]int32, maxID+1)
	c.out.edgeOff = make([]int32, maxID+1)
	total := 0
	for id := cfg.NodeID(1); id <= maxID; id++ {
		c.out.edgeOff[id] = int32(total)
		total += len(g.OutEdges(id))
	}
	c.out.numEdges = total

	for id := cfg.NodeID(1); id <= maxID; id++ {
		c.curNode = id
		if s, ok := c.p.Stmt[id]; ok && s != nil {
			c.out.lines[id] = int32(s.Pos())
		}
		c.nodeIP[id] = int32(len(c.out.ins))
		c.emit(instr{op: opNode, a: int32(id)})
		op, ok := g.Node(id).Payload.(lower.Op)
		if !ok {
			return c.bail("node", "node %d has no executable payload", id)
		}
		if err := c.compileOp(id, op); err != nil {
			return err
		}
		if c.depth != 0 {
			return c.bail("internal", "stack imbalance %+d after node %d", c.depth, id)
		}
	}
	return nil
}

func (c *procComp) compileOp(id cfg.NodeID, op lower.Op) error {
	switch o := op.(type) {
	case lower.OpNop, lower.OpReturn:
		return c.emitUncond(id)
	case lower.OpEnd:
		c.emit(instr{op: opEnd})
		return nil
	case lower.OpStop:
		// a = the STOP node's CFG id, read by the path-profiling partial
		// recorder; not a branch target, so no fixup.
		c.emit(instr{op: opStop, a: int32(id)})
		return nil
	case lower.OpAssign:
		if err := c.assign(o.S); err != nil {
			return err
		}
		return c.emitUncond(id)
	case lower.OpPrint:
		for _, item := range o.S.Items {
			if sl, ok := item.(*lang.StrLit); ok {
				c.emit(instr{op: opPrintStr, a: c.internStr(sl.Val)})
				continue
			}
			if err := c.expr(item); err != nil {
				return err
			}
			c.emit(instr{op: opPrintVal})
			c.depth--
		}
		c.emit(instr{op: opPrintFlush})
		return c.emitUncond(id)
	case lower.OpBranch:
		if err := c.expr(o.Cond); err != nil {
			return err
		}
		tFlat, tTo, err := c.flatEdge(id, cfg.True)
		if err != nil {
			return err
		}
		fFlat, fTo, err := c.flatEdge(id, cfg.False)
		if err != nil {
			return err
		}
		idx := c.emit(instr{op: opBranch, a: int32(tTo), b: int32(fTo), c: tFlat, d: fFlat})
		c.fix = append(c.fix, fixup{idx, 0}, fixup{idx, 1})
		c.depth--
		return nil
	case lower.OpArithIf:
		if err := c.expr(o.E); err != nil {
			return err
		}
		base := int32(len(c.out.arms))
		for _, l := range []cfg.Label{lower.LabelNeg, lower.LabelZero, lower.LabelPos} {
			if err := c.addArm(id, l); err != nil {
				return err
			}
		}
		c.emit(instr{op: opArithIf, a: base})
		c.depth--
		return nil
	case lower.OpComputedGoto:
		if err := c.expr(o.E); err != nil {
			return err
		}
		base := int32(len(c.out.arms))
		for i := 1; i <= o.N; i++ {
			if err := c.addArm(id, lower.GotoCase(i)); err != nil {
				return err
			}
		}
		if err := c.addArm(id, lower.LabelDefault); err != nil {
			return err
		}
		c.emit(instr{op: opCGoto, a: base, b: int32(o.N)})
		c.depth--
		return nil
	case lower.OpDoInit:
		return c.doInit(id, o)
	case lower.OpDoTest:
		tFlat, tTo, err := c.flatEdge(id, cfg.True)
		if err != nil {
			return err
		}
		fFlat, fTo, err := c.flatEdge(id, cfg.False)
		if err != nil {
			return err
		}
		idx := c.emit(instr{op: opDoTest, a: int32(tTo), b: int32(fTo), c: tFlat, d: fFlat, e: c.trip(o.Key)})
		c.fix = append(c.fix, fixup{idx, 0}, fixup{idx, 1})
		return nil
	case lower.OpDoIncr:
		slot, isRef, err := c.loopVar(o.L.Var)
		if err != nil {
			return err
		}
		flags := int32(0)
		if isRef {
			flags |= 1
		}
		if o.L.Step != nil {
			if err := c.expr(o.L.Step); err != nil {
				return err
			}
			flags |= 2
			c.depth--
		}
		c.emit(instr{op: opDoIncr, a: slot, b: flags, c: c.trip(o.Test)})
		return c.emitUncond(id)
	case lower.OpCall:
		if err := c.call(o.S); err != nil {
			return err
		}
		return c.emitUncond(id)
	}
	return c.bail("node", "unknown operation %T", op)
}

// doInit compiles the DO-loop initializer: the trip count evaluates
// lo, hi, step, then lo is evaluated a second time for the variable store —
// exactly the tree-walker's order, so RNG draws line up.
func (c *procComp) doInit(id cfg.NodeID, o lower.OpDoInit) error {
	slot, isRef, err := c.loopVar(o.L.Var)
	if err != nil {
		return err
	}
	if err := c.expr(o.L.Lo); err != nil {
		return err
	}
	if err := c.expr(o.L.Hi); err != nil {
		return err
	}
	if o.L.Step != nil {
		if err := c.expr(o.L.Step); err != nil {
			return err
		}
	} else {
		c.konst(interp.Int(1))
	}
	c.emit(instr{op: opTrip, a: int32(o.L.Line)})
	c.depth -= 2
	if err := c.expr(o.L.Lo); err != nil {
		return err
	}
	ref := int32(0)
	if isRef {
		ref = 1
	}
	c.emit(instr{op: opDoInitFin, a: slot, b: ref, c: c.trip(o.Test)})
	c.depth -= 2
	return c.emitUncond(id)
}

// loopVar resolves a DO variable to its scalar slot.
func (c *procComp) loopVar(name string) (int32, bool, error) {
	sym := c.p.Unit.Symbols[name]
	if sym == nil || sym.Kind != lang.SymScalar {
		return 0, false, c.bail("DO variable", "%s is not a scalar variable", name)
	}
	if sym.IsParam {
		return c.refSlot[name], true, nil
	}
	return c.valSlot[name], false, nil
}

// call compiles argument staging (in parameter order, matching the
// tree-walker's binding order) and the opCall.
func (c *procComp) call(s *lang.CallStmt) error {
	callee := c.res.Procs[s.Name]
	if callee == nil {
		return c.bail("CALL", "no subroutine %s", s.Name)
	}
	if len(s.Args) != len(callee.Unit.Params) {
		return c.bail("CALL", "%s takes %d argument(s), got %d", s.Name, len(callee.Unit.Params), len(s.Args))
	}
	for i, arg := range s.Args {
		param := callee.Unit.Symbols[callee.Unit.Params[i]]
		if err := c.stageArg(arg, param); err != nil {
			return err
		}
	}
	// d = the CALL node's CFG id: a STOP unwinding through this frame
	// records its path partial against the call node (not a branch target,
	// so no fixup).
	c.emit(instr{op: opCall, a: int32(c.byName[s.Name]), b: int32(len(s.Args)), c: int32(s.Line), d: int32(c.curNode)})
	return nil
}

// stageArg emits the staging op for one CALL argument.
func (c *procComp) stageArg(arg lang.Expr, param *lang.Symbol) error {
	paramIsArray := param.Kind == lang.SymArray
	switch a := arg.(type) {
	case *lang.Var:
		sym := c.p.Unit.Symbols[a.Name]
		if sym == nil {
			return c.bail("CALL argument", "undefined argument %s", a.Name)
		}
		switch sym.Kind {
		case lang.SymConst:
			if paramIsArray {
				return c.bail("CALL argument", "constant %s passed to array parameter", a.Name)
			}
			c.konst(interp.ConstSymbolValue(sym))
			c.emit(instr{op: opArgVal})
			c.depth--
			return nil
		case lang.SymArray:
			if !paramIsArray {
				return c.bail("CALL argument", "array %s passed to scalar parameter", a.Name)
			}
			c.emit(instr{op: opArgArray, a: c.arrSlot[a.Name]})
			return nil
		default:
			if paramIsArray {
				return c.bail("CALL argument", "scalar %s passed to array parameter", a.Name)
			}
			if sym.IsParam {
				c.emit(instr{op: opArgRef, a: c.refSlot[a.Name]})
			} else {
				c.emit(instr{op: opArgLocal, a: c.valSlot[a.Name]})
			}
			return nil
		}
	case *lang.Index:
		if paramIsArray {
			return c.bail("CALL argument", "array element passed to array parameter")
		}
		sym := c.p.Unit.Symbols[a.Name]
		if sym == nil || sym.Kind != lang.SymArray {
			return c.bail("CALL argument", "%s is not an array", a.Name)
		}
		return c.elem(a, opArgElem, opArgElemAff)
	default:
		if paramIsArray {
			return c.bail("CALL argument", "expression passed to array parameter")
		}
		if err := c.expr(arg); err != nil {
			return err
		}
		c.emit(instr{op: opArgVal})
		c.depth--
		return nil
	}
}

// assign compiles "lhs = rhs": RHS first, then subscripts, then the store —
// the tree-walker's evaluation order.
func (c *procComp) assign(s *lang.Assign) error {
	if err := c.expr(s.RHS); err != nil {
		return err
	}
	switch lhs := s.LHS.(type) {
	case *lang.Var:
		sym := c.p.Unit.Symbols[lhs.Name]
		if sym == nil || sym.Kind != lang.SymScalar {
			return c.bail("assignment", "cannot assign to %s", lhs.Name)
		}
		if sym.IsParam {
			c.emit(instr{op: opStoreRef, a: c.refSlot[lhs.Name]})
		} else {
			c.emit(instr{op: opStoreLocal, a: c.valSlot[lhs.Name]})
		}
		c.depth--
		return nil
	case *lang.Index:
		sym := c.p.Unit.Symbols[lhs.Name]
		if sym == nil || sym.Kind != lang.SymArray {
			return c.bail("assignment", "%s is not an array", lhs.Name)
		}
		if err := c.elem(lhs, opStoreElem, opStoreElemAff); err != nil {
			return err
		}
		c.depth--
		return nil
	}
	return c.bail("assignment", "bad assignment target %T", s.LHS)
}

// expr compiles one expression; net stack effect is +1.
func (c *procComp) expr(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.IntLit:
		c.konst(interp.Int(x.Val))
		return nil
	case *lang.RealLit:
		c.konst(interp.Real(x.Val))
		return nil
	case *lang.LogLit:
		c.konst(interp.Logical(x.Val))
		return nil
	case *lang.StrLit:
		return c.bail("string literal", "string used as value")
	case *lang.Var:
		sym := c.p.Unit.Symbols[x.Name]
		if sym == nil {
			return c.bail("variable", "no scalar %s", x.Name)
		}
		switch sym.Kind {
		case lang.SymConst:
			c.konst(interp.ConstSymbolValue(sym))
		case lang.SymArray:
			return c.bail("variable", "array %s used as a scalar", x.Name)
		default:
			switch {
			case sym.IsParam:
				c.emit(instr{op: opRef, a: c.refSlot[x.Name]})
			case c.unbound(sym):
				c.fail("no scalar %s", x.Name)
			default:
				c.emit(instr{op: opLocal, a: c.valSlot[x.Name]})
			}
			c.push()
		}
		return nil
	case *lang.Index:
		sym := c.p.Unit.Symbols[x.Name]
		if sym == nil || sym.Kind != lang.SymArray {
			return c.bail("subscript", "%s is not an array", x.Name)
		}
		if c.unbound(sym) {
			// The tree-walker finds no array before it evaluates a subscript.
			c.fail("%s is not an array", x.Name)
		} else if err := c.elem(x, opElem, opElemAff); err != nil {
			return err
		}
		c.push()
		return nil
	case *lang.Un:
		if err := c.expr(x.X); err != nil {
			return err
		}
		switch x.Op {
		case lang.OpNot:
			c.emit(instr{op: opNot})
		case lang.OpNeg:
			c.emit(instr{op: opNeg})
		}
		return nil
	case *lang.Bin:
		if err := c.expr(x.L); err != nil {
			return err
		}
		if err := c.expr(x.R); err != nil {
			return err
		}
		c.emit(instr{op: opBin, a: int32(x.Op)})
		c.depth--
		return nil
	case *lang.Intrinsic:
		for _, a := range x.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(instr{op: opIntrin, a: int32(x.ID), b: int32(len(x.Args))})
		c.depth -= len(x.Args)
		c.push()
		return nil
	}
	return c.bail("expression", "cannot evaluate %T", e)
}

// elem emits the element instruction for array reference x, leaving the
// stack as it found it (the caller accounts for the element's own push or
// the stored value's pop). When every subscript is affine (see affineSub)
// it emits the affine form with its operands appended to affs; otherwise
// it compiles the subscripts onto the stack and emits the generic form.
func (c *procComp) elem(x *lang.Index, generic, affine opcode) error {
	in := instr{a: c.arrSlot[x.Name], b: int32(len(x.Subs)), c: c.internStr(x.Name)}
	subs := make([]affSub, 0, len(x.Subs))
	for _, se := range x.Subs {
		sub, ok := c.affineSub(se)
		if !ok {
			break
		}
		subs = append(subs, sub)
	}
	if len(subs) == len(x.Subs) {
		in.op, in.d = affine, int32(len(c.out.affs))
		c.out.affs = append(c.out.affs, subs...)
		c.emit(in)
		return nil
	}
	for _, se := range x.Subs {
		if err := c.expr(se); err != nil {
			return err
		}
	}
	in.op = generic
	c.emit(in)
	c.depth -= len(x.Subs)
	return nil
}

// affineSub recognizes the subscript forms an affine element instruction
// takes: an integer constant (literal or PARAMETER), an INTEGER local
// scalar, or such a local plus or minus an integer constant. None of them
// can fail or draw from the RNG, so skipping the stack changes nothing
// observable.
func (c *procComp) affineSub(e lang.Expr) (affSub, bool) {
	if k, ok := c.intConst(e); ok {
		return affSub{slot: c.zeroSlot(), off: k}, true
	}
	if slot, ok := c.intLocal(e); ok {
		return affSub{slot: slot}, true
	}
	b, ok := e.(*lang.Bin)
	if !ok || (b.Op != lang.OpAdd && b.Op != lang.OpSub) {
		return affSub{}, false
	}
	slot, ok := c.intLocal(b.L)
	if !ok {
		return affSub{}, false
	}
	k, ok := c.intConst(b.R)
	if !ok {
		return affSub{}, false
	}
	if b.Op == lang.OpSub {
		k = -k
	}
	return affSub{slot: slot, off: k}, true
}

// intConst reports the value of an integer literal or INTEGER PARAMETER.
func (c *procComp) intConst(e lang.Expr) (int64, bool) {
	switch x := e.(type) {
	case *lang.IntLit:
		return x.Val, true
	case *lang.Var:
		if sym := c.p.Unit.Symbols[x.Name]; sym != nil && sym.Kind == lang.SymConst {
			if v := interp.ConstSymbolValue(sym); v.T == lang.TInt {
				return v.I, true
			}
		}
	}
	return 0, false
}

// intLocal reports the value slot of a bound INTEGER local scalar. Stores
// convert to the cell's type, so the slot always holds a TInt.
func (c *procComp) intLocal(e lang.Expr) (int32, bool) {
	x, ok := e.(*lang.Var)
	if !ok {
		return 0, false
	}
	sym := c.p.Unit.Symbols[x.Name]
	if sym == nil || sym.Kind != lang.SymScalar || sym.IsParam || sym.Type != lang.TInt || c.unbound(sym) {
		return 0, false
	}
	return c.valSlot[x.Name], true
}

// zeroSlot returns a value slot that holds integer zero for the whole
// activation, allocated on first use: no symbol maps to it, so nothing
// stores to it, and a constant subscript is the operand (zeroSlot, k)
// with no special case in the exec loops.
func (c *procComp) zeroSlot() int32 {
	if c.zero < 0 {
		c.zero = int32(len(c.out.valTemplate))
		c.out.valTemplate = append(c.out.valTemplate, interp.Int(0))
	}
	return c.zero
}

// unbound reports whether the local sym has no storage yet where the code
// being compiled runs (see compilePrologue).
func (c *procComp) unbound(sym *lang.Symbol) bool {
	return !sym.IsParam && sym.Slot >= c.unboundFrom
}

// fail emits the runtime error the tree-walker raises where an extent
// reads a local that is not bound yet. The caller accounts for the value
// the failing read stands in for.
func (c *procComp) fail(format string, args ...any) {
	c.emit(instr{op: opFail, a: c.internStr(fmt.Sprintf(format, args...))})
}

// push records one value pushed onto the stack.
func (c *procComp) push() {
	c.depth++
	if c.depth > c.out.maxStack {
		c.out.maxStack = c.depth
	}
}

// compilePrologue emits the activation sequence: allocate local arrays
// (slot order), reinterpret array parameters with the callee's declared
// shape (parameter order), count the activation, and jump to the CFG
// entry node. The tree-walker binds locals in slot order too, so a local
// array's extent sees only the locals of earlier slots.
func (c *procComp) compilePrologue() error {
	c.curNode = 0
	c.out.entry = int32(len(c.out.ins))
	unit := c.p.Unit
	for _, name := range c.localArrays {
		sym := unit.Symbols[name]
		c.unboundFrom = sym.Slot
		if err := c.dims(sym); err != nil {
			return err
		}
		c.emit(instr{op: opAllocArray, a: c.arrSlot[name], b: int32(len(sym.Dims)), c: c.metaIdx[name]})
		c.depth -= len(sym.Dims)
	}
	c.unboundFrom = len(unit.Slots)
	for _, name := range unit.Params {
		sym := unit.Symbols[name]
		if sym == nil || sym.Kind != lang.SymArray {
			continue
		}
		if err := c.dims(sym); err != nil {
			return err
		}
		c.emit(instr{op: opBindArray, a: c.arrSlot[name], b: int32(len(sym.Dims)), c: c.metaIdx[name]})
		c.depth -= len(sym.Dims)
	}
	if c.depth != 0 {
		return c.bail("internal", "stack imbalance %+d after prologue", c.depth)
	}
	c.emit(instr{op: opActivate})
	idx := c.emit(instr{op: opGoto, a: int32(c.p.G.Entry)})
	c.fix = append(c.fix, fixup{idx, 0})
	return nil
}

// dims compiles an array's extent expressions, all of them before the
// allocation checks any: the tree-walker's order, so RNG draws and the
// first failing extent line up.
func (c *procComp) dims(sym *lang.Symbol) error {
	for _, de := range sym.Dims {
		if err := c.expr(de); err != nil {
			return err
		}
	}
	return nil
}

// flatEdge resolves (node, label) to the flat edge-counter index and the
// target node, matching the tree-walker's first-match label search.
func (c *procComp) flatEdge(from cfg.NodeID, label cfg.Label) (int32, cfg.NodeID, error) {
	for k, e := range c.p.G.OutEdges(from) {
		if e.Label == label {
			return c.out.edgeOff[from] + int32(k), e.To, nil
		}
	}
	return 0, 0, c.bail("edge", "no out-edge labelled %s from node %d", label, from)
}

// emitUncond terminates a node with its unconditional edge.
func (c *procComp) emitUncond(from cfg.NodeID) error {
	flat, to, err := c.flatEdge(from, cfg.Uncond)
	if err != nil {
		return err
	}
	idx := c.emit(instr{op: opJmp, a: int32(to), b: flat})
	c.fix = append(c.fix, fixup{idx, 0})
	return nil
}

// addArm appends one multi-way branch arm (target patched later).
func (c *procComp) addArm(from cfg.NodeID, label cfg.Label) error {
	flat, to, err := c.flatEdge(from, label)
	if err != nil {
		return err
	}
	c.out.arms = append(c.out.arms, arm{ip: int32(to), flat: flat})
	return nil
}

// trip returns the trip slot for a DO test node, allocating on first use.
func (c *procComp) trip(key cfg.NodeID) int32 {
	slot, ok := c.tripSlot[key]
	if !ok {
		slot = int32(len(c.tripSlot))
		c.tripSlot[key] = slot
	}
	return slot
}

// konst pushes an interned constant.
func (c *procComp) konst(v interp.Value) {
	idx, ok := c.constIdx[v]
	if !ok {
		idx = int32(len(c.out.consts))
		c.out.consts = append(c.out.consts, v)
		c.constIdx[v] = idx
	}
	c.emit(instr{op: opConst, a: idx})
	c.push()
}

func (c *procComp) internStr(s string) int32 {
	idx, ok := c.strIdx[s]
	if !ok {
		idx = int32(len(c.out.strs))
		c.out.strs = append(c.out.strs, s)
		c.strIdx[s] = idx
	}
	return idx
}

func (c *procComp) emit(in instr) int {
	c.out.ins = append(c.out.ins, in)
	return len(c.out.ins) - 1
}

// patch rewrites node-ID placeholders in jump fields and arms to
// instruction indices.
func (c *procComp) patch() {
	for _, fx := range c.fix {
		in := &c.out.ins[fx.idx]
		if fx.field == 0 {
			in.a = c.nodeIP[in.a]
		} else {
			in.b = c.nodeIP[in.b]
		}
	}
	for i := range c.out.arms {
		c.out.arms[i].ip = c.nodeIP[c.out.arms[i].ip]
	}
}

// init registers the compiler with interp so interp.Run and
// interp.RunBatch can run Options{Engine: EngineVM} here without an import
// cycle. A compile error is returned to the caller.
func init() {
	interp.RegisterVM(func(res *lower.Result) (interp.Compiled, error) {
		p, err := Compile(res)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
}
