// Package vm is the bytecode execution engine: a one-time compiler from
// lowered procedures to a flat, slot-indexed instruction stream, plus a
// tight switch-dispatch interpreter that runs it. Variables are resolved at
// compile time to dense frame slots (no string maps), DO-loop trip counts
// live in slots instead of a map, branch targets are precomputed
// instruction indices, and the per-node bookkeeping (step count, node
// counter, cost accumulation) is fused into the instruction stream.
//
// Compile once per program, then run every profiling seed against the
// shared Program on reusable lanes (batch.go): each lane recycles its
// activation frames through an arena, and a recycled frame's local arrays
// are reset in place rather than reallocated, so a lane's steady state
// allocates only by-value argument cells, the small reshaped views of
// array parameters, and a local array that outgrows its previous storage.
//
// Array references whose subscripts are all affine in an INTEGER local
// (I, I+1, N-1, 3) compile to element instructions that read their
// subscripts straight from the frame: one dispatch per reference, nothing
// through the value stack. Any other subscript takes the generic path.
//
// Ball–Larus path profiling (Options.PathSpec) inserts its counter code
// into the program rather than into the interpreter: each instrumented
// procedure is recompiled with edge stubs that update the path register
// (see instrument), and the same dispatch loop runs it.
//
// The engine is bit-identical to the tree-walker in internal/interp: the
// same step counts, node/edge counters, activation counts, float cost
// accumulation order, RNG draw order and runtime error messages. Operators,
// builtins, DO trip counts and the RNG are interp's own (interp.BinOp,
// interp.Intrinsic, interp.TripCount, interp.SeedRNG). It is the
// production engine (interp.EffectiveEngine's default). It compiles every
// program lang.Analyze accepts; only runs that set a per-node hook
// (Options.OnNode or OnNodeCost) take the tree-walker, the reference.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
)

// opcode is the instruction operation.
type opcode uint8

const (
	// opNode is the fused per-node bookkeeping marker: step count and
	// limit, node counter, cost accumulation. a = node ID.
	opNode       opcode = iota
	opConst             // push consts[a]
	opLocal             // push vals[a]
	opRef               // push *refs[a]
	opElem              // a=array slot, b=#subs, c=name idx: pop subs, push element
	opStoreLocal        // pop value into vals[a] (converted to the cell type)
	opStoreRef          // pop value into *refs[a]
	opStoreElem         // a=array slot, b=#subs, c=name idx: pop subs then value
	opNot               // logical negate the top
	opNeg               // arithmetic negate the top
	opBin               // a=lang.BinOp: pop two, push result
	opIntrin            // a=lang.IntrinsicID, b=#args
	opBranch            // pop cond; true: a/flat c, false: b/flat d
	opJmp               // jump to a counting flat edge b
	opGoto              // jump to a, no edge counted (prologue -> entry)
	opArithIf           // pop value; arms[a..a+2] = LT/EQ/GT
	opCGoto             // pop value; arms[a..a+b] = G1..GN then default
	opTrip              // a=line: pop step,hi,lo; push F77 trip count
	opDoInitFin         // a=var slot, b=isRef, c=trip slot: pop lo, pop trip
	opDoTest            // trips[e] > 0: a/flat c, else b/flat d
	opDoIncr            // a=var slot, b=flags(1 isRef, 2 hasStep), c=trip slot
	opArgLocal          // stage &vals[a]
	opArgRef            // stage refs[a]
	opArgArray          // stage arrays[a]
	opArgElem           // a=array slot, b=#subs, c=name idx: stage element pointer
	opArgVal            // pop value, stage a fresh cell holding the copy
	opCall              // a=proc idx, b=#args, c=call line
	opActivate          // count one activation (end of prologue)
	opAllocArray        // a=array slot, b=#dims, c=meta idx: pop dims, allocate
	opBindArray         // a=array slot, b=#dims, c=meta idx: reinterpret param array
	opPrintStr          // append strs[a] (nothing when Out is nil)
	opPrintVal          // pop value, append its rendering
	opPrintFlush        // write the accumulated line
	opEnd               // return from the procedure
	opStop              // STOP: unwind every frame
	opPathEdge          // Ball–Larus edge stub: apply path flat edge b, jump to a
	opFail              // raise a runtime error with text strs[a] (line 0)

	// Affine element forms, emitted by the compiler (not the peephole
	// pass) when every subscript is an integer constant, an INTEGER local,
	// or such a local plus or minus a constant: a=array slot, b=#subs,
	// c=name idx, d=first operand in affs. The subscripts never touch the
	// value stack.
	opElemAff      // push the element
	opStoreElemAff // pop value into the element
	opArgElemAff   // stage the element pointer

	// Superinstructions: fused forms of the hot pairs/triples above,
	// installed by the post-compile peephole pass in fuse.go. Each one
	// replaces two or three dispatches (and their cost/counter bookkeeping
	// preambles) with a single switch arm; semantics are exactly the
	// concatenation of the constituent opcodes.
	opNodeJmp       // opNode(f) + opJmp: a=target, b=flat edge
	opNodeDoTest    // opNode(f) + opDoTest: a/b targets, c/d flat edges, e=trip slot
	opNodeDoIncrJmp // opNode(f) + stepless opDoIncr(a=var, b=flags, c=trip) + opJmp(d=target, e=flat)
	opDoIncrJmp     // opDoIncr(a=var, b=flags, c=trip) + opJmp(d=target, e=flat)
	opNodeConst     // opNode(f) + opConst(a)
	opNodeLocal     // opNode(f) + opLocal(a)
	opNodeRef       // opNode(f) + opRef(a)
	opLocalConstBin // opLocal(a) + opConst(b) + opBin(c)
	opLocalLocalBin // opLocal(a) + opLocal(b) + opBin(c)
	opStoreLocalJmp // opStoreLocal(a) + opJmp(b=target, c=flat)
	opStoreRefJmp   // opStoreRef(a) + opJmp(b=target, c=flat)

	// Round two, driven by the dynamic mix of the bench corpus: the inner
	// loop of a typical generated program is DoTest, Node, Ref, Ref, Const,
	// Bin, Bin, StoreRef, Jmp, Node, DoIncr, Jmp — these forms collapse the
	// remaining expression/store/back-edge dispatches.
	opRefConstBin    // opRef(a) + opConst(b) + opBin(c)
	opConstBin       // opConst(a) + opBin(b): pop l, push l op consts[a]
	opBinStoreRefJmp // opBin(a) + opStoreRef(b) + opJmp(c=target, d=flat)
	opBinBranch      // opBin(e) + opBranch(a/b targets, c/d flat edges)
	opDoInitFinJmp   // opDoInitFin(a=var, b=isRef, c=trip) + opJmp(d=target, e=flat)

	// Whole-statement forms: an accumulation statement like S = S + X*C
	// opens with Node, Ref, [Ref,] Const, Bin — common enough in generated
	// programs to deserve single-dispatch opcodes.
	opNodeRefConstBin    // opNode(f) + opRef(a) + opConst(b) + opBin(c)
	opNodeRefRefConstBin // opNode(f) + opRef(a), then opRef(b) + opConst(c) + opBin(d)

	// Round three, aimed at the shapes the dynamic mix still dispatches one
	// by one: the DO-loop header (Node, Const lo, Const hi, Const step,
	// Trip), call-argument staging, and the two-instruction procedure
	// prologue.
	opNodeConstConst // opNode(f) + opConst(a) + opConst(b)
	opConstTrip      // opConst(a=step const) + opTrip(b=line)
	opArgLocal2      // opArgLocal(a) + opArgLocal(b)
	opNodeArgLocal2  // opNode(f) + opArgLocal(a) + opArgLocal(b)
	opActivateGoto   // opActivate + opGoto(a)
)

// instr is one fixed-width instruction. Field meaning depends on op; f is
// only used by superinstructions (the fused opNode's node ID).
type instr struct {
	op               opcode
	a, b, c, d, e, f int32
}

// arm is one precomputed multi-way branch target.
type arm struct {
	ip   int32 // target instruction index
	flat int32 // flat edge-counter index
}

// paramBind describes where one parameter lands in the callee frame.
type paramBind struct {
	slot    int32
	isArray bool
}

// arrayMeta is the compile-time identity of an array slot (error messages,
// element type for allocation).
type arrayMeta struct {
	name string
	typ  lang.Type
}

// affSub is one affine subscript operand: vals[slot].I + off. A constant
// subscript reads the procedure's zero slot (see procComp.zeroSlot). The
// add wraps exactly like interp.BinOp's int64 add (a subtracted constant is
// stored negated, which wraps identically).
type affSub struct {
	slot int32
	off  int64
}

// procCode is one compiled procedure.
type procCode struct {
	proc   *lower.Proc
	name   string
	ins    []instr
	consts []interp.Value
	strs   []string
	arms   []arm
	affs   []affSub
	// lines maps node ID to its source line (step-limit errors).
	lines []int32
	// edgeOff maps node ID to its first flat edge-counter index.
	edgeOff  []int32
	numEdges int
	// valTemplate seeds the local-scalar slots of a fresh frame.
	valTemplate []interp.Value
	numRefs     int
	numArrays   int
	numTrips    int
	// tripNodes maps a trip slot back to its DO test node (StopFrame
	// records report registers by test node, like the tree-walker).
	tripNodes []cfg.NodeID
	params    []paramBind
	meta      []arrayMeta
	entry     int32
	maxStack  int
	// fused counts the instructions eliminated by superinstruction fusion.
	fused int
	// path is the Ball–Larus instrumentation this code was compiled with
	// (its edge stubs read it); nil on the plain code Compile returns.
	path *pathRT
}

// frame is one activation record, carved from a lane's arena.
type frame struct {
	vals     []interp.Value
	refs     []*interp.Value
	arrays   []*interp.Array
	trips    []int64
	callLine int
	// reg is the activation's Ball–Larus path register; only instrumented
	// code reads it.
	reg int64
}

// Program is a compiled program, safe for concurrent Run calls.
type Program struct {
	res     *lower.Result
	procs   []*procCode
	byName  map[string]int
	mainIdx int
	noFuse  bool

	// costCache memoizes per-node cost tables by model value, so running
	// many seeds under one model prices the nodes once. Tables are
	// immutable after insertion and shared by concurrent runs.
	costMu    sync.Mutex
	costCache map[cost.Model][][]float64

	// pathCache memoizes the procedure set instrumented for each PathSpec
	// (by identity — specs are built once per Plans and shared), mirroring
	// costCache: compile the stubs once, run every seed.
	pathMu    sync.Mutex
	pathCache map[*interp.PathSpec][]*procCode
}

// pathRT is one procedure's Ball–Larus instrumentation flattened onto the
// VM's flat edge-counter indexing: inc/bump/reset[edgeOff[node]+k] mirror
// the spec's [node][k] tables, so an edge stub applies them with the index
// its edge is counted under. Immutable after construction.
type pathRT struct {
	spec  *interp.PathProcSpec
	inc   []int64
	bump  []bool
	reset []int64
}

// pathProcs returns the procedure set a run under spec executes, building
// it on first use: a procedure the spec instruments is recompiled with
// edge stubs (see instrument), any other keeps its plain procCode. A spec
// that instruments nothing gets p.procs itself.
func (p *Program) pathProcs(spec *interp.PathSpec) []*procCode {
	p.pathMu.Lock()
	defer p.pathMu.Unlock()
	if procs, ok := p.pathCache[spec]; ok {
		return procs
	}
	procs := make([]*procCode, len(p.procs))
	instrumented := false
	for i, plain := range p.procs {
		procs[i] = plain
		ps := spec.Procs[plain.name]
		if ps == nil {
			continue
		}
		// The plain code compiled from the same procedure, so this cannot
		// fail.
		pc, err := compileProc(p.res, plain.proc, p.byName)
		if err != nil {
			panic(fmt.Sprintf("vm: recompiling %s: %v", plain.name, err))
		}
		pc.instrument(flattenPath(plain, ps))
		if !p.noFuse {
			pc.fuse()
		}
		procs[i] = pc
		instrumented = true
	}
	if !instrumented {
		procs = p.procs
	}
	if p.pathCache == nil {
		p.pathCache = make(map[*interp.PathSpec][]*procCode)
	}
	p.pathCache[spec] = procs
	return procs
}

// flattenPath lays ps out on pc's flat edge-counter indexing.
func flattenPath(pc *procCode, ps *interp.PathProcSpec) *pathRT {
	rt := &pathRT{
		spec:  ps,
		inc:   make([]int64, pc.numEdges),
		bump:  make([]bool, pc.numEdges),
		reset: make([]int64, pc.numEdges),
	}
	g := pc.proc.G
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		off := int(pc.edgeOff[id])
		for k := range g.OutEdges(id) {
			rt.inc[off+k] = ps.Inc[id][k]
			rt.bump[off+k] = ps.Bump[id][k]
			rt.reset[off+k] = ps.Reset[id][k]
		}
	}
	return rt
}

// instrument points every edge whose Ball–Larus increment is nonzero, or
// that completes a path, at an opPathEdge stub appended after the body;
// the stub applies the edge to the path register and jumps on to the real
// target. It runs before fuse, while only opBranch, opJmp, opDoTest and
// the arms carry edges: the fused forms copy their targets from these, so
// they take the stubs with them. An edge with increment 0 and no bump
// keeps its direct target and costs nothing.
func (pc *procCode) instrument(rt *pathRT) {
	pc.path = rt
	var stubs []instr
	via := func(target *int32, flat int32) {
		if rt.inc[flat] != 0 || rt.bump[flat] {
			stubs = append(stubs, instr{op: opPathEdge, a: *target, b: flat})
			*target = int32(len(pc.ins) + len(stubs) - 1)
		}
	}
	for i := range pc.ins {
		in := &pc.ins[i]
		switch in.op {
		case opBranch, opDoTest:
			via(&in.a, in.c)
			via(&in.b, in.d)
		case opJmp:
			via(&in.a, in.b)
		}
	}
	for i := range pc.arms {
		via(&pc.arms[i].ip, pc.arms[i].flat)
	}
	pc.ins = append(pc.ins, stubs...)
}

// NumInstructions returns the total instruction count across procedures
// (after fusion, when it ran).
func (p *Program) NumInstructions() int {
	n := 0
	for _, pc := range p.procs {
		n += len(pc.ins)
	}
	return n
}

// FusedInstructions returns how many instructions the superinstruction pass
// eliminated across the program (0 when compiled with NoFuse).
func (p *Program) FusedInstructions() int {
	n := 0
	for _, pc := range p.procs {
		n += pc.fused
	}
	return n
}

// costTables returns the per-proc, per-node cost table for m, building it
// on first use.
func (p *Program) costTables(m *cost.Model) [][]float64 {
	p.costMu.Lock()
	defer p.costMu.Unlock()
	if tabs, ok := p.costCache[*m]; ok {
		return tabs
	}
	tabs := make([][]float64, len(p.procs))
	for i, pc := range p.procs {
		tab := make([]float64, pc.proc.G.MaxID()+1)
		for _, n := range pc.proc.G.Nodes() {
			if op, ok := n.Payload.(lower.Op); ok {
				tab[n.ID] = m.NodeCost(op)
			}
		}
		tabs[i] = tab
	}
	if p.costCache == nil {
		p.costCache = make(map[cost.Model][][]float64)
	}
	p.costCache[*m] = tabs
	return tabs
}

// argSlot is one staged call argument, mirroring the tree-walker's binding.
type argSlot struct {
	cell *interp.Value
	arr  *interp.Array
}

// callSite is one suspended caller activation on exec's explicit call
// stack. Calls are handled inside the dispatch loop — push the caller,
// switch the register-cached locals to the callee — instead of recursing
// through runProc, so an activation costs a frame bind plus a register
// reload rather than a Go call, a full preamble, and a flush/reload of the
// step and cost accumulators.
type callSite struct {
	pc *procCode
	f  *frame
	pi int32
	ip int32
}

// errStop unwinds all frames on STOP, like the tree-walker's sentinel.
var errStop = errors.New("stop")

// runState is the per-run mutable state shared by all activations.
type runState struct {
	prog   *Program
	opt    interp.Options
	result *interp.Result
	counts []*interp.Counts
	edges  [][]int64   // flat edge counters per proc index
	costs  [][]float64 // nil when Options.Model is nil
	stack  []interp.Value
	args   []argSlot
	calls  []callSite
	parts  []any
	// procs is the code this run executes: the program's plain
	// procedures, or under Options.PathSpec the set instrumented for it
	// (see initPaths). paths holds the counters of each instrumented
	// procedure, nil elsewhere.
	procs []*procCode
	paths []*interp.PathCounts
	rng   uint64
	steps int64
	max   int64
	depth int
	// arena supplies the lane's frames (see arena.go).
	arena *laneArena
}

// recordStopFrame mirrors the tree-walker's: capture an activation's frozen
// position and live DO registers as a STOP unwinds through it, and, for
// instrumented code, the (node, path register) prefix the STOP cut short.
// VM trip slots are allocated in compile order, so sort by test node to
// match the tree-walker's dense ascending scan bit-for-bit.
func (rs *runState) recordStopFrame(pi int, pc *procCode, f *frame, node cfg.NodeID) {
	if pc.path != nil {
		pcn := rs.paths[pi]
		pcn.Partials = append(pcn.Partials, interp.PathPartial{Node: node, Reg: f.reg})
	}
	sf := interp.StopFrame{Proc: pc.name, Node: node}
	for slot, rem := range f.trips {
		if rem > 0 {
			sf.Trips = append(sf.Trips, interp.TripReg{Test: pc.tripNodes[slot], Remaining: rem})
		}
	}
	sort.Slice(sf.Trips, func(i, j int) bool { return sf.Trips[i].Test < sf.Trips[j].Test })
	rs.result.StopFrames = append(rs.result.StopFrames, sf)
}

// Run executes the compiled program once under opt, as a lane that runs
// one seed. Results are bit-identical to interp.Run on the same lowered
// program. Runs that set a per-node hook are delegated to the tree-walker
// (see interp.NewLane).
func (p *Program) Run(opt interp.Options) (*interp.Result, error) {
	return interp.NewLane(p.res, p, opt).RunSeed(opt.Seed)
}

// initPaths picks the run's code and path-profiling state from
// Options.PathSpec: the plain procedures without one, else the set
// instrumented for it, plus one PathCounts per instrumented procedure,
// exposed on the Result exactly like the tree-walker's.
func (rs *runState) initPaths() {
	rs.procs = rs.prog.procs
	spec := rs.opt.PathSpec
	if spec == nil {
		return
	}
	rs.procs = rs.prog.pathProcs(spec)
	rs.paths = make([]*interp.PathCounts, len(rs.procs))
	for i, pc := range rs.procs {
		if pc.path == nil {
			continue
		}
		// Lazy map creation matches the tree-walker: a spec with no
		// instrumented procedures leaves Result.Paths nil.
		if rs.result.Paths == nil {
			rs.result.Paths = make(map[string]*interp.PathCounts)
		}
		pcn := interp.NewPathCounts(pc.path.spec)
		rs.paths[i] = pcn
		rs.result.Paths[pc.name] = pcn
	}
}

// runMain executes the main program's activation; exec runs every call
// inside it.
func (rs *runState) runMain() error {
	pi := rs.prog.mainIdx
	pc := rs.procs[pi]
	f := rs.arena.getFrame(pi, pc)
	rs.depth++
	err := rs.exec(pc, f, pi)
	rs.depth--
	rs.arena.putFrame(pi, f)
	return err
}

// elemOffset converts 1-based subscripts (as stack values) to a linear
// column-major index, with the tree-walker's exact error messages.
func elemOffset(arr *interp.Array, subs []interp.Value, unit, name string) (int64, error) {
	if len(subs) != len(arr.Dims) {
		return 0, &interp.RuntimeError{Unit: unit, Line: 0,
			Msg: fmt.Sprintf("%s: array has %d dimensions, indexed with %d", name, len(arr.Dims), len(subs))}
	}
	off := int64(0)
	stride := int64(1)
	for d := 0; d < len(subs); d++ {
		s := subs[d].I
		if s < 1 || s > arr.Dims[d] {
			return 0, &interp.RuntimeError{Unit: unit, Line: 0,
				Msg: fmt.Sprintf("%s: subscript %d out of bounds 1..%d in dimension %d", name, s, arr.Dims[d], d+1)}
		}
		off += (s - 1) * stride
		stride *= arr.Dims[d]
	}
	return off, nil
}

// affOffset is elemOffset for an affine element instruction, minus the
// error text: ok=false on a rank mismatch or an out-of-bounds subscript,
// and affError then builds the message.
func affOffset(dims []int64, subs []affSub, vals []interp.Value) (int64, bool) {
	if len(subs) != len(dims) {
		return 0, false
	}
	off, stride := int64(0), int64(1)
	for d, sub := range subs {
		s := vals[sub.slot].I + sub.off
		if s < 1 || s > dims[d] {
			return 0, false
		}
		off += (s - 1) * stride
		stride *= dims[d]
	}
	return off, true
}

// affError returns the error of an affine element access that affOffset
// rejected: it evaluates the subscripts and hands them to elemOffset, so
// the text is the generic path's by construction.
func affError(arr *interp.Array, subs []affSub, vals []interp.Value, unit, name string) error {
	vs := make([]interp.Value, len(subs))
	for d, sub := range subs {
		vs[d] = interp.Int(vals[sub.slot].I + sub.off)
	}
	_, err := elemOffset(arr, vs, unit, name)
	return err
}

// allocLocal runs opAllocArray: it checks the popped extents and stores a
// zeroed local array of them in f.arrays[in.a]. A recycled frame still
// holds the array its procedure's previous activation allocated there (see
// putFrame); when its storage is large enough it is reset in place, every
// element to the typed zero a fresh make plus the type stamp would give,
// so a lane stops allocating the program's local arrays after its first
// activation of each procedure.
func allocLocal(pc *procCode, f *frame, in *instr, ext []interp.Value) error {
	md := &pc.meta[in.c]
	total := int64(1)
	for _, v := range ext {
		if v.I < 1 {
			return &interp.RuntimeError{Unit: pc.name, Line: 0,
				Msg: fmt.Sprintf("array %s has non-positive extent %d", md.name, v.I)}
		}
		var ok bool
		if total, ok = interp.MulExtent(total, v.I); !ok {
			return &interp.RuntimeError{Unit: pc.name, Line: 0, Msg: interp.TooLargeMsg(md.name)}
		}
	}
	arr := f.arrays[in.a]
	if arr == nil || int64(cap(arr.Elems)) < total || cap(arr.Dims) < len(ext) {
		arr = &interp.Array{Dims: make([]int64, len(ext)), Elems: make([]interp.Value, total)}
		f.arrays[in.a] = arr
	}
	arr.Type = md.typ
	arr.Dims = arr.Dims[:len(ext)]
	for d, v := range ext {
		arr.Dims[d] = v.I
	}
	arr.Elems = arr.Elems[:total]
	zero := interp.Value{T: md.typ}
	for i := range arr.Elems {
		arr.Elems[i] = zero
	}
	return nil
}

// bindParam runs opBindArray: it reinterprets the array argument bound to
// f.arrays[in.a] with the callee's declared shape, popped as ext.
func bindParam(pc *procCode, f *frame, in *instr, ext []interp.Value) error {
	md := &pc.meta[in.c]
	arr := f.arrays[in.a]
	dims := make([]int64, len(ext))
	total := int64(1)
	for d, v := range ext {
		dims[d] = v.I
		var ok bool
		if total, ok = interp.MulExtent(total, v.I); !ok {
			return &interp.RuntimeError{Unit: pc.name, Line: f.callLine,
				Msg: interp.ParamTooLargeMsg(md.name, len(arr.Elems))}
		}
	}
	if total > int64(len(arr.Elems)) {
		return &interp.RuntimeError{Unit: pc.name, Line: f.callLine,
			Msg: fmt.Sprintf("array parameter %s needs %d elements, argument has %d", md.name, total, len(arr.Elems))}
	}
	f.arrays[in.a] = &interp.Array{Type: arr.Type, Dims: dims, Elems: arr.Elems}
	return nil
}
