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
// activation frames through an arena, so a lane's steady state allocates
// only what the program itself allocates (local arrays, by-value argument
// cells).
//
// The engine is bit-identical to the tree-walker in internal/interp: the
// same step counts, node/edge counters, activation counts, float cost
// accumulation order, RNG draw order and runtime error messages. Programs
// the compiler cannot handle (see BailoutError) and runs that set
// Options.OnNode or Options.OnNodeVals fall back to the tree-walker.
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
	// limit, node counter, cost accumulation, OnNodeCost hook. a = node ID.
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
	opIntrin            // a=intrinsic id, b=#args
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
	opPrintStr          // append strs[a] (errors when Out is nil, like the tree)
	opPrintVal          // pop value, append its rendering
	opPrintFlush        // write the accumulated line
	opEnd               // return from the procedure
	opStop              // STOP: unwind every frame

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

// procCode is one compiled procedure.
type procCode struct {
	proc   *lower.Proc
	name   string
	ins    []instr
	consts []interp.Value
	strs   []string
	arms   []arm
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
}

// frame is one activation record, carved from a lane's arena.
type frame struct {
	vals     []interp.Value
	refs     []*interp.Value
	arrays   []*interp.Array
	trips    []int64
	callLine int
}

// Program is a compiled program, safe for concurrent Run calls.
type Program struct {
	res     *lower.Result
	procs   []*procCode
	byName  map[string]int
	mainIdx int

	// costCache memoizes per-node cost tables by model value, so running
	// many seeds under one model prices the nodes once. Tables are
	// immutable after insertion and shared by concurrent runs.
	costMu    sync.Mutex
	costCache map[cost.Model][][]float64

	// pathCache memoizes flattened Ball–Larus tables per PathSpec (by
	// identity — specs are built once per Plans and shared), mirroring
	// costCache: flatten once, run every seed.
	pathMu    sync.Mutex
	pathCache map[*interp.PathSpec][]*pathRT
}

// pathRT is one procedure's Ball–Larus instrumentation flattened onto the
// VM's flat edge-counter indexing: inc/bump/reset[edgeOff[node]+k] mirror
// the spec's [node][k] tables, so the exec loop applies them with the same
// index it already uses to count the edge. Immutable after construction.
type pathRT struct {
	spec  *interp.PathProcSpec
	inc   []int64
	bump  []bool
	reset []int64
}

// pathTables returns the per-proc flattened path tables for spec, building
// them on first use. A nil entry means the procedure is uninstrumented.
func (p *Program) pathTables(spec *interp.PathSpec) []*pathRT {
	p.pathMu.Lock()
	defer p.pathMu.Unlock()
	if rts, ok := p.pathCache[spec]; ok {
		return rts
	}
	rts := make([]*pathRT, len(p.procs))
	for i, pc := range p.procs {
		ps := spec.Procs[pc.name]
		if ps == nil {
			continue
		}
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
		rts[i] = rt
	}
	if p.pathCache == nil {
		p.pathCache = make(map[*interp.PathSpec][]*pathRT)
	}
	p.pathCache[spec] = rts
	return rts
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

// pathTracer is one activation's Ball–Larus state: the path register, the
// previously completed path id (pair mode), and the procedure's flattened
// tables. A zero tracer (rt nil) is inert, so uninstrumented procedures —
// and whole runs without a PathSpec — pay one predictable nil check per
// taken edge and nothing else.
type pathTracer struct {
	rt   *pathRT
	cnt  *interp.PathCounts
	reg  int64
	prev int64
}

// edge applies one taken edge by flat index. The split keeps the inert
// check small enough to inline at every exec edge site; the register math
// only runs for instrumented activations.
func (pt *pathTracer) edge(flat int32) {
	if pt.rt == nil {
		return
	}
	pt.edgeSlow(flat)
}

func (pt *pathTracer) edgeSlow(flat int32) {
	rt := pt.rt
	pt.reg += rt.inc[flat]
	if rt.bump[flat] {
		// A back edge completes the current path: bump its counter and
		// restart the register at the header's entry-dummy value.
		pt.cnt.Bump(pt.prev, pt.reg)
		pt.prev = pt.reg
		pt.reg = rt.reset[flat]
	}
}

// pathSave is one suspended caller's tracer on the explicit call stack,
// parallel to callSite. node is the caller's CALL node, recorded so a STOP
// unwinding through the frame can log an exact (node, register) partial.
type pathSave struct {
	pt   pathTracer
	node int32
}

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
	// pathRTs/paths are the per-proc Ball–Larus tables and counters; nil
	// unless Options.PathSpec is set. pt is the live activation's tracer
	// (kept here rather than in an exec local so the dispatch loop carries
	// no extra live registers); pathCalls mirrors calls with the suspended
	// callers' tracers (see exec).
	pathRTs   []*pathRT
	paths     []*interp.PathCounts
	pt        pathTracer
	pathCalls []pathSave
	rng       uint64
	steps     int64
	max       int64
	depth     int
	// arena supplies the lane's frames (see arena.go).
	arena *laneArena
}

// recordStopFrame mirrors the tree-walker's: capture an activation's frozen
// position and live DO registers as a STOP unwinds through it. VM trip
// slots are allocated in compile order, so sort by test node to match the
// tree-walker's dense ascending scan bit-for-bit.
func (rs *runState) recordStopFrame(pc *procCode, f *frame, node cfg.NodeID) {
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
// program. Runs that set OnNode or OnNodeVals are delegated to the
// tree-walker (see interp.NewLane).
func (p *Program) Run(opt interp.Options) (*interp.Result, error) {
	return interp.NewLane(p.res, p, opt).RunSeed(opt.Seed)
}

// initPaths builds the run's path-profiling state from Options.PathSpec:
// flattened tables plus one PathCounts per instrumented procedure, exposed
// on the Result exactly like the tree-walker's.
func (rs *runState) initPaths() {
	spec := rs.opt.PathSpec
	if spec == nil {
		return
	}
	rts := rs.prog.pathTables(spec)
	rs.pathRTs = rts
	rs.paths = make([]*interp.PathCounts, len(rs.prog.procs))
	for i, rt := range rts {
		if rt == nil {
			continue
		}
		// Lazy map creation matches the tree-walker: a spec with no
		// instrumented procedures leaves Result.Paths nil.
		if rs.result.Paths == nil {
			rs.result.Paths = make(map[string]*interp.PathCounts)
		}
		pcn := interp.NewPathCounts(rt.spec, spec.MultiIter)
		rs.paths[i] = pcn
		rs.result.Paths[rs.prog.procs[i].name] = pcn
	}
}

// runProc executes one activation of proc pi with the staged args.
func (rs *runState) runProc(pi int, args []argSlot, callLine int) error {
	pc := rs.prog.procs[pi]
	rs.depth++
	if rs.depth > 10000 {
		rs.depth--
		return &interp.RuntimeError{Unit: pc.name, Line: 0, Msg: "call stack overflow (runaway recursion?)"}
	}
	f := rs.arena.getFrame(pi, pc)
	f.callLine = callLine
	for i, pb := range pc.params {
		if pb.isArray {
			f.arrays[pb.slot] = args[i].arr
		} else {
			f.refs[pb.slot] = args[i].cell
		}
	}
	// Path-instrumented runs dispatch through execPaths, a twin of the
	// exec loop with the per-edge Ball–Larus hooks compiled in; keeping
	// exec itself hook-free preserves uninstrumented vm/vm-batch
	// throughput (see exec_paths.go).
	var err error
	if rs.pathRTs != nil {
		err = rs.execPaths(pc, f, pi)
	} else {
		err = rs.exec(pc, f, pi)
	}
	rs.arena.putFrame(pi, f)
	rs.depth--
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

// rand draws the next LCG value in [0, 1); identical to the tree-walker.
func (rs *runState) rand() float64 {
	rs.rng = rs.rng*6364136223846793005 + 1442695040888963407
	return float64(rs.rng>>11) / float64(1<<53)
}
