// Package interp executes lowered programs by walking their control flow
// graphs. It is the substrate that stands in for the paper's IBM 3090:
// "CPU time" is the sum of per-node costs (from a cost.Model) along the
// executed trace, and the exact number of times every node and every
// labelled edge executes is recorded — the ground truth that execution
// profiling approximates and that estimation is validated against.
// The tree-walker is the reference engine; the bytecode VM (internal/vm)
// is the production one, bit-identical to it, and the default
// (EffectiveEngine).
//
// Semantics follow Fortran 77 where the subset overlaps it: scalars and
// arrays are passed by reference, arrays are 1-based and column-major,
// counted DO loops evaluate their bounds once and run a precomputed trip
// count MAX(0, (hi-lo+step)/step), and integer division truncates.
// The RAND/IRAND intrinsics draw from a seeded 64-bit LCG owned by the
// machine, so every run is reproducible from its seed.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/lower"
)

// Value is a runtime scalar value.
type Value struct {
	T lang.Type
	I int64
	R float64
	B bool
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{T: lang.TInt, I: i} }

// Real returns a real Value.
func Real(r float64) Value { return Value{T: lang.TReal, R: r} }

// Logical returns a logical Value.
func Logical(b bool) Value { return Value{T: lang.TLogical, B: b} }

// Float returns the value as float64, promoting integers.
func (v Value) Float() float64 {
	if v.T == lang.TInt {
		return float64(v.I)
	}
	return v.R
}

func (v Value) String() string {
	switch v.T {
	case lang.TInt:
		return fmt.Sprintf("%d", v.I)
	case lang.TLogical:
		if v.B {
			return "T"
		}
		return "F"
	default:
		return fmt.Sprintf("%g", v.R)
	}
}

// Array is runtime array storage: column-major, 1-based in every dimension.
type Array struct {
	Type  lang.Type
	Dims  []int64
	Elems []Value
}

// MaxArrayElems caps the element count of one array in every engine: a
// local array larger than this is a runtime error, and so is an array
// parameter whose declared shape would need more.
const MaxArrayElems = 50_000_000

// MulExtent returns total*v, one step of an array's extent product, and
// false when both factors are positive and the product would pass
// MaxArrayElems. The check comes before the multiply, so a product that
// passes it never wraps int64. A non-positive extent makes the array
// unindexable (every subscript fails its bounds check), so a product
// involving one needs no check.
func MulExtent(total, v int64) (int64, bool) {
	if total > 0 && v > 0 && v > MaxArrayElems/total {
		return 0, false
	}
	return total * v, true
}

// TooLargeMsg is the runtime error text for a local array whose extent
// product passes MaxArrayElems.
func TooLargeMsg(name string) string {
	return fmt.Sprintf("array %s too large (more than %d elements)", name, MaxArrayElems)
}

// ParamTooLargeMsg is the runtime error text for an array parameter whose
// declared shape would need more than MaxArrayElems elements (more than
// any argument array can hold).
func ParamTooLargeMsg(name string, have int) string {
	return fmt.Sprintf("array parameter %s needs more than %d elements, argument has %d", name, MaxArrayElems, have)
}

// offset converts 1-based subscripts to a linear index, column-major.
func (a *Array) offset(subs []int64) (int64, error) {
	if len(subs) != len(a.Dims) {
		return 0, fmt.Errorf("array has %d dimensions, indexed with %d", len(a.Dims), len(subs))
	}
	off := int64(0)
	stride := int64(1)
	for d := 0; d < len(subs); d++ {
		if subs[d] < 1 || subs[d] > a.Dims[d] {
			return 0, fmt.Errorf("subscript %d out of bounds 1..%d in dimension %d", subs[d], a.Dims[d], d+1)
		}
		off += (subs[d] - 1) * stride
		stride *= a.Dims[d]
	}
	return off, nil
}

// binding is one name's storage in a frame: a scalar cell or an array.
// PARAMETER constants have the zero binding.
type binding struct {
	cell *Value
	arr  *Array
}

// frame is one procedure activation. vars is indexed by the slot semantic
// analysis gave each symbol (lang.Symbol.Slot), trips by DO test node ID —
// dense slices rather than maps so the step loop never hashes or
// allocates while reading variables or bookkeeping loop state.
type frame struct {
	proc  *lower.Proc
	vars  []binding // indexed by lang.Symbol.Slot
	trips []int64   // remaining trips, indexed by DO test node ID
}

// Engine selects the execution substrate for a run.
type Engine int

const (
	// EngineDefault defers the choice: the REPRO_ENGINE environment
	// variable when set ("tree", "vm" or "vm-batch"), otherwise the
	// bytecode VM.
	EngineDefault Engine = iota
	// EngineTree is the reference tree-walking interpreter in this package:
	// the engine the VM is differentially tested against, and the one that
	// runs the per-node hooks (OnNode, OnNodeCost).
	EngineTree
	// EngineVM is the slot-indexed bytecode VM (internal/vm), the
	// production engine. Runs that set a per-node hook take the
	// tree-walker, with identical results.
	EngineVM
	// EngineVMBatch is a second name for EngineVM, kept because flags,
	// requests and benchmark configs spell it "vm-batch". Both run every
	// seed on reusable VM lanes (see RunBatchOn).
	EngineVMBatch
)

func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineVM:
		return "vm"
	case EngineVMBatch:
		return "vm-batch"
	}
	return "default"
}

// VMBased reports whether the engine executes on the bytecode VM.
func (e Engine) VMBased() bool { return e == EngineVM || e == EngineVMBatch }

// ErrUnknownEngine is the sentinel wrapped by ParseEngine for any value
// outside tree|vm|vm-batch, so CLIs can detect bad -engine flags with
// errors.Is instead of string matching.
var ErrUnknownEngine = errors.New("unknown engine (want tree|vm|vm-batch)")

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default":
		return EngineDefault, nil
	case "tree":
		return EngineTree, nil
	case "vm":
		return EngineVM, nil
	case "vm-batch":
		return EngineVMBatch, nil
	}
	return EngineDefault, fmt.Errorf("%w: %q", ErrUnknownEngine, s)
}

// Lane runs seeds one after another on state it may reuse across seeds.
// Exactly one goroutine drives a lane.
type Lane interface {
	// RunSeed runs the program once with Options.Seed = seed. The Result
	// belongs to the lane and stays valid until the next RunSeed, unless
	// Detach hands it over first.
	RunSeed(seed uint64) (*Result, error)
	// Detach gives the last Result to the caller: the lane builds fresh
	// result storage for its next seed.
	Detach()
}

// Compiled is a program compiled for the bytecode VM (internal/vm's
// *Program): the source of VM lanes.
type Compiled interface {
	NewLane(opt Options) Lane
}

// vmCompile is installed by internal/vm's init; nil until that package is
// linked in. Registration happens once during package initialization, so
// reads after init need no synchronization.
var vmCompile func(*lower.Result) (Compiled, error)

// RegisterVM installs the bytecode compiler. Called from internal/vm's
// init; not for use by other packages.
func RegisterVM(compile func(*lower.Result) (Compiled, error)) { vmCompile = compile }

// treeOnly reports whether opt needs the tree-walker on every engine:
// OnNode's getter needs name-addressable frames, and the per-node hooks
// are observers the production engine does not pay for.
func (o *Options) treeOnly() bool { return o.OnNode != nil || o.OnNodeCost != nil }

// compile resolves opt's engine for a one-shot entry point: the freshly
// compiled VM program, or nil for the tree-walker (the tree engine, a
// tree-only hook, or no VM linked in). Use vm.Compile, or core.Pipeline,
// to amortize compilation over many calls.
func compile(res *lower.Result, opt *Options) (Compiled, error) {
	if !EffectiveEngine(opt.Engine).VMBased() || opt.treeOnly() || vmCompile == nil {
		return nil, nil
	}
	return vmCompile(res)
}

// NewLane returns a lane running res under opt: one of c's when c is set
// and opt allows the VM, a tree-walker lane otherwise.
func NewLane(res *lower.Result, c Compiled, opt Options) Lane {
	if c == nil || opt.treeOnly() {
		opt.Engine = EngineTree
		return &treeLane{res: res, opt: opt}
	}
	return c.NewLane(opt)
}

// treeLane runs every seed as a fresh tree-walker run. Nothing is reused,
// so Detach has nothing to do.
type treeLane struct {
	res *lower.Result
	opt Options
}

func (l *treeLane) RunSeed(seed uint64) (*Result, error) {
	l.opt.Seed = seed
	return Run(l.res, l.opt)
}

func (l *treeLane) Detach() {}

// BatchSink receives one per-seed outcome from RunBatch: idx is the seed's
// position in the batch, res/err mirror Run's return values. The callee owns
// res only for the duration of the call — lanes may reuse result storage
// across seeds — unless it returns retain=true, which transfers ownership
// and makes the lane rebuild fresh storage for its next seed. When the
// batch runs on more than one lane, the sink may be called concurrently
// from different lanes; calls never share a res or an idx.
type BatchSink func(idx int, seed uint64, res *Result, err error) (retain bool)

// BatchStats summarizes one RunBatch call.
type BatchStats struct {
	// Seeds is the batch size, Lanes the number of lanes actually used.
	Seeds, Lanes int
	// Steps is the total node executions across all seeds.
	Steps int64
	// ExecNanos is the summed per-lane execution time, sink time excluded —
	// busy nanoseconds, not wall time, when Lanes > 1.
	ExecNanos int64
}

// RunBatch executes one seed batch under opt's engine, compiled once for
// the whole batch, and reports every per-seed outcome through sink (see
// RunBatchOn).
func RunBatch(res *lower.Result, opt Options, seeds []uint64, lanes int, sink BatchSink) (BatchStats, error) {
	c, err := compile(res, &opt)
	if err != nil {
		return BatchStats{}, err
	}
	return RunBatchOn(context.Background(), res, c, opt, seeds, lanes, sink)
}

// RunBatchOn is the seed loop every engine shares. Seeds run on up to
// lanes lanes (≤ 0 means GOMAXPROCS), each a goroutine with its own Lane
// from NewLane(res, c, opt) that takes the next seed index from a shared
// counter. Each seed's res/err are bit-identical to Run with the same
// Options and that seed: seeds are independent (own RNG, counters,
// Result), so neither the engine nor the lane count can change any
// per-seed outcome. PRINT output and per-node hooks observe runs one at a
// time, so Out and the tree-only hooks force a single lane, which runs
// seeds strictly in batch order. ctx is checked before every
// seed: once it is done no further seed starts and RunBatchOn returns its
// error. Per-seed runtime errors go to the sink and do not stop the batch.
func RunBatchOn(ctx context.Context, res *lower.Result, c Compiled, opt Options, seeds []uint64, lanes int, sink BatchSink) (BatchStats, error) {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	if opt.Out != nil || opt.treeOnly() {
		lanes = 1
	}
	lanes = max(1, min(lanes, len(seeds)))
	var next, done, steps, execNanos atomic.Int64
	runLane := func() {
		var l Lane
		var st, ex, n int64
		for i := int(next.Add(1) - 1); i < len(seeds) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
			if l == nil {
				l = NewLane(res, c, opt)
			}
			t0 := time.Now()
			r, err := l.RunSeed(seeds[i])
			ex += int64(time.Since(t0))
			if r != nil {
				st += r.Steps
			}
			n++
			if sink != nil && sink(i, seeds[i], r, err) {
				l.Detach()
			}
		}
		steps.Add(st)
		execNanos.Add(ex)
		done.Add(n)
	}
	if lanes == 1 {
		runLane()
	} else {
		var wg sync.WaitGroup
		for range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runLane()
			}()
		}
		wg.Wait()
	}
	stats := BatchStats{Seeds: len(seeds), Lanes: lanes, Steps: steps.Load(), ExecNanos: execNanos.Load()}
	if int(done.Load()) < len(seeds) {
		return stats, ctx.Err()
	}
	return stats, nil
}

var (
	envEngineOnce sync.Once
	envEngine     Engine
)

// defaultEngine resolves EngineDefault against REPRO_ENGINE once.
func defaultEngine() Engine {
	envEngineOnce.Do(func() {
		if e, err := ParseEngine(os.Getenv("REPRO_ENGINE")); err == nil {
			envEngine = e
		}
	})
	return envEngine
}

// EffectiveEngine resolves EngineDefault: the REPRO_ENGINE environment
// variable when set, the bytecode VM otherwise.
func EffectiveEngine(e Engine) Engine {
	if e == EngineDefault {
		e = defaultEngine()
	}
	if e == EngineDefault {
		e = EngineVM
	}
	return e
}

// Options configure a run.
type Options struct {
	// Seed seeds the RAND/IRAND generator; runs are reproducible per seed.
	Seed uint64
	// MaxSteps bounds the number of executed nodes (0 = 500 million).
	MaxSteps int64
	// Out receives PRINT output (nil discards it).
	Out io.Writer
	// Model prices executed nodes; nil skips cost accounting.
	Model *cost.Model
	// OnNode, if set, is invoked before each node executes with a getter
	// for the current values of the activation's scalar variables (locals
	// and by-reference parameters; arrays and DO trip registers are not
	// addressable). It forces the tree-walker: the VM keeps no
	// name-addressable frame. Observing never perturbs execution.
	OnNode func(p *lower.Proc, n cfg.NodeID, get func(name string) (Value, bool))
	// OnNodeCost, if set, is invoked before each node executes with the
	// model cost accumulated so far, the node's own cost included.
	// Requires Model to be set; silently never fires otherwise. Like
	// OnNode, it forces the tree-walker.
	OnNodeCost func(p *lower.Proc, n cfg.NodeID, costSoFar float64)
	// Engine selects the execution substrate. Both engines produce
	// bit-identical Results; the VM (the default) compiles the program to
	// bytecode first (use vm.Compile + Program.Run, or core.Pipeline, to
	// amortize compilation over many seeds).
	Engine Engine
	// PathSpec, when non-nil, adds Ball–Larus path instrumentation (see
	// path.go): the run maintains a per-activation path register and
	// records path-completion counts into Result.Paths. All engines
	// produce bit-identical path counts.
	PathSpec *PathSpec
}

// Counts holds per-procedure execution counts.
type Counts struct {
	// Node[id] is how many times the node executed.
	Node []int64
	// Edge[id][k] is how many times the k-th out-edge of node id (in
	// OutEdges order) was taken.
	Edge [][]int64
	// Activations is how many times the procedure was entered.
	Activations int64
}

// Result summarizes one run.
type Result struct {
	// Steps is the number of node executions.
	Steps int64
	// Cost is the accumulated model cost (0 when Options.Model is nil).
	Cost float64
	// ByProc maps unit name to its execution counts.
	ByProc map[string]*Counts
	// Paths maps unit name to its path-profiling counters; nil unless the
	// run was started with Options.PathSpec, and holds entries only for
	// instrumented procedures.
	Paths map[string]*PathCounts
	// Stopped records whether the run ended via STOP (vs falling off the
	// main program's END).
	Stopped bool
	// StopFrames describes every activation the STOP unwound through,
	// innermost-first: the stopping frame frozen at the STOP node itself,
	// then each suspended caller frozen at its CALL node. Nil unless
	// Stopped. A real instrumented binary dumps the same record from its
	// STOP handler: the return-address chain plus the live DO registers.
	StopFrames []StopFrame
}

// StopFrame is one activation frozen mid-flight by a STOP.
type StopFrame struct {
	// Proc is the unit name of the frozen activation.
	Proc string
	// Node is where the activation froze: the STOP statement node for the
	// innermost frame, the CALL node for suspended callers.
	Node cfg.NodeID
	// Trips holds the frame's live (positive) DO trip registers in
	// ascending test-node order. Remaining counts the iterations that had
	// not completed when the run froze, the in-flight iteration included.
	Trips []TripReg
}

// TripReg is one live DO-loop trip register of a stopped frame.
type TripReg struct {
	Test      cfg.NodeID
	Remaining int64
}

// LabelCount returns how often an edge labelled l was taken from node n in
// proc p (each node has at most one out-edge per label).
func (r *Result) LabelCount(p *lower.Proc, n cfg.NodeID, l cfg.Label) int64 {
	c := r.ByProc[p.G.Name]
	if c == nil || int(n) >= len(c.Edge) {
		return 0
	}
	total := int64(0)
	for k, oe := range p.G.OutEdges(n) {
		if oe.Label == l {
			total += c.Edge[n][k]
		}
	}
	return total
}

// EdgeCount returns the count of the exact edge e in proc p, or 0.
func (r *Result) EdgeCount(p *lower.Proc, e cfg.Edge) int64 {
	c := r.ByProc[p.G.Name]
	if c == nil {
		return 0
	}
	for k, oe := range p.G.OutEdges(e.From) {
		if oe == e {
			return c.Edge[e.From][k]
		}
	}
	return 0
}

// NodeCount returns how often node n of proc p executed.
func (r *Result) NodeCount(p *lower.Proc, n cfg.NodeID) int64 {
	c := r.ByProc[p.G.Name]
	if c == nil || int(n) >= len(c.Node) {
		return 0
	}
	return c.Node[n]
}

// errStop unwinds all frames on STOP.
var errStop = errors.New("stop")

// recordStopFrame captures the frozen position and live DO registers of an
// activation a STOP is unwinding through; frames land innermost-first. The
// frame's trips array is dense by test-node ID, so the scan yields
// ascending test-node order — the order every engine must match.
func (m *machine) recordStopFrame(p *lower.Proc, f *frame, pc cfg.NodeID) {
	sf := StopFrame{Proc: p.G.Name, Node: pc}
	for test, rem := range f.trips {
		if rem > 0 {
			sf.Trips = append(sf.Trips, TripReg{Test: cfg.NodeID(test), Remaining: rem})
		}
	}
	m.result.StopFrames = append(m.result.StopFrames, sf)
}

// RuntimeError is an execution failure with source position context.
type RuntimeError struct {
	Unit string
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s (line %d): %s", e.Unit, e.Line, e.Msg)
}

// machine is the execution engine.
type machine struct {
	res    *lower.Result
	opt    Options
	result *Result
	costs  map[string][]float64 // per-proc node cost table
	rng    uint64
	steps  int64
	max    int64
	depth  int
}

// Run executes the program's main unit to completion.
func Run(res *lower.Result, opt Options) (*Result, error) {
	if res.Main == nil {
		return nil, fmt.Errorf("interp: program has no main unit")
	}
	c, err := compile(res, &opt)
	if err != nil {
		return nil, err
	}
	if c != nil {
		return c.NewLane(opt).RunSeed(opt.Seed)
	}
	m := &machine{
		res: res,
		opt: opt,
		rng: SeedRNG(opt.Seed),
		max: opt.MaxSteps,
		result: &Result{
			ByProc: make(map[string]*Counts),
		},
	}
	if m.max == 0 {
		m.max = 500_000_000
	}
	for name, p := range res.Procs {
		m.result.ByProc[name] = &Counts{
			Node: make([]int64, p.G.MaxID()+1),
			Edge: make([][]int64, p.G.MaxID()+1),
		}
		for id := cfg.NodeID(1); id <= p.G.MaxID(); id++ {
			m.result.ByProc[name].Edge[id] = make([]int64, len(p.G.OutEdges(id)))
		}
		if opt.PathSpec != nil {
			if ps := opt.PathSpec.Procs[name]; ps != nil {
				if m.result.Paths == nil {
					m.result.Paths = make(map[string]*PathCounts)
				}
				m.result.Paths[name] = NewPathCounts(ps)
			}
		}
		if opt.Model != nil {
			if m.costs == nil {
				m.costs = make(map[string][]float64)
			}
			tab := make([]float64, p.G.MaxID()+1)
			for _, n := range p.G.Nodes() {
				if op, ok := n.Payload.(lower.Op); ok {
					tab[n.ID] = opt.Model.NodeCost(op)
				}
			}
			m.costs[name] = tab
		}
	}
	err = m.call(res.Main, nil, nil)
	if errors.Is(err, errStop) {
		m.result.Stopped = true
		err = nil
	}
	m.result.Steps = m.steps
	return m.result, err
}

// call runs one procedure activation. args/argStmt describe the CALL site
// bindings (nil for main).
func (m *machine) call(p *lower.Proc, caller *frame, callStmt *lang.CallStmt) error {
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > 10000 {
		return &RuntimeError{Unit: p.G.Name, Line: 0, Msg: "call stack overflow (runaway recursion?)"}
	}
	f := &frame{
		proc:  p,
		vars:  make([]binding, len(p.Unit.Slots)),
		trips: make([]int64, p.G.MaxID()+1),
	}
	if err := m.bindFrame(f, p, caller, callStmt); err != nil {
		return err
	}

	counts := m.result.ByProc[p.G.Name]
	counts.Activations++
	costs := m.costs[p.G.Name]
	var get func(name string) (Value, bool)
	if m.opt.OnNode != nil {
		get = varsGetter(p.Unit, f.vars)
	}
	g := p.G
	// Ball–Larus path bookkeeping (see path.go), nil when the run or this
	// procedure is uninstrumented. The register lives in the activation,
	// so it recurses correctly through OpCall.
	var path *pathReg
	if m.opt.PathSpec != nil {
		if ps := m.opt.PathSpec.Procs[p.G.Name]; ps != nil {
			path = &pathReg{spec: ps, counts: m.result.Paths[p.G.Name]}
		}
	}
	pc := g.Entry
	for {
		m.steps++
		if m.steps > m.max {
			return &RuntimeError{Unit: p.G.Name, Line: m.lineOf(p, pc), Msg: "step limit exceeded"}
		}
		counts.Node[pc]++
		if costs != nil {
			m.result.Cost += costs[pc]
			if m.opt.OnNodeCost != nil {
				m.opt.OnNodeCost(p, pc, m.result.Cost)
			}
		}
		op, _ := g.Node(pc).Payload.(lower.Op)
		if m.opt.OnNode != nil {
			m.opt.OnNode(p, pc, get)
		}
		label, done, err := m.exec(f, pc, op)
		if err != nil {
			if errors.Is(err, errStop) {
				if path != nil {
					path.cut(pc)
				}
				m.recordStopFrame(p, f, pc)
			}
			return err
		}
		if done {
			if path != nil {
				path.end()
			}
			return nil
		}
		taken := -1
		for k, e := range g.OutEdges(pc) {
			if e.Label == label {
				taken = k
				break
			}
		}
		if taken < 0 {
			return &RuntimeError{Unit: p.G.Name, Line: m.lineOf(p, pc),
				Msg: fmt.Sprintf("no out-edge labelled %s from node %d", label, pc)}
		}
		counts.Edge[pc][taken]++
		if path != nil {
			path.edge(pc, taken)
		}
		pc = g.OutEdges(pc)[taken].To
	}
}

// bindFrame populates a fresh activation frame: parameters bound by
// reference to the CALL site, locals allocated, and passed arrays
// reinterpreted with the callee's declared shape. It must not retain f
// anywhere: call relies on the frame staying on the stack.
func (m *machine) bindFrame(f *frame, p *lower.Proc, caller *frame, callStmt *lang.CallStmt) error {
	// One cell per slot holds the frame's local scalars and the copies of
	// arguments passed by value.
	cells := make([]Value, len(p.Unit.Slots))
	// Bind parameters by reference.
	if callStmt != nil {
		for i, name := range p.Unit.Params {
			sym := p.Unit.Symbols[name]
			b, err := m.argBinding(caller, callStmt.Args[i], &cells[sym.Slot])
			if err != nil {
				return err
			}
			f.vars[sym.Slot] = b
		}
	}
	// Allocate locals, every non-param, non-const symbol, in slot order:
	// the first failing allocation is the one the VM reports too.
	for _, sym := range p.Unit.Slots {
		if sym.IsParam || sym.Kind == lang.SymConst {
			continue
		}
		if sym.Kind == lang.SymArray {
			arr, err := m.allocArray(f, sym)
			if err != nil {
				return err
			}
			f.vars[sym.Slot] = binding{arr: arr}
		} else {
			cells[sym.Slot].T = sym.Type
			f.vars[sym.Slot] = binding{cell: &cells[sym.Slot]}
		}
	}
	// Reinterpret passed arrays with the callee's declared shape (Fortran
	// sequence association for adjustable arrays).
	if callStmt != nil {
		for _, name := range p.Unit.Params {
			sym := p.Unit.Symbols[name]
			b := f.vars[sym.Slot]
			if sym.Kind != lang.SymArray {
				continue
			}
			dims, err := m.extents(f, sym)
			if err != nil {
				return err
			}
			total := int64(1)
			for _, d := range dims {
				var ok bool
				if total, ok = MulExtent(total, d); !ok {
					return &RuntimeError{Unit: p.G.Name, Line: callStmt.Line,
						Msg: ParamTooLargeMsg(name, len(b.arr.Elems))}
				}
			}
			if total > int64(len(b.arr.Elems)) {
				return &RuntimeError{Unit: p.G.Name, Line: callStmt.Line,
					Msg: fmt.Sprintf("array parameter %s needs %d elements, argument has %d", name, total, len(b.arr.Elems))}
			}
			f.vars[sym.Slot] = binding{arr: &Array{Type: b.arr.Type, Dims: dims, Elems: b.arr.Elems}}
		}
	}
	return nil
}

// varsGetter builds the per-activation scalar accessor OnNode receives:
// one closure per activation, not per node. It captures the slot-indexed
// bindings, never the frame, so the frame stays on the stack, and maps a
// name to its slot through u.Symbols only when the hook asks.
func varsGetter(u *lang.Unit, vars []binding) func(name string) (Value, bool) {
	return func(name string) (Value, bool) {
		if sym, ok := u.Symbols[name]; ok && vars[sym.Slot].cell != nil {
			return *vars[sym.Slot].cell, true
		}
		return Value{}, false
	}
}

func (m *machine) lineOf(p *lower.Proc, n cfg.NodeID) int {
	if s, ok := p.Stmt[n]; ok {
		return s.Pos()
	}
	return 0
}

// exec runs one node and returns the label of the edge to take, or done for
// OpEnd.
func (m *machine) exec(f *frame, pc cfg.NodeID, op lower.Op) (cfg.Label, bool, error) {
	switch o := op.(type) {
	case lower.OpNop:
		return cfg.Uncond, false, nil
	case lower.OpEnd:
		return "", true, nil
	case lower.OpReturn:
		return cfg.Uncond, false, nil // edge leads to END
	case lower.OpStop:
		return "", false, errStop
	case lower.OpAssign:
		if err := m.assign(f, o.S); err != nil {
			return "", false, err
		}
		return cfg.Uncond, false, nil
	case lower.OpPrint:
		if err := m.print(f, o.S); err != nil {
			return "", false, err
		}
		return cfg.Uncond, false, nil
	case lower.OpBranch:
		v, err := m.eval(f, o.Cond)
		if err != nil {
			return "", false, err
		}
		if v.B {
			return cfg.True, false, nil
		}
		return cfg.False, false, nil
	case lower.OpArithIf:
		v, err := m.eval(f, o.E)
		if err != nil {
			return "", false, err
		}
		x := v.Float()
		switch {
		case x < 0:
			return lower.LabelNeg, false, nil
		case x == 0:
			return lower.LabelZero, false, nil
		default:
			return lower.LabelPos, false, nil
		}
	case lower.OpComputedGoto:
		v, err := m.eval(f, o.E)
		if err != nil {
			return "", false, err
		}
		if v.I >= 1 && v.I <= int64(o.N) {
			return lower.GotoCase(int(v.I)), false, nil
		}
		return lower.LabelDefault, false, nil
	case lower.OpDoInit:
		trip, err := m.tripCount(f, o.L)
		if err != nil {
			return "", false, err
		}
		lo, err := m.eval(f, o.L.Lo)
		if err != nil {
			return "", false, err
		}
		if err := m.setScalar(f, o.L.VarSym, Int(lo.I)); err != nil {
			return "", false, err
		}
		f.trips[o.Test] = trip
		return cfg.Uncond, false, nil
	case lower.OpDoTest:
		if f.trips[o.Key] > 0 {
			return cfg.True, false, nil
		}
		return cfg.False, false, nil
	case lower.OpDoIncr:
		step := int64(1)
		if o.L.Step != nil {
			v, err := m.eval(f, o.L.Step)
			if err != nil {
				return "", false, err
			}
			step = v.I
		}
		cur, err := m.scalar(f, o.L.VarSym)
		if err != nil {
			return "", false, err
		}
		if err := m.setScalar(f, o.L.VarSym, Int(cur.I+step)); err != nil {
			return "", false, err
		}
		f.trips[o.Test]--
		return cfg.Uncond, false, nil
	case lower.OpCall:
		callee, ok := m.res.Procs[o.S.Name]
		if !ok {
			return "", false, &RuntimeError{Unit: f.proc.G.Name, Line: o.S.Line,
				Msg: fmt.Sprintf("no subroutine %s", o.S.Name)}
		}
		if err := m.call(callee, f, o.S); err != nil {
			return "", false, err
		}
		return cfg.Uncond, false, nil
	}
	return "", false, &RuntimeError{Unit: f.proc.G.Name, Line: m.lineOf(f.proc, pc),
		Msg: fmt.Sprintf("node %d has no executable payload", pc)}
}

// tripCount computes the F77 trip count of a DO loop in the current frame.
func (m *machine) tripCount(f *frame, l *lang.DoLoop) (int64, error) {
	lo, err := m.eval(f, l.Lo)
	if err != nil {
		return 0, err
	}
	hi, err := m.eval(f, l.Hi)
	if err != nil {
		return 0, err
	}
	step := int64(1)
	if l.Step != nil {
		v, err := m.eval(f, l.Step)
		if err != nil {
			return 0, err
		}
		step = v.I
	}
	trip, msg := TripCount(lo.I, hi.I, step)
	if msg != "" {
		return 0, &RuntimeError{Unit: f.proc.G.Name, Line: l.Line, Msg: msg}
	}
	return trip, nil
}

// extents evaluates every declared extent of an array before any is
// checked, the order the VM's prologue runs them in, so an extent that
// fails to evaluate reports the same error on every engine.
func (m *machine) extents(f *frame, sym *lang.Symbol) ([]int64, error) {
	dims := make([]int64, len(sym.Dims))
	for i, de := range sym.Dims {
		v, err := m.eval(f, de)
		if err != nil {
			return nil, err
		}
		dims[i] = v.I
	}
	return dims, nil
}

func (m *machine) allocArray(f *frame, sym *lang.Symbol) (*Array, error) {
	dims, err := m.extents(f, sym)
	if err != nil {
		return nil, err
	}
	total := int64(1)
	for _, d := range dims {
		if d < 1 {
			return nil, &RuntimeError{Unit: f.proc.G.Name, Line: 0,
				Msg: fmt.Sprintf("array %s has non-positive extent %d", sym.Name, d)}
		}
		var ok bool
		if total, ok = MulExtent(total, d); !ok {
			return nil, &RuntimeError{Unit: f.proc.G.Name, Line: 0, Msg: TooLargeMsg(sym.Name)}
		}
	}
	elems := make([]Value, total)
	for i := range elems {
		elems[i].T = sym.Type
	}
	return &Array{Type: sym.Type, Dims: dims, Elems: elems}, nil
}

// argBinding prepares the binding a callee parameter receives. An argument
// passed by value is copied into spill, the callee's cell for the
// parameter. lang.Analyze has matched the argument's kind to the
// parameter's.
func (m *machine) argBinding(caller *frame, arg lang.Expr, spill *Value) (binding, error) {
	switch a := arg.(type) {
	case *lang.Var:
		// PARAMETER constant passed by value-copy.
		if a.Sym.Kind == lang.SymConst {
			*spill = constValue(a.Sym)
			return binding{cell: spill}, nil
		}
		// Whole array or scalar by reference.
		return caller.vars[a.Sym.Slot], nil
	case *lang.Index:
		cellPtr, err := m.elemPtr(caller, a)
		if err != nil {
			return binding{}, err
		}
		return binding{cell: cellPtr}, nil
	default:
		v, err := m.eval(caller, arg)
		if err != nil {
			return binding{}, err
		}
		*spill = v
		return binding{cell: spill}, nil
	}
}

func (m *machine) elemPtr(f *frame, ix *lang.Index) (*Value, error) {
	arr := f.vars[ix.Sym.Slot].arr
	if arr == nil {
		return nil, &RuntimeError{Unit: f.proc.G.Name, Line: 0,
			Msg: fmt.Sprintf("%s is not an array", ix.Name)}
	}
	// Sema bounds the subscript count by lang.MaxDims, so the subscripts
	// fit a stack array.
	var buf [lang.MaxDims]int64
	subs := buf[:len(ix.Subs)]
	for i, se := range ix.Subs {
		v, err := m.eval(f, se)
		if err != nil {
			return nil, err
		}
		subs[i] = v.I
	}
	off, err := arr.offset(subs)
	if err != nil {
		return nil, &RuntimeError{Unit: f.proc.G.Name, Line: 0,
			Msg: fmt.Sprintf("%s: %v", ix.Name, err)}
	}
	return &arr.Elems[off], nil
}

func (m *machine) assign(f *frame, s *lang.Assign) error {
	v, err := m.eval(f, s.RHS)
	if err != nil {
		return err
	}
	switch lhs := s.LHS.(type) {
	case *lang.Var:
		return m.setScalar(f, lhs.Sym, v)
	case *lang.Index:
		cell, err := m.elemPtr(f, lhs)
		if err != nil {
			return err
		}
		*cell = convert(v, cell.T)
		return nil
	}
	return &RuntimeError{Unit: f.proc.G.Name, Line: s.Line, Msg: "bad assignment target"}
}

func (m *machine) scalar(f *frame, sym *lang.Symbol) (Value, error) {
	if cell := f.vars[sym.Slot].cell; cell != nil {
		return *cell, nil
	}
	if sym.Kind == lang.SymConst {
		return constValue(sym), nil
	}
	return Value{}, &RuntimeError{Unit: f.proc.G.Name, Line: 0,
		Msg: fmt.Sprintf("no scalar %s", sym.Name)}
}

func (m *machine) setScalar(f *frame, sym *lang.Symbol, v Value) error {
	cell := f.vars[sym.Slot].cell
	if cell == nil {
		return &RuntimeError{Unit: f.proc.G.Name, Line: 0,
			Msg: fmt.Sprintf("cannot assign to %s", sym.Name)}
	}
	*cell = convert(v, cell.T)
	return nil
}

func constValue(sym *lang.Symbol) Value {
	switch cv := sym.ConstValue.(type) {
	case int64:
		return Int(cv)
	case float64:
		return Real(cv)
	}
	return Value{}
}

// Convert coerces v to type t (Fortran assignment conversion). Exported so
// the bytecode engine shares the exact store semantics of the tree-walker.
func Convert(v Value, t lang.Type) Value { return convert(v, t) }

// ConstSymbolValue returns the runtime value of a folded PARAMETER symbol.
func ConstSymbolValue(sym *lang.Symbol) Value { return constValue(sym) }

// convert coerces v to type t (Fortran assignment conversion).
func convert(v Value, t lang.Type) Value {
	if v.T == t || t == lang.TNone {
		return v
	}
	switch t {
	case lang.TInt:
		return Int(int64(v.Float()))
	case lang.TReal:
		return Real(v.Float())
	}
	return v
}

func (m *machine) print(f *frame, s *lang.Print) error {
	if m.opt.Out == nil {
		// Still evaluate the values for effect parity (RAND advances,
		// errors surface); string literals have no effect.
		for _, e := range s.Items {
			if _, ok := e.(*lang.StrLit); ok {
				continue
			}
			if _, err := m.eval(f, e); err != nil {
				return err
			}
		}
		return nil
	}
	parts := make([]any, 0, len(s.Items))
	for _, e := range s.Items {
		if sl, ok := e.(*lang.StrLit); ok {
			parts = append(parts, sl.Val)
			continue
		}
		v, err := m.eval(f, e)
		if err != nil {
			return err
		}
		parts = append(parts, v.String())
	}
	fmt.Fprintln(m.opt.Out, parts...)
	return nil
}

// eval evaluates an expression in frame f.
func (m *machine) eval(f *frame, e lang.Expr) (Value, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return Int(x.Val), nil
	case *lang.RealLit:
		return Real(x.Val), nil
	case *lang.LogLit:
		return Logical(x.Val), nil
	case *lang.StrLit:
		return Value{}, &RuntimeError{Unit: f.proc.G.Name, Line: 0, Msg: "string used as value"}
	case *lang.Var:
		return m.scalar(f, x.Sym)
	case *lang.Index:
		cell, err := m.elemPtr(f, x)
		if err != nil {
			return Value{}, err
		}
		return *cell, nil
	case *lang.Un:
		v, err := m.eval(f, x.X)
		if err != nil {
			return Value{}, err
		}
		return UnOp(x.Op, v), nil
	case *lang.Bin:
		return m.evalBin(f, x)
	case *lang.Intrinsic:
		return m.evalIntrinsic(f, x)
	}
	return Value{}, &RuntimeError{Unit: f.proc.G.Name, Line: 0,
		Msg: fmt.Sprintf("cannot evaluate %T", e)}
}

// evalBin and evalIntrinsic keep their operands' storage out of eval's
// frame, which every leaf evaluation sets up.
func (m *machine) evalBin(f *frame, x *lang.Bin) (Value, error) {
	l, err := m.eval(f, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := m.eval(f, x.R)
	if err != nil {
		return Value{}, err
	}
	v, msg := BinOp(x.Op, l, r)
	if msg != "" {
		return Value{}, &RuntimeError{Unit: f.proc.G.Name, Line: 0, Msg: msg}
	}
	return v, nil
}

func (m *machine) evalIntrinsic(f *frame, x *lang.Intrinsic) (Value, error) {
	// Only MIN and MAX take more than two arguments; only a call with more
	// than the buffer holds allocates.
	var buf [4]Value
	args := buf[:0]
	for _, a := range x.Args {
		v, err := m.eval(f, a)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	v, msg := Intrinsic(x.ID, args, &m.rng)
	if msg != "" {
		return Value{}, &RuntimeError{Unit: f.proc.G.Name, Line: 0, Msg: msg}
	}
	return v, nil
}
