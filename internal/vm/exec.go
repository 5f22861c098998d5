package vm

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
)

// exec is the switch-dispatch loop: it runs pc's instruction stream against
// frame f until opEnd or opStop. The value stack is empty at every
// statement boundary (and therefore at every call), so one shared stack
// slice serves all activations.
//
// The hot per-node state — step count and model cost — lives in locals the
// compiler can keep in registers, not in runState fields the loop would
// have to store through a pointer on every node. The loop is single-exit
// (break loop, never return) so the locals flush to runState exactly once
// on the way out.
//
// Procedure calls never leave the loop: opCall pushes the caller onto an
// explicit call stack and re-points the cached locals at the callee, and
// opEnd pops it back, so an activation costs a frame bind plus a register
// reload instead of Go recursion — and the step/cost accumulators stay in
// registers across the whole call tree.
//
// The same loop runs Ball–Larus path-instrumented code. Its counter code
// is compiled into the instruction stream (opPathEdge stubs, see
// instrument), so an uninstrumented run never executes a path opcode; the
// only checks left here are the per-activation pc.path tests at END and
// STOP.
func (rs *runState) exec(pc *procCode, f *frame, pi int) error {
	var (
		onCost   = rs.opt.OnNodeCost
		steps    = rs.steps
		maxSteps = rs.max
		cost     = rs.result.Cost
		retErr   error
	)
	calls := rs.calls[:0]
	ip := int(pc.entry)
	// The outer loop runs once per activation switch: it re-binds the
	// per-procedure and per-frame locals and falls into the dispatch loop.
	// Keeping those locals write-once inside each outer iteration lets the
	// compiler treat them as invariant across the dispatch loop — mutating
	// them inside opCall/opEnd arms instead costs ~10% of throughput in
	// spilled reloads on every single dispatch.
activation:
	for {
		if len(rs.stack) < pc.maxStack {
			rs.stack = make([]interp.Value, pc.maxStack+16)
		}
		var (
			ins    = pc.ins
			consts = pc.consts
			affs   = pc.affs
			stack  = rs.stack
			counts = rs.counts[pi]
			nodes  = counts.Node
			edges  = rs.edges[pi]
			vals   = f.vals
			refs   = f.refs
			trips  = f.trips
			costs  []float64
		)
		if rs.costs != nil {
			costs = rs.costs[pi]
		}
		sp := 0
		for {
			in := &ins[ip]
			switch in.op {
			case opNode:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.a]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.a]++
				if costs != nil {
					cost += costs[in.a]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.a), cost)
					}
				}
				ip++

			case opConst:
				stack[sp] = consts[in.a]
				sp++
				ip++
			case opLocal:
				stack[sp] = vals[in.a]
				sp++
				ip++
			case opRef:
				stack[sp] = *refs[in.a]
				sp++
				ip++
			case opElem:
				arr := f.arrays[in.a]
				n := int(in.b)
				sp -= n
				off, err := elemOffset(arr, stack[sp:sp+n], pc.name, pc.strs[in.c])
				if err != nil {
					retErr = err
					break activation
				}
				stack[sp] = arr.Elems[off]
				sp++
				ip++

			case opStoreLocal:
				sp--
				cell := &vals[in.a]
				*cell = interp.Convert(stack[sp], cell.T)
				ip++
			case opStoreRef:
				sp--
				cell := refs[in.a]
				*cell = interp.Convert(stack[sp], cell.T)
				ip++
			case opStoreElem:
				arr := f.arrays[in.a]
				n := int(in.b)
				sp -= n
				off, err := elemOffset(arr, stack[sp:sp+n], pc.name, pc.strs[in.c])
				if err != nil {
					retErr = err
					break activation
				}
				sp--
				cell := &arr.Elems[off]
				*cell = interp.Convert(stack[sp], cell.T)
				ip++

			case opElemAff:
				arr := f.arrays[in.a]
				subs := affs[in.d : in.d+in.b]
				off, ok := affOffset(arr.Dims, subs, vals)
				if !ok {
					retErr = affError(arr, subs, vals, pc.name, pc.strs[in.c])
					break activation
				}
				stack[sp] = arr.Elems[off]
				sp++
				ip++
			case opStoreElemAff:
				arr := f.arrays[in.a]
				subs := affs[in.d : in.d+in.b]
				off, ok := affOffset(arr.Dims, subs, vals)
				if !ok {
					retErr = affError(arr, subs, vals, pc.name, pc.strs[in.c])
					break activation
				}
				sp--
				cell := &arr.Elems[off]
				*cell = interp.Convert(stack[sp], cell.T)
				ip++

			case opNot:
				stack[sp-1] = interp.Logical(!stack[sp-1].B)
				ip++
			case opNeg:
				v := stack[sp-1]
				if v.T == lang.TInt {
					stack[sp-1] = interp.Int(-v.I)
				} else {
					stack[sp-1] = interp.Real(-v.R)
				}
				ip++
			case opBin:
				sp--
				r := stack[sp]
				l := stack[sp-1]
				v, ok := binopFast(lang.BinOp(in.a), l, r)
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.a), l, r)
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp-1] = v
				ip++
			case opIntrin:
				n := int(in.b)
				sp -= n
				v, msg := interp.Intrinsic(lang.IntrinsicID(in.a), stack[sp:sp+n], &rs.rng)
				if msg != "" {
					retErr = runtimeError(pc.name, 0, msg)
					break activation
				}
				stack[sp] = v
				sp++
				ip++

			case opBranch:
				sp--
				if stack[sp].B {
					edges[in.c]++
					ip = int(in.a)
				} else {
					edges[in.d]++
					ip = int(in.b)
				}
			case opJmp:
				edges[in.b]++
				ip = int(in.a)
			case opGoto:
				ip = int(in.a)
			case opArithIf:
				sp--
				x := stack[sp].Float()
				k := 2
				switch {
				case x < 0:
					k = 0
				case x == 0:
					k = 1
				}
				a := pc.arms[int(in.a)+k]
				edges[a.flat]++
				ip = int(a.ip)
			case opCGoto:
				sp--
				v := stack[sp].I
				sel := int(in.b) // default arm
				if v >= 1 && v <= int64(in.b) {
					sel = int(v) - 1
				}
				a := pc.arms[int(in.a)+sel]
				edges[a.flat]++
				ip = int(a.ip)

			case opTrip:
				sp -= 3
				trip, msg := interp.TripCount(stack[sp].I, stack[sp+1].I, stack[sp+2].I)
				if msg != "" {
					retErr = runtimeError(pc.name, int(in.a), msg)
					break activation
				}
				stack[sp] = interp.Int(trip)
				sp++
				ip++
			case opDoInitFin:
				sp -= 2
				trip := stack[sp]
				lo := stack[sp+1]
				var cell *interp.Value
				if in.b != 0 {
					cell = refs[in.a]
				} else {
					cell = &vals[in.a]
				}
				*cell = interp.Convert(interp.Int(lo.I), cell.T)
				trips[in.c] = trip.I
				ip++
			case opDoTest:
				if trips[in.e] > 0 {
					edges[in.c]++
					ip = int(in.a)
				} else {
					edges[in.d]++
					ip = int(in.b)
				}
			case opDoIncr:
				step := int64(1)
				if in.b&2 != 0 {
					sp--
					step = stack[sp].I
				}
				var cell *interp.Value
				if in.b&1 != 0 {
					cell = refs[in.a]
				} else {
					cell = &vals[in.a]
				}
				*cell = interp.Convert(interp.Int(cell.I+step), cell.T)
				trips[in.c]--
				ip++

			case opArgLocal:
				rs.args = append(rs.args, argSlot{cell: &vals[in.a]})
				ip++
			case opArgRef:
				rs.args = append(rs.args, argSlot{cell: refs[in.a]})
				ip++
			case opArgArray:
				rs.args = append(rs.args, argSlot{arr: f.arrays[in.a]})
				ip++
			case opArgElem:
				arr := f.arrays[in.a]
				n := int(in.b)
				sp -= n
				off, err := elemOffset(arr, stack[sp:sp+n], pc.name, pc.strs[in.c])
				if err != nil {
					retErr = err
					break activation
				}
				rs.args = append(rs.args, argSlot{cell: &arr.Elems[off]})
				ip++
			case opArgElemAff:
				arr := f.arrays[in.a]
				subs := affs[in.d : in.d+in.b]
				off, ok := affOffset(arr.Dims, subs, vals)
				if !ok {
					retErr = affError(arr, subs, vals, pc.name, pc.strs[in.c])
					break activation
				}
				rs.args = append(rs.args, argSlot{cell: &arr.Elems[off]})
				ip++
			case opArgVal:
				sp--
				cell := new(interp.Value)
				*cell = stack[sp]
				rs.args = append(rs.args, argSlot{cell: cell})
				ip++
			case opCall:
				n := int(in.b)
				base := len(rs.args) - n
				cpi := int(in.a)
				cpc := rs.procs[cpi]
				rs.depth++
				if rs.depth > 10000 {
					rs.depth--
					rs.args = rs.args[:base]
					retErr = &interp.RuntimeError{Unit: cpc.name, Line: 0, Msg: "call stack overflow (runaway recursion?)"}
					break activation
				}
				nf := rs.arena.getFrame(cpi, cpc)
				nf.callLine = int(in.c)
				for i, pb := range cpc.params {
					if pb.isArray {
						nf.arrays[pb.slot] = rs.args[base+i].arr
					} else {
						nf.refs[pb.slot] = rs.args[base+i].cell
					}
				}
				rs.args = rs.args[:base]
				// The value stack is empty at every call (calls are statements),
				// so only the instruction pointer needs saving.
				calls = append(calls, callSite{pc: pc, f: f, pi: int32(pi), ip: int32(ip) + 1})
				pc, f, pi = cpc, nf, cpi
				ip = int(pc.entry)
				continue activation

			case opActivate:
				counts.Activations++
				ip++
			case opAllocArray:
				n := int(in.b)
				sp -= n
				if err := allocLocal(pc, f, in, stack[sp:sp+n]); err != nil {
					retErr = err
					break activation
				}
				ip++
			case opBindArray:
				n := int(in.b)
				sp -= n
				if err := bindParam(pc, f, in, stack[sp:sp+n]); err != nil {
					retErr = err
					break activation
				}
				ip++

			case opPrintStr:
				if rs.opt.Out != nil {
					rs.parts = append(rs.parts, pc.strs[in.a])
				}
				ip++
			case opPrintVal:
				sp--
				if rs.opt.Out != nil {
					rs.parts = append(rs.parts, stack[sp].String())
				}
				ip++
			case opPrintFlush:
				if rs.opt.Out != nil {
					fmt.Fprintln(rs.opt.Out, rs.parts...)
					rs.parts = rs.parts[:0]
				}
				ip++

			// Superinstructions: each arm is the literal concatenation of its
			// constituent opcodes' arms (see fuse.go), so fused and unfused
			// streams are observationally identical.
			case opNodeJmp:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				edges[in.b]++
				ip = int(in.a)
				// Threading: an empty node's jump lands on the DO increment at
				// the bottom of a loop, or on the loop's test node; run either
				// in the same dispatch.
				tin := &ins[ip]
				switch tin.op {
				case opNodeDoIncrJmp:
					steps++
					if steps > maxSteps {
						retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
						break activation
					}
					nodes[tin.f]++
					if costs != nil {
						cost += costs[tin.f]
						if onCost != nil {
							onCost(pc.proc, cfg.NodeID(tin.f), cost)
						}
					}
					var tcell *interp.Value
					if tin.b&1 != 0 {
						tcell = refs[tin.a]
					} else {
						tcell = &vals[tin.a]
					}
					*tcell = interp.Convert(interp.Int(tcell.I+1), tcell.T)
					trips[tin.c]--
					edges[tin.e]++
					ip = int(tin.d)
				case opNodeDoTest:
					steps++
					if steps > maxSteps {
						retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
						break activation
					}
					nodes[tin.f]++
					if costs != nil {
						cost += costs[tin.f]
						if onCost != nil {
							onCost(pc.proc, cfg.NodeID(tin.f), cost)
						}
					}
					if trips[tin.e] > 0 {
						edges[tin.c]++
						ip = int(tin.a)
					} else {
						edges[tin.d]++
						ip = int(tin.b)
					}
				}
			case opNodeDoTest:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				if trips[in.e] > 0 {
					edges[in.c]++
					ip = int(in.a)
				} else {
					edges[in.d]++
					ip = int(in.b)
				}
			case opNodeDoIncrJmp:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				var cell *interp.Value
				if in.b&1 != 0 {
					cell = refs[in.a]
				} else {
					cell = &vals[in.a]
				}
				*cell = interp.Convert(interp.Int(cell.I+1), cell.T)
				trips[in.c]--
				edges[in.e]++
				ip = int(in.d)
				// Back-edge threading: a DO increment's jump lands on the
				// loop's test node in every layout the compiler emits, so run
				// the test in the same dispatch. The opcode check is constant
				// per site, so the branch predicts — unlike the top-of-loop
				// indirect dispatch it replaces. The inlined code is the
				// opNodeDoTest arm verbatim; semantics are unchanged.
				tin := &ins[ip]
				if tin.op != opNodeDoTest {
					continue
				}
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[tin.f]++
				if costs != nil {
					cost += costs[tin.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(tin.f), cost)
					}
				}
				if trips[tin.e] > 0 {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opDoIncrJmp:
				step := int64(1)
				if in.b&2 != 0 {
					sp--
					step = stack[sp].I
				}
				var cell *interp.Value
				if in.b&1 != 0 {
					cell = refs[in.a]
				} else {
					cell = &vals[in.a]
				}
				*cell = interp.Convert(interp.Int(cell.I+step), cell.T)
				trips[in.c]--
				edges[in.e]++
				ip = int(in.d)
				// Same back-edge threading as opNodeDoIncrJmp above.
				tin := &ins[ip]
				if tin.op != opNodeDoTest {
					continue
				}
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[tin.f]++
				if costs != nil {
					cost += costs[tin.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(tin.f), cost)
					}
				}
				if trips[tin.e] > 0 {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opNodeConst:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				stack[sp] = consts[in.a]
				sp++
				ip++
			case opNodeLocal:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				stack[sp] = vals[in.a]
				sp++
				ip++
			case opNodeRef:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				stack[sp] = *refs[in.a]
				sp++
				ip++
			case opLocalConstBin:
				v, ok := binopFast(lang.BinOp(in.c), vals[in.a], consts[in.b])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.c), vals[in.a], consts[in.b])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp] = v
				sp++
				ip++
				// Threading: a condition's closing compare often lands on the
				// IF statement's branch; run it in the same dispatch. The
				// inlined code is the opBranch arm verbatim on the value just
				// pushed.
				tin := &ins[ip]
				if tin.op != opBranch {
					continue
				}
				sp--
				if v.B {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opLocalLocalBin:
				v, ok := binopFast(lang.BinOp(in.c), vals[in.a], vals[in.b])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.c), vals[in.a], vals[in.b])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp] = v
				sp++
				ip++
				// Threading: a condition's closing compare often lands on the
				// IF statement's branch; run it in the same dispatch. The
				// inlined code is the opBranch arm verbatim on the value just
				// pushed.
				tin := &ins[ip]
				if tin.op != opBranch {
					continue
				}
				sp--
				if v.B {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opStoreLocalJmp:
				sp--
				cell := &vals[in.a]
				*cell = interp.Convert(stack[sp], cell.T)
				edges[in.c]++
				ip = int(in.b)
			case opStoreRefJmp:
				sp--
				cell := refs[in.a]
				*cell = interp.Convert(stack[sp], cell.T)
				edges[in.c]++
				ip = int(in.b)
			case opRefConstBin:
				v, ok := binopFast(lang.BinOp(in.c), *refs[in.a], consts[in.b])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.c), *refs[in.a], consts[in.b])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp] = v
				sp++
				ip++
				// Threading: a condition's closing compare often lands on the
				// IF statement's branch; run it in the same dispatch. The
				// inlined code is the opBranch arm verbatim on the value just
				// pushed.
				tin := &ins[ip]
				if tin.op != opBranch {
					continue
				}
				sp--
				if v.B {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opNodeRefConstBin:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				v, ok := binopFast(lang.BinOp(in.c), *refs[in.a], consts[in.b])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.c), *refs[in.a], consts[in.b])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp] = v
				sp++
				ip++
				// Threading: a condition's closing compare often lands on the
				// IF statement's branch; run it in the same dispatch. The
				// inlined code is the opBranch arm verbatim on the value just
				// pushed.
				tin := &ins[ip]
				if tin.op != opBranch {
					continue
				}
				sp--
				if v.B {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opNodeRefRefConstBin:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				stack[sp] = *refs[in.a]
				sp++
				v, ok := binopFast(lang.BinOp(in.d), *refs[in.b], consts[in.c])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.d), *refs[in.b], consts[in.c])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp] = v
				sp++
				ip++
				// Threading: the accumulation statement's opening flows
				// straight into its closing opBinStoreRefJmp, whose jump lands
				// on the statement-closing Node+Jmp, whose target is the DO
				// increment and its back-edge test — the whole inner-loop
				// iteration of the bench corpus. Run the chain in one
				// dispatch: every block is the corresponding arm verbatim, and
				// every opcode check is constant per site, so the branches
				// predict where the top-of-loop indirect dispatch would not.
				tin := &ins[ip]
				if tin.op != opBinStoreRefJmp {
					continue
				}
				sp -= 2
				v2, ok2 := binopFast(lang.BinOp(tin.a), stack[sp], stack[sp+1])
				if !ok2 {
					var msg string
					v2, msg = interp.BinOp(lang.BinOp(tin.a), stack[sp], stack[sp+1])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				cell := refs[tin.b]
				*cell = interp.Convert(v2, cell.T)
				edges[tin.d]++
				ip = int(tin.c)
				uin := &ins[ip]
				if uin.op != opNodeJmp {
					continue
				}
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[uin.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[uin.f]++
				if costs != nil {
					cost += costs[uin.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(uin.f), cost)
					}
				}
				edges[uin.b]++
				ip = int(uin.a)
				win := &ins[ip]
				if win.op != opNodeDoIncrJmp {
					continue
				}
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[win.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[win.f]++
				if costs != nil {
					cost += costs[win.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(win.f), cost)
					}
				}
				var wcell *interp.Value
				if win.b&1 != 0 {
					wcell = refs[win.a]
				} else {
					wcell = &vals[win.a]
				}
				*wcell = interp.Convert(interp.Int(wcell.I+1), wcell.T)
				trips[win.c]--
				edges[win.e]++
				ip = int(win.d)
				xin := &ins[ip]
				if xin.op != opNodeDoTest {
					continue
				}
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[xin.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[xin.f]++
				if costs != nil {
					cost += costs[xin.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(xin.f), cost)
					}
				}
				if trips[xin.e] > 0 {
					edges[xin.c]++
					ip = int(xin.a)
				} else {
					edges[xin.d]++
					ip = int(xin.b)
				}
			case opConstBin:
				v, ok := binopFast(lang.BinOp(in.b), stack[sp-1], consts[in.a])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.b), stack[sp-1], consts[in.a])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				stack[sp-1] = v
				ip++
				// Threading: a condition's closing compare often lands on the
				// IF statement's branch; run it in the same dispatch. The
				// inlined code is the opBranch arm verbatim on the value just
				// pushed.
				tin := &ins[ip]
				if tin.op != opBranch {
					continue
				}
				sp--
				if v.B {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}
			case opBinStoreRefJmp:
				sp -= 2
				v, ok := binopFast(lang.BinOp(in.a), stack[sp], stack[sp+1])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.a), stack[sp], stack[sp+1])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				cell := refs[in.b]
				*cell = interp.Convert(v, cell.T)
				edges[in.d]++
				ip = int(in.c)
				// Threading: a loop body's closing store jumps either to the
				// DO increment at the bottom of the loop or to the empty node
				// that closes the statement. Run the target — and, for the
				// increment, its back-edge test — in the same dispatch.
				tin := &ins[ip]
				switch tin.op {
				case opNodeDoIncrJmp:
					steps++
					if steps > maxSteps {
						retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
						break activation
					}
					nodes[tin.f]++
					if costs != nil {
						cost += costs[tin.f]
						if onCost != nil {
							onCost(pc.proc, cfg.NodeID(tin.f), cost)
						}
					}
					var tcell *interp.Value
					if tin.b&1 != 0 {
						tcell = refs[tin.a]
					} else {
						tcell = &vals[tin.a]
					}
					*tcell = interp.Convert(interp.Int(tcell.I+1), tcell.T)
					trips[tin.c]--
					edges[tin.e]++
					ip = int(tin.d)
					uin := &ins[ip]
					if uin.op != opNodeDoTest {
						continue
					}
					steps++
					if steps > maxSteps {
						retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[uin.f]), Msg: "step limit exceeded"}
						break activation
					}
					nodes[uin.f]++
					if costs != nil {
						cost += costs[uin.f]
						if onCost != nil {
							onCost(pc.proc, cfg.NodeID(uin.f), cost)
						}
					}
					if trips[uin.e] > 0 {
						edges[uin.c]++
						ip = int(uin.a)
					} else {
						edges[uin.d]++
						ip = int(uin.b)
					}
				case opNodeJmp:
					steps++
					if steps > maxSteps {
						retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
						break activation
					}
					nodes[tin.f]++
					if costs != nil {
						cost += costs[tin.f]
						if onCost != nil {
							onCost(pc.proc, cfg.NodeID(tin.f), cost)
						}
					}
					edges[tin.b]++
					ip = int(tin.a)
				}
			case opBinBranch:
				sp -= 2
				v, ok := binopFast(lang.BinOp(in.e), stack[sp], stack[sp+1])
				if !ok {
					var msg string
					v, msg = interp.BinOp(lang.BinOp(in.e), stack[sp], stack[sp+1])
					if msg != "" {
						retErr = runtimeError(pc.name, 0, msg)
						break activation
					}
				}
				if v.B {
					edges[in.c]++
					ip = int(in.a)
				} else {
					edges[in.d]++
					ip = int(in.b)
				}
			case opDoInitFinJmp:
				sp -= 2
				trip := stack[sp]
				lo := stack[sp+1]
				var cell *interp.Value
				if in.b != 0 {
					cell = refs[in.a]
				} else {
					cell = &vals[in.a]
				}
				*cell = interp.Convert(interp.Int(lo.I), cell.T)
				trips[in.c] = trip.I
				edges[in.e]++
				ip = int(in.d)
				// Threading: a DO header's jump lands on the loop's test
				// node; run the test in the same dispatch (opNodeDoTest arm
				// verbatim, same as the back-edge threading above).
				tin := &ins[ip]
				if tin.op != opNodeDoTest {
					continue
				}
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[tin.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[tin.f]++
				if costs != nil {
					cost += costs[tin.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(tin.f), cost)
					}
				}
				if trips[tin.e] > 0 {
					edges[tin.c]++
					ip = int(tin.a)
				} else {
					edges[tin.d]++
					ip = int(tin.b)
				}

			case opNodeConstConst:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				stack[sp] = consts[in.a]
				stack[sp+1] = consts[in.b]
				sp += 2
				ip++
			case opConstTrip:
				sp -= 2
				trip, msg := interp.TripCount(stack[sp].I, stack[sp+1].I, consts[in.a].I)
				if msg != "" {
					retErr = runtimeError(pc.name, int(in.b), msg)
					break activation
				}
				stack[sp] = interp.Int(trip)
				sp++
				ip++
			case opArgLocal2:
				rs.args = append(rs.args, argSlot{cell: &vals[in.a]}, argSlot{cell: &vals[in.b]})
				ip++
			case opNodeArgLocal2:
				steps++
				if steps > maxSteps {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(pc.lines[in.f]), Msg: "step limit exceeded"}
					break activation
				}
				nodes[in.f]++
				if costs != nil {
					cost += costs[in.f]
					if onCost != nil {
						onCost(pc.proc, cfg.NodeID(in.f), cost)
					}
				}
				rs.args = append(rs.args, argSlot{cell: &vals[in.a]}, argSlot{cell: &vals[in.b]})
				ip++
			case opActivateGoto:
				counts.Activations++
				ip = int(in.a)

			case opPathEdge:
				rt := pc.path
				f.reg += rt.inc[in.b]
				if rt.bump[in.b] {
					// A back edge completes the current path: bump its
					// counter and restart the register at the header's
					// entry-dummy value.
					rs.paths[pi].Bump(f.prev, f.reg)
					f.prev = f.reg
					f.reg = rt.reset[in.b]
				}
				ip = int(in.a)

			case opEnd:
				if pc.path != nil {
					// END completes the activation's final path.
					rs.paths[pi].Bump(f.prev, f.reg)
				}
				if len(calls) == 0 {
					break activation
				}
				rs.arena.putFrame(pi, f)
				rs.depth--
				top := calls[len(calls)-1]
				calls = calls[:len(calls)-1]
				pc, f, pi = top.pc, top.f, int(top.pi)
				ip = int(top.ip)
				continue activation
			case opStop:
				rs.recordStopFrame(pi, pc, f, cfg.NodeID(in.a))
				retErr = errStop
				break activation
			case opFail:
				retErr = runtimeError(pc.name, 0, pc.strs[in.a])
				break activation
			default:
				retErr = &interp.RuntimeError{Unit: pc.name, Line: 0,
					Msg: fmt.Sprintf("vm: bad opcode %d at ip %d", in.op, ip)}
				break activation
			}
		}
	}
	// STOP and runtime errors break out with callers still suspended on the
	// explicit stack; release their frames exactly as the recursive unwind
	// did. The outermost frame belongs to runMain.
	for len(calls) > 0 {
		rs.arena.putFrame(pi, f)
		rs.depth--
		top := calls[len(calls)-1]
		calls = calls[:len(calls)-1]
		pc, f, pi = top.pc, top.f, int(top.pi)
		if retErr == errStop {
			// This caller froze at its CALL (the instruction before the
			// saved resume point; opCall is never fused, so .d is the CALL
			// node). Frames land innermost-first, like the tree unwind.
			rs.recordStopFrame(pi, pc, f, cfg.NodeID(pc.ins[top.ip-1].d))
		}
	}
	rs.calls = calls
	rs.steps = steps
	rs.result.Cost = cost
	return retErr
}

// binopFast handles the two shapes that dominate the bench corpus's
// dynamic binop mix — REAL+REAL and REAL*REAL, ~80% of all draws — in a
// body small enough for the inliner, so the hot exec arms skip the call
// and its 64 bytes of argument marshalling entirely. Value.Float() of a
// TReal operand is exactly .R, so the results are bit-identical to the
// general path. ok=false means the caller must fall back to interp.BinOp.
func binopFast(op lang.BinOp, l, r interp.Value) (v interp.Value, ok bool) {
	if l.T != lang.TReal || r.T != lang.TReal {
		return v, false
	}
	switch op {
	case lang.OpAdd:
		return interp.Real(l.R + r.R), true
	case lang.OpMul:
		return interp.Real(l.R * r.R), true
	}
	return v, false
}

// runtimeError reports a runtime error text of interp's operators,
// builtins or trip counts in unit, as the tree-walker does.
func runtimeError(unit string, line int, msg string) error {
	return &interp.RuntimeError{Unit: unit, Line: line, Msg: msg}
}
