package vm

import (
	"fmt"
	"math"

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
// reload instead of Go recursion through runProc — and the step/cost
// accumulators stay in registers across the whole call tree.
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
					var err error
					v, err = binop(lang.BinOp(in.a), l, r, pc.name)
					if err != nil {
						retErr = err
						break activation
					}
				}
				stack[sp-1] = v
				ip++
			case opIntrin:
				n := int(in.b)
				sp -= n
				v, err := rs.intrinsic(int(in.a), stack[sp:sp+n], pc.name)
				if err != nil {
					retErr = err
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
				lo, hi, step := stack[sp], stack[sp+1], stack[sp+2]
				if step.I == 0 {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(in.a), Msg: "DO step is zero"}
					break activation
				}
				trip := (hi.I - lo.I + step.I) / step.I
				if trip < 0 {
					trip = 0
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
				cpc := rs.prog.procs[cpi]
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
				md := &pc.meta[in.c]
				n := int(in.b)
				sp -= n
				dims := make([]int64, n)
				total := int64(1)
				for d := 0; d < n; d++ {
					v := stack[sp+d].I
					if v < 1 {
						retErr = &interp.RuntimeError{Unit: pc.name, Line: 0,
							Msg: fmt.Sprintf("array %s has non-positive extent %d", md.name, v)}
						break activation
					}
					dims[d] = v
					total *= v
				}
				if total > 50_000_000 {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: 0,
						Msg: fmt.Sprintf("array %s too large (%d elements)", md.name, total)}
					break activation
				}
				elems := make([]interp.Value, total)
				for i := range elems {
					elems[i].T = md.typ
				}
				f.arrays[in.a] = &interp.Array{Type: md.typ, Dims: dims, Elems: elems}
				ip++
			case opBindArray:
				md := &pc.meta[in.c]
				arr := f.arrays[in.a]
				if arr == nil {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: f.callLine,
						Msg: fmt.Sprintf("argument for array parameter %s is not an array", md.name)}
					break activation
				}
				n := int(in.b)
				sp -= n
				dims := make([]int64, n)
				total := int64(1)
				for d := 0; d < n; d++ {
					dims[d] = stack[sp+d].I
					total *= dims[d]
				}
				if total > int64(len(arr.Elems)) {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: f.callLine,
						Msg: fmt.Sprintf("array parameter %s needs %d elements, argument has %d", md.name, total, len(arr.Elems))}
					break activation
				}
				f.arrays[in.a] = &interp.Array{Type: arr.Type, Dims: dims, Elems: arr.Elems}
				ip++

			case opPrintStr:
				if rs.opt.Out == nil {
					// The tree-walker evaluates PRINT items for effect parity
					// when output is discarded, and string literals are not
					// values; replicate its exact failure.
					retErr = &interp.RuntimeError{Unit: pc.name, Line: 0, Msg: "string used as value"}
					break activation
				}
				rs.parts = append(rs.parts, pc.strs[in.a])
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
					var err error
					v, err = binop(lang.BinOp(in.c), vals[in.a], consts[in.b], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.c), vals[in.a], vals[in.b], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.c), *refs[in.a], consts[in.b], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.c), *refs[in.a], consts[in.b], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.d), *refs[in.b], consts[in.c], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v2, err = binop(lang.BinOp(tin.a), stack[sp], stack[sp+1], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.b), stack[sp-1], consts[in.a], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.a), stack[sp], stack[sp+1], pc.name)
					if err != nil {
						retErr = err
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
					var err error
					v, err = binop(lang.BinOp(in.e), stack[sp], stack[sp+1], pc.name)
					if err != nil {
						retErr = err
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
				lo, hi := stack[sp], stack[sp+1]
				step := consts[in.a]
				if step.I == 0 {
					retErr = &interp.RuntimeError{Unit: pc.name, Line: int(in.b), Msg: "DO step is zero"}
					break activation
				}
				trip := (hi.I - lo.I + step.I) / step.I
				if trip < 0 {
					trip = 0
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

			case opEnd:
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
				rs.recordStopFrame(pc, f, cfg.NodeID(in.a))
				retErr = errStop
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
	// did. The outermost frame belongs to runProc.
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
			rs.recordStopFrame(pc, f, cfg.NodeID(pc.ins[top.ip-1].d))
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
// general path. ok=false means the caller must fall back to binop.
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

// binop replicates the tree-walker's evalBin exactly, including the
// error messages and the type fast paths. The all-real block runs first
// because it is the common case on the bench corpus (~96% of draws,
// counting relationals); it covers every operator two TReal operands can
// meet (logical values are TLogical), and it computes on .R exactly as
// the mixed-type path's Float() conversions do, so results are
// bit-identical to the tree. The all-int block follows for the same
// reason; its relational compares go through the same float64 conversion
// the mixed-type path applies.
func binop(op lang.BinOp, l, r interp.Value, unit string) (interp.Value, error) {
	if l.T == lang.TReal && r.T == lang.TReal {
		switch op {
		case lang.OpAdd:
			return interp.Real(l.R + r.R), nil
		case lang.OpSub:
			return interp.Real(l.R - r.R), nil
		case lang.OpMul:
			return interp.Real(l.R * r.R), nil
		case lang.OpDiv:
			if r.R == 0 {
				return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "division by zero"}
			}
			return interp.Real(l.R / r.R), nil
		case lang.OpPow:
			return interp.Real(math.Pow(l.R, r.R)), nil
		case lang.OpLT:
			return interp.Logical(l.R < r.R), nil
		case lang.OpLE:
			return interp.Logical(l.R <= r.R), nil
		case lang.OpGT:
			return interp.Logical(l.R > r.R), nil
		case lang.OpGE:
			return interp.Logical(l.R >= r.R), nil
		case lang.OpEQ:
			return interp.Logical(l.R == r.R), nil
		case lang.OpNE:
			return interp.Logical(l.R != r.R), nil
		}
	}
	if l.T == lang.TInt && r.T == lang.TInt {
		switch op {
		case lang.OpAdd:
			return interp.Int(l.I + r.I), nil
		case lang.OpSub:
			return interp.Int(l.I - r.I), nil
		case lang.OpMul:
			return interp.Int(l.I * r.I), nil
		case lang.OpDiv:
			if r.I == 0 {
				return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "integer division by zero"}
			}
			return interp.Int(l.I / r.I), nil
		case lang.OpPow:
			return interp.Int(lang.IntPow(l.I, r.I)), nil
		case lang.OpLT:
			return interp.Logical(float64(l.I) < float64(r.I)), nil
		case lang.OpLE:
			return interp.Logical(float64(l.I) <= float64(r.I)), nil
		case lang.OpGT:
			return interp.Logical(float64(l.I) > float64(r.I)), nil
		case lang.OpGE:
			return interp.Logical(float64(l.I) >= float64(r.I)), nil
		case lang.OpEQ:
			return interp.Logical(float64(l.I) == float64(r.I)), nil
		case lang.OpNE:
			return interp.Logical(float64(l.I) != float64(r.I)), nil
		}
	}
	switch op {
	case lang.OpAnd:
		return interp.Logical(l.B && r.B), nil
	case lang.OpOr:
		return interp.Logical(l.B || r.B), nil
	case lang.OpEqv:
		return interp.Logical(l.B == r.B), nil
	case lang.OpNeqv:
		return interp.Logical(l.B != r.B), nil
	}
	if op.Relational() {
		a, b := l.Float(), r.Float()
		switch op {
		case lang.OpLT:
			return interp.Logical(a < b), nil
		case lang.OpLE:
			return interp.Logical(a <= b), nil
		case lang.OpGT:
			return interp.Logical(a > b), nil
		case lang.OpGE:
			return interp.Logical(a >= b), nil
		case lang.OpEQ:
			return interp.Logical(a == b), nil
		default:
			return interp.Logical(a != b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case lang.OpAdd:
		return interp.Real(a + b), nil
	case lang.OpSub:
		return interp.Real(a - b), nil
	case lang.OpMul:
		return interp.Real(a * b), nil
	case lang.OpDiv:
		if b == 0 {
			return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "division by zero"}
		}
		return interp.Real(a / b), nil
	case lang.OpPow:
		return interp.Real(math.Pow(a, b)), nil
	}
	return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0,
		Msg: fmt.Sprintf("bad operator %v", op)}
}

// Intrinsic ids baked into opIntrin's a field at compile time.
const (
	intrABS = iota
	intrMOD
	intrSIGN
	intrMIN
	intrMAX
	intrSQRT
	intrEXP
	intrLOG
	intrSIN
	intrCOS
	intrINT
	intrREAL
	intrRAND
	intrIRAND
)

// intrinsicID maps intrinsic names to ids (compile time only).
var intrinsicID = map[string]int{
	"ABS": intrABS, "MOD": intrMOD, "SIGN": intrSIGN, "MIN": intrMIN,
	"MAX": intrMAX, "SQRT": intrSQRT, "EXP": intrEXP, "LOG": intrLOG,
	"SIN": intrSIN, "COS": intrCOS, "INT": intrINT, "REAL": intrREAL,
	"RAND": intrRAND, "IRAND": intrIRAND,
}

// intrinsic replicates the tree-walker's evalIntrinsic on already-evaluated
// arguments.
func (rs *runState) intrinsic(id int, args []interp.Value, unit string) (interp.Value, error) {
	allInt := true
	for _, a := range args {
		if a.T != lang.TInt {
			allInt = false
		}
	}
	switch id {
	case intrABS:
		if args[0].T == lang.TInt {
			if args[0].I < 0 {
				return interp.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		return interp.Real(math.Abs(args[0].R)), nil
	case intrMOD:
		if allInt {
			if args[1].I == 0 {
				return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "MOD by zero"}
			}
			return interp.Int(args[0].I % args[1].I), nil
		}
		return interp.Real(math.Mod(args[0].Float(), args[1].Float())), nil
	case intrSIGN:
		mag := math.Abs(args[0].Float())
		if args[1].Float() < 0 {
			mag = -mag
		}
		if allInt {
			return interp.Int(int64(mag)), nil
		}
		return interp.Real(mag), nil
	case intrMIN, intrMAX:
		best := args[0]
		for _, a := range args[1:] {
			better := a.Float() < best.Float()
			if id == intrMAX {
				better = a.Float() > best.Float()
			}
			if better {
				best = a
			}
		}
		if allInt {
			return interp.Int(int64(best.Float())), nil
		}
		return interp.Real(best.Float()), nil
	case intrSQRT:
		v := args[0].Float()
		if v < 0 {
			return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "SQRT of negative value"}
		}
		return interp.Real(math.Sqrt(v)), nil
	case intrEXP:
		return interp.Real(math.Exp(args[0].Float())), nil
	case intrLOG:
		v := args[0].Float()
		if v <= 0 {
			return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "LOG of non-positive value"}
		}
		return interp.Real(math.Log(v)), nil
	case intrSIN:
		return interp.Real(math.Sin(args[0].Float())), nil
	case intrCOS:
		return interp.Real(math.Cos(args[0].Float())), nil
	case intrINT:
		return interp.Int(int64(args[0].Float())), nil
	case intrREAL:
		return interp.Real(args[0].Float()), nil
	case intrRAND:
		return interp.Real(rs.rand()), nil
	case intrIRAND:
		n := args[0].I
		if n < 1 {
			return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0, Msg: "IRAND needs a positive bound"}
		}
		return interp.Int(1 + int64(rs.rand()*float64(n))), nil
	}
	return interp.Value{}, &interp.RuntimeError{Unit: unit, Line: 0,
		Msg: fmt.Sprintf("unknown intrinsic id %d", id)}
}
