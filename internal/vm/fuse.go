package vm

// Superinstruction fusion: a post-compile peephole pass that rewrites hot
// instruction pairs and triples into single fused opcodes, amortizing
// dispatch overhead across the patterns the bench corpus executes most —
// per-node bookkeeping followed by an unconditional jump, the DO-loop
// test/increment/back-edge sequence, the first push of an expression, and
// the load-const-binop shape of counter updates like I = I + 1.
//
// Fusion preserves the bit-identical contract trivially: every fused arm in
// exec.go is the literal concatenation of its constituent opcodes' arms, so
// steps, counters, cost accumulation order, RNG draws and error messages
// are unchanged. Control-flow safety comes from the compiler's layout: all
// jump targets are opNode leaders (the first instruction emitted per CFG
// node) plus the prologue entry, so an instruction that follows a leader
// within the same node can never be jumped to — but the pass re-derives the
// target set from the instruction stream anyway and refuses to consume a
// targeted instruction, keeping it correct against future layout changes.

// fuse runs the peephole pass over one compiled procedure, rewriting its
// instruction stream in place and remapping every jump target and arm. It
// must run after patch() (targets are instruction indices, not node IDs).
func (pc *procCode) fuse() {
	ins := pc.ins
	n := len(ins)
	if n == 0 {
		return
	}

	// A consumed instruction must not be a jump target: execution would
	// land mid-superinstruction. Collect every target.
	target := make([]bool, n)
	mark := func(ip int32) {
		if int(ip) < n {
			target[ip] = true
		}
	}
	mark(pc.entry)
	for i := range ins {
		switch ins[i].op {
		case opBranch, opDoTest:
			mark(ins[i].a)
			mark(ins[i].b)
		case opJmp, opGoto, opPathEdge:
			mark(ins[i].a)
		}
	}
	for _, a := range pc.arms {
		mark(a.ip)
	}

	// eat reports whether ins[j] may be folded into a superinstruction
	// starting before it.
	eat := func(j int) bool { return j < n && !target[j] }

	fused := make([]instr, 0, n)
	oldToNew := make([]int32, n)
	for i := 0; i < n; {
		in := ins[i]
		out := in
		width := 1
		switch in.op {
		case opNode:
			switch {
			case eat(i+1) && ins[i+1].op == opDoIncr && ins[i+1].b&2 == 0 &&
				eat(i+2) && ins[i+2].op == opJmp:
				d := ins[i+1]
				j := ins[i+2]
				out = instr{op: opNodeDoIncrJmp, a: d.a, b: d.b, c: d.c, d: j.a, e: j.b, f: in.a}
				width = 3
			case eat(i+1) && ins[i+1].op == opDoTest:
				d := ins[i+1]
				out = instr{op: opNodeDoTest, a: d.a, b: d.b, c: d.c, d: d.d, e: d.e, f: in.a}
				width = 2
			case eat(i+1) && ins[i+1].op == opJmp:
				j := ins[i+1]
				out = instr{op: opNodeJmp, a: j.a, b: j.b, f: in.a}
				width = 2
			case eat(i+1) && ins[i+1].op == opConst && eat(i+2) && ins[i+2].op == opConst:
				// The DO-header prefix: Node, Const lo, Const hi.
				out = instr{op: opNodeConstConst, a: ins[i+1].a, b: ins[i+2].a, f: in.a}
				width = 3
			case eat(i+1) && ins[i+1].op == opConst:
				out = instr{op: opNodeConst, a: ins[i+1].a, f: in.a}
				width = 2
			case eat(i+1) && ins[i+1].op == opRef && eat(i+2) && refBinTriple(ins, i+2, eat):
				// Node, Ref, then a ref-const-bin triple: the whole
				// accumulation-statement prefix in one dispatch.
				out = instr{op: opNodeRefRefConstBin,
					a: ins[i+1].a, b: ins[i+2].a, c: ins[i+3].a, d: ins[i+4].a, f: in.a}
				width = 5
			case eat(i+1) && refBinTriple(ins, i+1, eat):
				out = instr{op: opNodeRefConstBin,
					a: ins[i+1].a, b: ins[i+2].a, c: ins[i+3].a, f: in.a}
				width = 4
			case eat(i+1) && ins[i+1].op == opRef:
				out = instr{op: opNodeRef, a: ins[i+1].a, f: in.a}
				width = 2
			case eat(i+1) && ins[i+1].op == opLocal && !binTriple(ins, i+1, eat):
				// Leave the opLocal free when it opens a load-op-bin
				// triple: opNode + opLocalConstBin (2 dispatches) beats
				// opNodeLocal + opConst + opBin (3).
				out = instr{op: opNodeLocal, a: ins[i+1].a, f: in.a}
				width = 2
			case eat(i+1) && ins[i+1].op == opArgLocal && eat(i+2) && ins[i+2].op == opArgLocal:
				// A CALL statement's opening: Node, then argument staging.
				out = instr{op: opNodeArgLocal2, a: ins[i+1].a, b: ins[i+2].a, f: in.a}
				width = 3
			}
		case opLocal:
			if binTriple(ins, i, eat) {
				sec := ins[i+1]
				op := opLocalLocalBin
				if sec.op == opConst {
					op = opLocalConstBin
				}
				out = instr{op: op, a: in.a, b: sec.a, c: ins[i+2].a}
				width = 3
			}
		case opRef:
			if refBinTriple(ins, i, eat) {
				out = instr{op: opRefConstBin, a: in.a, b: ins[i+1].a, c: ins[i+2].a}
				width = 3
			}
		case opConst:
			switch {
			case eat(i+1) && ins[i+1].op == opTrip:
				// The DO-header suffix: Const step, Trip.
				out = instr{op: opConstTrip, a: in.a, b: ins[i+1].a}
				width = 2
			case eat(i+1) && ins[i+1].op == opBin:
				out = instr{op: opConstBin, a: in.a, b: ins[i+1].a}
				width = 2
			}
		case opArgLocal:
			if eat(i+1) && ins[i+1].op == opArgLocal {
				out = instr{op: opArgLocal2, a: in.a, b: ins[i+1].a}
				width = 2
			}
		case opActivate:
			if eat(i+1) && ins[i+1].op == opGoto {
				out = instr{op: opActivateGoto, a: ins[i+1].a}
				width = 2
			}
		case opBin:
			switch {
			case eat(i+1) && ins[i+1].op == opStoreRef &&
				eat(i+2) && ins[i+2].op == opJmp:
				out = instr{op: opBinStoreRefJmp, a: in.a, b: ins[i+1].a, c: ins[i+2].a, d: ins[i+2].b}
				width = 3
			case eat(i+1) && ins[i+1].op == opBranch:
				br := ins[i+1]
				out = instr{op: opBinBranch, a: br.a, b: br.b, c: br.c, d: br.d, e: in.a}
				width = 2
			}
		case opDoInitFin:
			if eat(i+1) && ins[i+1].op == opJmp {
				out = instr{op: opDoInitFinJmp, a: in.a, b: in.b, c: in.c, d: ins[i+1].a, e: ins[i+1].b}
				width = 2
			}
		case opStoreLocal:
			if eat(i+1) && ins[i+1].op == opJmp {
				out = instr{op: opStoreLocalJmp, a: in.a, b: ins[i+1].a, c: ins[i+1].b}
				width = 2
			}
		case opStoreRef:
			if eat(i+1) && ins[i+1].op == opJmp {
				out = instr{op: opStoreRefJmp, a: in.a, b: ins[i+1].a, c: ins[i+1].b}
				width = 2
			}
		case opDoIncr:
			if eat(i+1) && ins[i+1].op == opJmp {
				out = instr{op: opDoIncrJmp, a: in.a, b: in.b, c: in.c, d: ins[i+1].a, e: ins[i+1].b}
				width = 2
			}
		}
		idx := int32(len(fused))
		fused = append(fused, out)
		for k := 0; k < width; k++ {
			oldToNew[i+k] = idx
		}
		i += width
	}

	// Remap every control transfer from old indices to fused ones.
	for i := range fused {
		in := &fused[i]
		switch in.op {
		case opBranch, opDoTest, opNodeDoTest, opBinBranch:
			in.a = oldToNew[in.a]
			in.b = oldToNew[in.b]
		case opJmp, opGoto, opNodeJmp, opActivateGoto, opPathEdge:
			in.a = oldToNew[in.a]
		case opNodeDoIncrJmp, opDoIncrJmp, opDoInitFinJmp:
			in.d = oldToNew[in.d]
		case opStoreLocalJmp, opStoreRefJmp:
			in.b = oldToNew[in.b]
		case opBinStoreRefJmp:
			in.c = oldToNew[in.c]
		}
	}
	for i := range pc.arms {
		pc.arms[i].ip = oldToNew[pc.arms[i].ip]
	}
	pc.entry = oldToNew[pc.entry]
	pc.fused = n - len(fused)
	pc.ins = fused
}

// binTriple reports whether ins[i] opens a load-load/const-binop triple
// whose tail may be consumed.
func binTriple(ins []instr, i int, eat func(int) bool) bool {
	return ins[i].op == opLocal &&
		eat(i+1) && (ins[i+1].op == opConst || ins[i+1].op == opLocal) &&
		eat(i+2) && ins[i+2].op == opBin
}

// refBinTriple reports whether ins[i] opens a ref-const-binop triple whose
// tail may be consumed.
func refBinTriple(ins []instr, i int, eat func(int) bool) bool {
	return ins[i].op == opRef &&
		eat(i+1) && ins[i+1].op == opConst &&
		eat(i+2) && ins[i+2].op == opBin
}
