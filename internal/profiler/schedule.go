package profiler

import (
	"fmt"

	"repro/internal/cdg"
	"repro/internal/cfg"
)

// A recovery schedule is the plan's proof written out as straight-line
// code: one step per derived fact, over dense value slots (a condition's
// slot is its FCDG index, exec(u)'s is nc+u). Recovering a run is one pass
// over the steps. The schedule depends only on the plan, so it is derived
// once — at plan time for fresh plans, on first recovery for decoded ones
// — and shared read-only by every concurrent recovery.

// step is one clause application: exec(u) = Σ in-conditions − pending(u)
// when rule < 0, else an application of the plan's rules[rule].
type step struct {
	// dst is the slot the step writes (a DO rule's loop condition).
	dst int32
	// in is the exec slot a rule step reads: exec(node) or exec(preheader).
	in int32
	// rule indexes Plan.rules, or is -1 for an exec step.
	rule int32
	// end closes the step's operands: args[previous step's end : end] are
	// the summed slots (in-conditions, branch siblings, back-edge
	// takings), or a DO step's T and F slots (-1 when absent).
	end int32
}

// recovery is a plan's derived, run-independent recovery state.
type recovery struct {
	steps []step
	args  []int32
	// nc is the number of condition slots; exec(u) is slot nc+u.
	nc    int32
	nslot int
	// condSlot is each counter's condition slot, or -1 (TripAdd and block
	// counters, and pseudo conditions, which recover as 0).
	condSlot []int32
	// tripTest is each TripAdd counter's DO test node, whose T takings
	// the counter accumulates (cfg.None for other counters).
	tripTest []cfg.NodeID
	// out lists the condition slots recovery reports.
	out []int32
	// err is set when the plan cannot recover every condition.
	err error
}

// recovery returns the plan's schedule, deriving it on first use. Safe for
// concurrent callers.
func (p *Plan) recovery() *recovery {
	p.recOnce.Do(func() { p.rec = buildRecovery(p) })
	return p.rec
}

// RecoverSteps returns the length of the plan's recovery schedule: the
// number of straight-line steps one recovery executes (0 for naive plans).
func (p *Plan) RecoverSteps() int { return len(p.recovery().steps) }

// buildRecovery derives the recovery state of a plan from scratch (a
// decoded plan, or a naive one, which only needs tripTest).
func buildRecovery(p *Plan) *recovery {
	if p.Naive {
		return newRecovery(p)
	}
	fail := func(err error) *recovery {
		rec := newRecovery(p)
		rec.err = err
		return rec
	}
	h := newHorn(p.A)
	copy(h.axiom, h.pseudo)
	for _, c := range p.Counters {
		if c.Kind != CondCounter {
			continue
		}
		f, ok := h.condFact(c.Cond)
		if !ok {
			return fail(fmt.Errorf("profiler: counter %v is not a condition of %s", c.Cond, p.A.P.G.Name))
		}
		h.axiom[f] = true
	}
	for i := range p.rules {
		if _, err := h.addRule(i, &p.rules[i]); err != nil {
			return fail(err)
		}
	}
	return recoveryFrom(p, h)
}

// newRecovery fills in the per-counter tables.
func newRecovery(p *Plan) *recovery {
	rec := &recovery{
		condSlot: make([]int32, len(p.Counters)),
		tripTest: make([]cfg.NodeID, len(p.Counters)),
	}
	for i := range p.rules {
		if r := &p.rules[i]; r.Kind == RuleDoAddTrip && r.Counter >= 0 && r.Counter < len(p.Counters) && rec.tripTest[r.Counter] == cfg.None {
			rec.tripTest[r.Counter] = r.Node
		}
	}
	for i, c := range p.Counters {
		rec.condSlot[i] = -1
		if c.Kind == TripAdd && rec.tripTest[i] == cfg.None && p.A.P.G.Node(c.Node) != nil {
			// Naive plans have no rules; find the test via the init node.
			rec.tripTest[i], _ = initTest(p.A, c.Node)
		}
	}
	return rec
}

// recoveryFrom derives the schedule from h, the Horn system of p: its
// axioms are p's counted and pseudo conditions and its rule clauses are
// p.rules, in order. The schedule is the order in which a solve of h
// derives the facts, a valid dependency order: each step reads only
// counted slots, pseudo slots (identically 0) and slots earlier steps
// wrote.
func recoveryFrom(p *Plan, h *hornSystem) *recovery {
	rec := newRecovery(p)
	rec.nc = int32(h.nc)
	rec.nslot = len(h.known)
	for i, c := range p.Counters {
		if c.Kind != CondCounter {
			continue
		}
		if f, ok := h.condFact(c.Cond); ok && !h.pseudo[f] {
			rec.condSlot[i] = f
		}
	}
	h.solve(func(ci int32) { rec.record(p, h, ci) })
	rec.prune(p)
	var missing []cdg.Condition
	for _, c := range p.conds {
		if f, ok := h.condFact(c); !ok || !h.known[f] {
			missing = append(missing, c)
		}
	}
	if missing != nil {
		rec.err = fmt.Errorf("profiler: recovery incomplete for %s: unresolved %v", p.A.P.G.Name, missing)
		return rec
	}
	for f := 0; f < h.nc; f++ {
		if h.known[f] {
			rec.out = append(rec.out, int32(f))
		}
	}
	return rec
}

// record appends the step that applies clause ci, reading the facts known
// at this point of the solve.
func (rec *recovery) record(p *Plan, h *hornSystem, ci int32) {
	c := &h.cl[ci]
	outs := h.clauseOuts(ci)
	reqs := h.reqs[c.req0:c.req1]
	st := step{dst: outs[0], in: -1, rule: c.rule}
	if c.rule < 0 {
		// exec(START) reads (START,U); no frozen frame is ever pending at
		// START, which no node reaches.
		for _, q := range reqs {
			rec.args = append(rec.args, q.a)
		}
	} else {
		st.in = reqs[0].a
		if p.rules[c.rule].Kind.isDo() {
			body, exit := int32(-1), int32(-1)
			for _, o := range outs[1:] {
				if h.a.FCDG.CondAt(int(o)).Label == cfg.True {
					body = o
				} else {
					exit = o
				}
			}
			rec.args = append(rec.args, body, exit)
		}
		for _, q := range reqs[1:] {
			// A back-edge taking reads its condition when known, else exec
			// of its single-label source.
			f := q.a
			if !h.known[f] {
				f = q.b
			}
			rec.args = append(rec.args, f)
		}
	}
	st.end = int32(len(rec.args))
	rec.steps = append(rec.steps, st)
}

// prune drops the exec steps no rule reads. Recovery reports conditions
// only, so exec(u) matters just where a rule consumes it — branch nodes,
// preheaders and back-edge sources — and most nodes' sums are dead.
func (rec *recovery) prune(p *Plan) {
	read := make([]bool, rec.nslot)
	a0 := int32(0)
	for _, st := range rec.steps {
		if st.rule >= 0 {
			read[st.in] = true
			if !p.rules[st.rule].Kind.isDo() {
				for _, a := range rec.args[a0:st.end] {
					read[a] = true
				}
			}
		}
		a0 = st.end
	}
	steps, args := rec.steps[:0], rec.args[:0]
	a0 = 0
	for _, st := range rec.steps {
		ops := rec.args[a0:st.end]
		a0 = st.end
		if st.rule < 0 && !read[st.dst] {
			continue
		}
		// Compacting in place is safe: the kept operands never move right.
		args = append(args, ops...)
		st.end = int32(len(args))
		steps = append(steps, st)
	}
	rec.steps = append([]step(nil), steps...)
	rec.args = append([]int32(nil), args...)
}
