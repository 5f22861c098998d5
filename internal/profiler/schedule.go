package profiler

import (
	"fmt"
	"math/bits"

	"repro/internal/cdg"
	"repro/internal/cfg"
)

// A recovery schedule is the plan's proof written out as straight-line
// code: one step per derived fact, over dense value slots (a condition's
// slot is its FCDG index, exec(u)'s is nc+u). Recovering a run is one pass
// over the steps. The schedule depends only on the plan, so it is derived
// once — at plan time for fresh plans, on first recovery for decoded ones
// — and shared read-only by every concurrent recovery.

type stepKind uint8

const (
	stepExec   stepKind = iota // exec(u) = Σ in-conditions − pending(u)
	stepBranch                 // dropped = max(0, exec(node) − Σ others)
	stepLoop                   // (ph,U) = exec(ph) + Σ back-edge takings
	stepStatic                 // dropped = staticFreq × exec(node)
	stepDo                     // (ph,U), (test,T), (test,F) from a DO's trips
)

type step struct {
	kind stepKind
	// dst is the slot the step writes (a DO step's loop condition).
	dst int32
	// in is the exec slot a rule step reads: exec(node) or exec(preheader).
	in int32
	// rule indexes Plan.rules (rule steps).
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
		if r := &p.rules[i]; r.kind == doAddTrip && r.counter >= 0 && r.counter < len(p.Counters) && rec.tripTest[r.counter] == cfg.None {
			rec.tripTest[r.counter] = r.node
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
// p.rules, in order.
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
	rec.emulate(p, h)
	rec.prune()
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

// emulate derives facts in exactly the order of a chaotic sweep
// fixpoint — each sweep derives exec(u) for every ready node in ascending
// ID order, then applies every rule in plan order, each rule seeing the
// facts of the rules before it — and records one step per application.
// A clause is queued once, at the first sweep slot after its last
// requirement holds, so the emulation visits queued clauses only instead
// of sweeping over all of them. Replaying this order rather than any other
// topological one keeps recovered values those of a sweep fixpoint even on
// readings the rules disagree about (Recover on raw readings of a stopped
// run), where a DO rule overwrites a value a sibling rule derived first.
func (rec *recovery) emulate(p *Plan, h *hornSystem) {
	span := int(h.maxID) + 1
	if n := len(p.rules) + 1; n > span {
		span = n
	}
	// A sweep has 2*span slots: exec(u) fires at slot u, rule i at
	// span+i. cur and nxt mark the clauses queued in this sweep and the
	// next; a clause readied at slot pos fires later in this sweep if its
	// slot is past pos, else in the next one.
	slot := func(ci int32) int {
		c := &h.cl[ci]
		if c.rule < 0 {
			return int(c.node)
		}
		return span + int(c.rule)
	}
	clauseAt := make([]int32, 2*span)
	cur := make([]uint64, (2*span+63)/64)
	nxt := make([]uint64, len(cur))
	pos := -1 // before the first slot of sweep 1
	queue := func() {
		for _, ci := range h.ready {
			s := slot(ci)
			clauseAt[s] = ci
			if s > pos {
				cur[s/64] |= 1 << (s % 64)
			} else {
				nxt[s/64] |= 1 << (s % 64)
			}
		}
		h.ready = h.ready[:0]
	}
	h.epoch++
	copy(h.known, h.axiom)
	for ci := range h.cl {
		if h.arm(int32(ci)) {
			h.ready = append(h.ready, int32(ci))
		}
	}
	queue()
	for {
		s := nextBit(cur, pos+1)
		if s < 0 {
			if nextBit(nxt, 0) < 0 {
				return
			}
			cur, nxt = nxt, cur
			pos = -1
			continue
		}
		cur[s/64] &^= 1 << (s % 64)
		pos = s
		ci := clauseAt[s]
		c := &h.cl[ci]
		outs := h.clauseOuts(ci)
		if c.rule >= 0 && h.known[outs[0]] {
			continue // already recovered: the rule has nothing to add
		}
		rec.record(p, h, c)
		for _, o := range outs {
			if !h.known[o] {
				h.learn(o)
			}
		}
		queue()
	}
}

// nextBit returns the index of the first set bit of set at or after i, or
// -1.
func nextBit(set []uint64, i int) int {
	for w := i / 64; w < len(set); w++ {
		word := set[w]
		if w == i/64 {
			word &^= 1<<(i%64) - 1
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// record appends the step that applies clause c, reading the facts known
// at this point of the emulation.
func (rec *recovery) record(p *Plan, h *hornSystem, c *hornClause) {
	outs := h.outs[c.out0:c.out1]
	reqs := h.reqs[c.req0:c.req1]
	st := step{dst: outs[0], in: -1, rule: c.rule}
	if c.rule < 0 {
		// exec(START) reads (START,U); no frozen frame is ever pending at
		// START, which no node reaches.
		st.kind = stepExec
		for _, q := range reqs {
			rec.args = append(rec.args, q.a)
		}
		st.end = int32(len(rec.args))
		rec.steps = append(rec.steps, st)
		return
	}
	st.in = reqs[0].a
	switch p.rules[c.rule].kind {
	case branchBalance:
		st.kind = stepBranch
	case loopIdentity:
		st.kind = stepLoop
	case staticCond:
		st.kind = stepStatic
	case doConstTrip, doAddTrip:
		st.kind = stepDo
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
	st.end = int32(len(rec.args))
	rec.steps = append(rec.steps, st)
}

// prune drops the exec steps no rule reads. Recovery reports conditions
// only, so exec(u) matters just where a rule consumes it — branch nodes,
// preheaders and back-edge sources — and most nodes' sums are dead.
func (rec *recovery) prune() {
	read := make([]bool, rec.nslot)
	a0 := int32(0)
	for _, st := range rec.steps {
		if st.kind != stepExec {
			read[st.in] = true
			if st.kind != stepDo {
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
		if st.kind == stepExec && !read[st.dst] {
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
