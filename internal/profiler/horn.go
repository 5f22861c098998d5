package profiler

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
)

// The recovery rules form a propositional Horn system over dense facts.
// A fact is either a control condition — indexed like FCDG.Conditions() —
// or exec(u), the execution count of node u, stored at nc+u. A clause
// derives its outputs once each of its requirements holds; a requirement
// is one fact, or the two-way disjunction taking() accepts for a back edge
// (its condition, or exec of its source when the source has a single
// out-label). Every node with FCDG in-edges has one exec clause (exec(u)
// from its in-conditions, exec(START) from (START,U)); every rule adds
// one clause. The axioms are the counted and the pseudo conditions.
//
// The planner keeps the least fixpoint of the current plan and tests a
// trial elimination by delete–re-derive over the trial's cone only. The
// recovery schedule (schedule.go) is the order in which one more solve of
// the final plan's system derives its facts.

// hornReq is one clause requirement: fact a, or fact b when b >= 0. A
// requirement with a < 0 can never hold.
type hornReq struct{ a, b int32 }

// hornUse records that requirement req of clause mentions a fact.
type hornUse struct{ clause, req int32 }

type hornClause struct {
	// outs[out0:out1] and reqs[req0:req1] of the hornSystem.
	out0, out1 int32
	req0, req1 int32
	// rule is the plan-rule index, or -1 for an exec clause.
	rule int32
}

type hornSystem struct {
	a      *analysis.Proc
	nc     int
	maxID  cfg.NodeID
	pseudo []bool // per condition fact
	axiom  []bool // per fact
	known  []bool // per fact
	cl     []hornClause
	reqs   []hornReq
	outs   []int32
	// The exec clauses are fixed at construction: condition i's uses by
	// them are execUses[execUse[i]:execUse[i+1]], and exec(u) is derived
	// by clause execClause[u] (-1: never). Rule clauses come and go with
	// the planner's trials, so their uses and outputs are kept per fact.
	execUse    []int32
	execUses   []hornUse
	execClause []int32
	ruleUses   [][]hornUse // per fact
	ruleProd   [][]int32   // per condition fact

	// Scratch state of a solve: per-requirement satisfaction, per-clause
	// count of unsatisfied requirements, and the epoch stamp of the clauses
	// armed by the current solve.
	sat   []bool
	count []int32
	stamp []uint32
	epoch uint32
	ready []int32

	// Trial scratch: cone membership and the known bits a rejected trial
	// restores.
	inCone []bool
	cone   []int32
	saved  []bool
}

// newHorn builds the fact space and the exec clauses of procedure a; no
// fact is an axiom yet.
func newHorn(a *analysis.Proc) *hornSystem {
	f := a.FCDG
	nc := f.NumConditions()
	maxID := a.Ext.G.MaxID()
	nf := nc + int(maxID) + 1
	h := &hornSystem{
		a: a, nc: nc, maxID: maxID,
		pseudo:     make([]bool, nc),
		axiom:      make([]bool, nf),
		known:      make([]bool, nf),
		inCone:     make([]bool, nf),
		execUse:    make([]int32, nc+1),
		execClause: make([]int32, maxID+1),
		ruleUses:   make([][]hornUse, nf),
		ruleProd:   make([][]int32, nc),
		cl:         make([]hornClause, 0, int(maxID)+nc),
		outs:       make([]int32, 0, int(maxID)+nc),
		reqs:       make([]hornReq, 0, 2*int(maxID)),
	}
	for i := 0; i < nc; i++ {
		h.pseudo[i] = f.CondAt(i).Label.IsPseudo()
	}
	h.execClause[0] = -1
	for u := cfg.NodeID(1); u <= maxID; u++ {
		h.execClause[u] = -1
		r0 := int32(len(h.reqs))
		if u == f.Root {
			c, ok := h.condAt(u, cfg.Uncond)
			if !ok {
				continue
			}
			h.reqs = append(h.reqs, hornReq{c, -1})
		} else {
			in := f.InEdges(u)
			if len(in) == 0 {
				continue // STOP and nodes outside the FCDG: never derived
			}
			for _, e := range in {
				c, _ := h.condAt(e.From, e.Label)
				h.reqs = append(h.reqs, hornReq{c, -1})
			}
		}
		ci := int32(len(h.cl))
		h.execClause[u] = ci
		h.outs = append(h.outs, h.execFact(u))
		h.cl = append(h.cl, hornClause{out0: ci, out1: ci + 1, req0: r0, req1: int32(len(h.reqs)), rule: -1})
	}
	// Index the exec clauses' requirements by condition (counting sort,
	// keeping clause order within each condition).
	for _, q := range h.reqs {
		if q.a >= 0 {
			h.execUse[q.a+1]++
		}
	}
	for i := 1; i <= nc; i++ {
		h.execUse[i] += h.execUse[i-1]
	}
	h.execUses = make([]hornUse, len(h.reqs))
	next := append([]int32(nil), h.execUse[:nc]...)
	for ci, c := range h.cl {
		for ri := c.req0; ri < c.req1; ri++ {
			a := h.reqs[ri].a
			if a < 0 {
				continue
			}
			h.execUses[next[a]] = hornUse{int32(ci), ri}
			next[a]++
		}
	}
	h.sat = make([]bool, len(h.reqs))
	h.count = make([]int32, len(h.cl))
	h.stamp = make([]uint32, len(h.cl))
	return h
}

// condAt returns the fact of condition (u, l), or (-1, false) when it is
// not an FCDG condition. A node has a handful of labels, so a scan of its
// conditions beats hashing the label.
func (h *hornSystem) condAt(u cfg.NodeID, l cfg.Label) (int32, bool) {
	if u < cfg.None {
		return -1, false
	}
	for _, ci := range h.a.FCDG.NodeConds(u) {
		if ci.Cond.Label == l {
			return int32(ci.Index), true
		}
	}
	return -1, false
}

func (h *hornSystem) condFact(c cdg.Condition) (int32, bool) { return h.condAt(c.Node, c.Label) }

// execFact returns the fact exec(u), or -1 when u is outside the graph.
func (h *hornSystem) execFact(u cfg.NodeID) int32 {
	if u <= cfg.None || u > h.maxID {
		return -1
	}
	return int32(h.nc) + int32(u)
}

// isCond reports whether fact f is a condition (rather than an exec fact).
func (h *hornSystem) isCond(f int32) bool { return int(f) < h.nc }

// clauseOuts returns the outputs of clause ci.
func (h *hornSystem) clauseOuts(ci int32) []int32 {
	c := &h.cl[ci]
	return h.outs[c.out0:c.out1]
}

// forUses calls fn for every requirement that mentions fact f.
func (h *hornSystem) forUses(f int32, fn func(hornUse)) {
	if h.isCond(f) {
		for _, u := range h.execUses[h.execUse[f]:h.execUse[f+1]] {
			fn(u)
		}
	}
	for _, u := range h.ruleUses[f] {
		fn(u)
	}
}

// addRule appends the clause of rule r (plan-rule index i). It fails only
// when the condition the rule recovers is not an FCDG condition (a decoded
// plan that does not belong to this procedure); unresolvable inputs
// become requirements that never hold.
func (h *hornSystem) addRule(i int, r *Rule) (int32, error) {
	ext := h.a.Ext
	ci := int32(len(h.cl))
	r0 := int32(len(h.reqs))
	req := func(q hornReq) { h.reqs = append(h.reqs, q) }
	cond := func(c cdg.Condition) hornReq {
		f, _ := h.condFact(c)
		return hornReq{f, -1}
	}
	out := r.Dropped
	switch r.Kind {
	case RuleBranchBalance:
		req(hornReq{h.execFact(r.Node), -1})
		for _, o := range r.Others {
			req(cond(o))
		}
	case RuleStaticCond:
		req(hornReq{h.execFact(r.Node), -1})
	case RuleLoopIdentity:
		req(hornReq{h.execFact(ext.Preheader[r.Node]), -1})
		for _, be := range r.BackEdges {
			q := cond(cdg.Condition{Node: be.From, Label: be.Label})
			if singleLabel(ext.G, be.From) {
				if q.a < 0 {
					q.a = h.execFact(be.From)
				} else {
					q.b = h.execFact(be.From)
				}
			}
			req(q)
		}
	case RuleDoConstTrip, RuleDoAddTrip:
		// The DO rules recover the loop condition (preheader, U).
		if out == (cdg.Condition{}) {
			out = cdg.Condition{Node: ext.Preheader[r.Node], Label: cfg.Uncond}
		}
		req(hornReq{h.execFact(ext.Preheader[r.Node]), -1})
	default:
		h.reqs = h.reqs[:r0]
		return -1, fmt.Errorf("profiler: invalid rule kind %d", int(r.Kind))
	}
	f, ok := h.condFact(out)
	if !ok {
		h.reqs = h.reqs[:r0]
		return -1, fmt.Errorf("profiler: rule recovers %v, not a condition of %s", out, h.a.P.G.Name)
	}
	o0 := int32(len(h.outs))
	h.outs = append(h.outs, f)
	if r.Kind.isDo() {
		// The DO rules also fix the test's T and F takings when those are
		// (non-pseudo) conditions.
		for _, l := range []cfg.Label{cfg.True, cfg.False} {
			if f, ok := h.condAt(r.Node, l); ok && !h.pseudo[f] {
				h.outs = append(h.outs, f)
			}
		}
	}
	for ri := r0; ri < int32(len(h.reqs)); ri++ {
		q := h.reqs[ri]
		if q.a >= 0 {
			h.ruleUses[q.a] = append(h.ruleUses[q.a], hornUse{ci, ri})
		}
		if q.b >= 0 {
			h.ruleUses[q.b] = append(h.ruleUses[q.b], hornUse{ci, ri})
		}
		h.sat = append(h.sat, false)
	}
	for _, o := range h.outs[o0:] {
		h.ruleProd[o] = append(h.ruleProd[o], ci)
	}
	h.cl = append(h.cl, hornClause{out0: o0, out1: int32(len(h.outs)), req0: r0, req1: int32(len(h.reqs)), rule: int32(i)})
	h.count = append(h.count, 0)
	h.stamp = append(h.stamp, 0)
	return ci, nil
}

// popRule removes the most recently added rule clause. Its entries are the
// last ones of every use and producer list they joined.
func (h *hornSystem) popRule() {
	ci := int32(len(h.cl) - 1)
	c := h.cl[ci]
	for ri := c.req1 - 1; ri >= c.req0; ri-- {
		q := h.reqs[ri]
		if q.b >= 0 {
			h.ruleUses[q.b] = h.ruleUses[q.b][:len(h.ruleUses[q.b])-1]
		}
		if q.a >= 0 {
			h.ruleUses[q.a] = h.ruleUses[q.a][:len(h.ruleUses[q.a])-1]
		}
	}
	for _, o := range h.outs[c.out0:c.out1] {
		h.ruleProd[o] = h.ruleProd[o][:len(h.ruleProd[o])-1]
	}
	h.outs = h.outs[:c.out0]
	h.reqs = h.reqs[:c.req0]
	h.sat = h.sat[:c.req0]
	h.cl = h.cl[:ci]
	h.count = h.count[:ci]
	h.stamp = h.stamp[:ci]
}

// arm stamps clause ci into the current solve and counts its unsatisfied
// requirements against the known facts; it reports whether the clause is
// ready to fire.
func (h *hornSystem) arm(ci int32) bool {
	c := &h.cl[ci]
	h.stamp[ci] = h.epoch
	n := int32(0)
	for ri := c.req0; ri < c.req1; ri++ {
		q := h.reqs[ri]
		s := (q.a >= 0 && h.known[q.a]) || (q.b >= 0 && h.known[q.b])
		h.sat[ri] = s
		if !s {
			n++
		}
	}
	h.count[ci] = n
	return n == 0
}

// learn marks fact f known and appends the armed clauses it made ready to
// h.ready.
func (h *hornSystem) learn(f int32) {
	h.known[f] = true
	h.forUses(f, func(u hornUse) {
		if h.stamp[u.clause] != h.epoch || h.sat[u.req] {
			return
		}
		h.sat[u.req] = true
		h.count[u.clause]--
		if h.count[u.clause] == 0 {
			h.ready = append(h.ready, u.clause)
		}
	})
}

// propagate fires the ready clauses to a fixpoint. A non-nil record is
// called with each clause that derives a new fact, just before its facts
// are learnt: every exec clause, and every rule clause whose first output
// is still unknown. A rule clause whose first output is already known has
// nothing to add, so while recording it is skipped whole.
func (h *hornSystem) propagate(record func(ci int32)) {
	for len(h.ready) > 0 {
		ci := h.ready[len(h.ready)-1]
		h.ready = h.ready[:len(h.ready)-1]
		outs := h.clauseOuts(ci)
		if record != nil {
			if h.cl[ci].rule >= 0 && h.known[outs[0]] {
				continue
			}
			record(ci)
		}
		for _, o := range outs {
			if !h.known[o] {
				h.learn(o)
			}
		}
	}
}

// solve computes the least fixpoint from the axioms alone, passing record
// to propagate.
func (h *hornSystem) solve(record func(ci int32)) {
	h.epoch++
	copy(h.known, h.axiom)
	for ci := range h.cl {
		if h.arm(int32(ci)) {
			h.ready = append(h.ready, int32(ci))
		}
	}
	h.propagate(record)
}

// try tests one greedy elimination against the current least fixpoint:
// the conditions drop stop being axioms and rule r (plan-rule index i)
// joins the system. Only the cone of the change — the derived facts
// reachable from the dropped conditions and the rule's outputs — can lose
// or gain derivations, so only the cone is reset and re-derived from its
// supports outside it. On success the change stays and the fixpoint is
// the new plan's; otherwise everything is restored.
func (h *hornSystem) try(drop []cdg.Condition, i int, r *Rule) bool {
	h.epoch++
	h.cone = h.cone[:0]
	add := func(f int32) {
		if !h.inCone[f] && !h.axiom[f] {
			h.inCone[f] = true
			h.cone = append(h.cone, f)
		}
	}
	for _, c := range drop {
		f, _ := h.condFact(c)
		h.axiom[f] = false
		add(f)
	}
	ci, err := h.addRule(i, r)
	if err != nil {
		panic(err) // planner rules always recover FCDG conditions
	}
	for _, o := range h.clauseOuts(ci) {
		add(o)
	}
	for k := 0; k < len(h.cone); k++ {
		h.forUses(h.cone[k], func(u hornUse) {
			for _, o := range h.clauseOuts(u.clause) {
				add(o)
			}
		})
	}
	h.saved = h.saved[:0]
	for _, f := range h.cone {
		h.saved = append(h.saved, h.known[f])
		h.known[f] = false
	}
	for _, f := range h.cone {
		if !h.isCond(f) {
			if c := h.execClause[int(f)-h.nc]; c >= 0 && h.arm(c) {
				h.ready = append(h.ready, c)
			}
			continue
		}
		for _, c := range h.ruleProd[f] {
			if h.stamp[c] != h.epoch && h.arm(c) {
				h.ready = append(h.ready, c)
			}
		}
	}
	h.propagate(nil)
	ok := true
	for _, f := range h.cone {
		if h.isCond(f) && !h.pseudo[f] && !h.known[f] {
			ok = false
			break
		}
	}
	if !ok {
		for k, f := range h.cone {
			h.known[f] = h.saved[k]
		}
		for _, c := range drop {
			f, _ := h.condFact(c)
			h.axiom[f] = true
		}
		h.popRule()
	}
	for _, f := range h.cone {
		h.inCone[f] = false
	}
	return ok
}

// singleLabel reports whether u has exactly one distinct non-pseudo
// out-label in g.
func singleLabel(g *cfg.Graph, u cfg.NodeID) bool {
	var first cfg.Label
	n := 0
	for _, e := range g.OutEdges(u) {
		if e.Label.IsPseudo() || (n > 0 && e.Label == first) {
			continue
		}
		if n == 0 {
			first = e.Label
		}
		n++
	}
	return n == 1
}
