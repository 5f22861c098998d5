// Package profiler implements the counter-based execution profiling of
// Section 3 of the paper, in both the naive form (one counter per basic
// block) and the optimized "smart" form built on the interval structure and
// the forward control dependence graph:
//
//  1. one counter per control condition of the FCDG, so identically
//     control dependent statements share a counter;
//  2. counter elimination by conservation — for a branch whose labels are
//     all control conditions only n−1 need counters, and a loop's
//     frequency counter can be inferred from its entry and back-edge
//     counts;
//  3. the DO-loop optimization — a counted loop with no exits adds its
//     trip count to the counter once per entry, or needs no counter at all
//     when the trip count is a compile-time constant.
//
// Placement is greedy-with-proof. The inference rules form a Horn system
// over dense facts — each condition's total and each node's execution
// count — and a counter is eliminated only if every control condition's
// TOTAL_FREQ stays derivable from the remaining counters. The planner keeps
// the derivable set of the current plan and checks each trial by
// delete–re-derive over the part the trial can affect, so placement is
// near linear in the procedure size (horn.go).
//
// The proof is then written out as a recovery schedule: the straight-line
// order in which the facts get derived, over dense value slots, fixed once
// per plan (schedule.go). Reconstruction (Plan.Recover, Plan.RecoverRun)
// is one pass over that schedule — the paper's "one top-down pass" — plus
// the stopped-run corrections of stopfix.go.
//
// Instrumented runs are simulated: the interpreter already records the
// exact count of every node and labelled edge, so counter readings are
// extracted from those counts — precisely the values compiled-in counters
// would hold — and the overhead a real instrumented binary would pay is
// charged as (counter increments executed) × the cost model's counter
// price.
package profiler

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/ecfg"
	"repro/internal/lower"
	"repro/internal/staticfreq"
)

// CounterKind distinguishes the instrumentation a counter needs.
type CounterKind int

// Counter kinds. CondCounter increments when a control condition (u,l) is
// taken (smart scheme). BlockCounter increments when a basic block executes
// (naive scheme). TripAdd adds a DO loop's just-computed trip count once
// per loop entry (both schemes' DO optimization).
const (
	CondCounter CounterKind = iota
	BlockCounter
	TripAdd
)

// Counter is one counter variable the instrumented program maintains.
type Counter struct {
	Kind CounterKind
	// Cond is the counted control condition (CondCounter).
	Cond cdg.Condition
	// Node is the block leader (BlockCounter) or the DoInit node whose
	// trip count is added (TripAdd).
	Node cfg.NodeID
}

func (c Counter) String() string {
	switch c.Kind {
	case CondCounter:
		return fmt.Sprintf("cond%v", c.Cond)
	case BlockCounter:
		return fmt.Sprintf("block(%d)", c.Node)
	default:
		return fmt.Sprintf("tripadd(%d)", c.Node)
	}
}

// Rule is one inference rule of a smart plan: a conservation identity
// the recovery schedule applies to derive an eliminated condition.
type Rule struct {
	Kind RuleKind
	// Node is the branch node (RuleBranchBalance, RuleStaticCond) or the
	// loop header / DO test node (loop rules).
	Node cfg.NodeID
	// Dropped is the condition the rule recovers. For the DO rules it is
	// the zero Condition: they recover the loop condition (preheader, U)
	// and, when present, the test's T and F conditions implicitly.
	Dropped cdg.Condition
	// Others are the sibling conditions summed by RuleBranchBalance.
	Others []cdg.Condition
	// BackEdges are the CFG back edges of a RuleLoopIdentity.
	BackEdges []cfg.Edge
	// Trip is the constant trip count of a RuleDoConstTrip; Counter is the
	// index of a RuleDoAddTrip's TripAdd counter.
	Trip    int64
	Counter int
	// StaticFreq is the compile-time FREQ of a RuleStaticCond.
	StaticFreq float64
}

// RuleKind names the identity a Rule applies.
type RuleKind int

// Rule kinds. Their numeric order is part of the plan encoding.
const (
	RuleBranchBalance RuleKind = iota // dropped = exec(node) − Σ others
	RuleLoopIdentity                  // (ph,U) = exec(ph) + Σ back-edge takings
	RuleDoConstTrip                   // (ph,U), (test,T) from exec(ph) × const trip
	RuleDoAddTrip                     // (ph,U), (test,T) from a TripAdd reading
	RuleStaticCond                    // dropped = staticFreq × exec(node)
)

func (k RuleKind) String() string {
	switch k {
	case RuleBranchBalance:
		return "branch-balance"
	case RuleLoopIdentity:
		return "loop-identity"
	case RuleDoConstTrip:
		return "do-const-trip"
	case RuleDoAddTrip:
		return "do-add-trip"
	case RuleStaticCond:
		return "static-cond"
	}
	return "unknown"
}

// isDo reports whether k is one of the DO-loop trip rules.
func (k RuleKind) isDo() bool { return k == RuleDoConstTrip || k == RuleDoAddTrip }

// Plan is a counter placement for one procedure.
type Plan struct {
	A *analysis.Proc
	// Counters in deterministic order.
	Counters []Counter
	// rules recover the eliminated conditions.
	rules []Rule
	// conds caches the non-pseudo FCDG conditions.
	conds []cdg.Condition
	// Naive marks a per-block plan (no condition recovery).
	Naive bool
	// Blocks lists the basic block leaders (naive plans).
	Blocks []cfg.NodeID
	// flowTrips are dataflow-proven constant trip counts per DO-test node,
	// consulted by doLoopRule when syntactic folding of the bounds fails.
	// Only flow-aware placements (PlanFlow) set it.
	flowTrips map[cfg.NodeID]int64

	// trials counts the eliminations the planner tested (0 for decoded
	// plans).
	trials int
	// The recovery schedule and the postdominator tree of stopped-run
	// corrections are derived from the plan on first use; see recovery
	// and postDominators.
	recOnce  sync.Once
	rec      *recovery
	pdomOnce sync.Once
	pdom     *dom.Tree
}

// NumCounters returns the number of counter variables the plan maintains.
func (p *Plan) NumCounters() int { return len(p.Counters) }

// Trials returns how many greedy eliminations the planner tested while
// building the plan (0 for plans decoded from an artifact).
func (p *Plan) Trials() int { return p.trials }

// --------------------------------------------------------------------------
// Smart placement.

// Level selects which of Section 3's optimizations a placement applies,
// for the ablation study. Each level includes the previous ones;
// LevelConditions alone is optimization 1 (counters per control condition
// instead of per block).
type Level int

// Ablation levels.
const (
	LevelConditions Level = iota // opt 1: one counter per control condition
	LevelBranches                // + opt 2: n−1 branch counters, loop inference
	LevelFull                    // + opt 3: DO-loop trip hoisting
)

// PlanSmart computes the fully optimized counter placement for a
// procedure (all three optimizations).
func PlanSmart(a *analysis.Proc) (*Plan, error) { return PlanLevel(a, LevelFull) }

// PlanLevel computes a placement applying the optimizations up to level.
func PlanLevel(a *analysis.Proc, level Level) (*Plan, error) {
	return planImpl(a, level, nil, nil)
}

// PlanFlow computes the fully optimized placement additionally informed by
// the procedure's dataflow facts (a.Flow): counters for conditions pinned
// to an exact 0/1 frequency by feasibility analysis are dropped, and DO
// loops whose trip count only the constant propagation can fold are priced
// as constant-trip loops (no TripAdd counter). This is the placement
// BuildPlans uses; PlanSmart remains the purely profile-driven baseline.
func PlanFlow(a *analysis.Proc) (*Plan, error) {
	var trips map[cfg.NodeID]int64
	if a.Flow != nil {
		trips = a.Flow.ConstTrips
	}
	return planImpl(a, LevelFull, staticfreq.Exact(a), trips)
}

func planImpl(a *analysis.Proc, level Level, static map[cdg.Condition]float64, flowTrips map[cfg.NodeID]int64) (*Plan, error) {
	p := &Plan{A: a, flowTrips: flowTrips}
	for _, c := range a.FCDG.Conditions() {
		if c.Label.IsPseudo() {
			continue
		}
		p.conds = append(p.conds, c)
	}
	// Start from one counter per condition: every condition is an axiom.
	h := newHorn(a)
	for _, c := range a.FCDG.Conditions() {
		f, _ := h.condFact(c)
		h.axiom[f] = true
	}
	h.solve(nil)
	counted := func(c cdg.Condition) bool {
		f, ok := h.condFact(c)
		return ok && h.axiom[f]
	}
	// try keeps rule r, recovering the dropped conditions, when the plan
	// stays solvable without their counters.
	try := func(r Rule, drop ...cdg.Condition) bool {
		p.trials++
		if !h.try(drop, len(p.rules), &r) {
			return false
		}
		p.rules = append(p.rules, r)
		return true
	}

	// Pass 0 — compile-time frequencies: a statically known condition's
	// total is FREQ × exec(node), so its counter can go.
	for _, c := range p.conds {
		v, ok := static[c]
		if !ok || !counted(c) {
			continue
		}
		try(Rule{Kind: RuleStaticCond, Node: c.Node, Dropped: c, StaticFreq: v}, c)
	}

	// Pass 1 — loops, innermost first (headers sorted by depth descending
	// so inner-loop eliminations are tried before outer ones).
	gotoExits := staticfreq.GotoExits(a)
	headers := append([]cfg.NodeID(nil), a.Intervals.Headers()...)
	sort.Slice(headers, func(i, j int) bool {
		di, dj := a.Intervals.Depth(headers[i]), a.Intervals.Depth(headers[j])
		if di != dj {
			return di > dj
		}
		return headers[i] < headers[j]
	})
	for _, hd := range headers {
		if level < LevelBranches {
			break
		}
		ph := a.Ext.Preheader[hd]
		loopCond := cdg.Condition{Node: ph, Label: ecfg.LoopBodyLabel}
		if !counted(loopCond) {
			continue
		}
		if r, ok := p.doLoopRule(hd, gotoExits); ok && level >= LevelFull {
			// DO optimization: drop the loop condition and the body-entry
			// condition together.
			drop := []cdg.Condition{loopCond}
			if testCond := (cdg.Condition{Node: hd, Label: cfg.True}); counted(testCond) {
				drop = append(drop, testCond)
			}
			if try(r, drop...) {
				continue
			}
		}
		// General loop: infer the frequency from entries + back edges.
		try(Rule{Kind: RuleLoopIdentity, Node: hd, Dropped: loopCond,
			BackEdges: a.Intervals.BackEdges(hd)}, loopCond)
	}

	// Pass 2 — branch conservation: for each node whose CFG labels are all
	// control conditions, try to drop one (the highest-sorting label).
	// p.conds is (node, label)-sorted, so each node's conditions are one
	// run of it, in ascending node order.
	for i := 0; i < len(p.conds) && level >= LevelBranches; {
		u := p.conds[i].Node
		j := i
		for j < len(p.conds) && p.conds[j].Node == u {
			j++
		}
		conds := p.conds[i:j]
		i = j
		if a.Ext.IsSynthetic(u) {
			continue // preheaders handled above; START keeps its run counter
		}
		if !branchComplete(a.Ext.G, u, conds) {
			continue
		}
		// Try dropping the highest still-counted label; at most one label
		// per node may be dropped.
		for k := len(conds) - 1; k >= 0; k-- {
			cand := conds[k]
			if !counted(cand) {
				continue
			}
			var others []cdg.Condition
			for _, c := range conds {
				if c != cand {
					others = append(others, c)
				}
			}
			try(Rule{Kind: RuleBranchBalance, Node: u, Dropped: cand, Others: others}, cand)
			break
		}
	}

	// Materialize counters.
	for _, c := range p.conds {
		if counted(c) {
			p.Counters = append(p.Counters, Counter{Kind: CondCounter, Cond: c})
		}
	}
	inits := p.doInits()
	tripAdds := map[cfg.NodeID]int{}
	var initNodes []cfg.NodeID
	for i := range p.rules {
		if p.rules[i].Kind == RuleDoAddTrip {
			init := inits[p.rules[i].Node]
			if _, dup := tripAdds[init]; !dup {
				tripAdds[init] = 0
				initNodes = append(initNodes, init)
			}
		}
	}
	sort.Slice(initNodes, func(i, j int) bool { return initNodes[i] < initNodes[j] })
	for _, n := range initNodes {
		tripAdds[n] = len(p.Counters)
		p.Counters = append(p.Counters, Counter{Kind: TripAdd, Node: n})
	}
	for i := range p.rules {
		if p.rules[i].Kind == RuleDoAddTrip {
			p.rules[i].Counter = tripAdds[inits[p.rules[i].Node]]
		}
	}
	// Fix the recovery schedule now, from the planner's own Horn system;
	// it doubles as the final proof that every condition is recoverable.
	p.recOnce.Do(func() { p.rec = recoveryFrom(p, h) })
	if err := p.rec.err; err != nil {
		return nil, fmt.Errorf("profiler: final plan for %s is not solvable: %w", a.P.G.Name, err)
	}
	return p, nil
}

// branchComplete reports whether u has at least two distinct non-pseudo
// out-labels and every one of them is the label of a condition in conds.
func branchComplete(g *cfg.Graph, u cfg.NodeID, conds []cdg.Condition) bool {
	var first cfg.Label
	seen, multi := false, false
	for _, e := range g.OutEdges(u) {
		if e.Label.IsPseudo() {
			continue
		}
		if !seen {
			first, seen = e.Label, true
		} else if e.Label != first {
			multi = true
		}
		found := false
		for _, c := range conds {
			if c.Label == e.Label {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return multi
}

// doLoopRule checks whether header h is an exit-free counted DO loop and
// returns the matching rule (RuleDoConstTrip when the trip count folds to
// a constant, RuleDoAddTrip otherwise). gotoExits is
// staticfreq.GotoExits(p.A).
func (p *Plan) doLoopRule(h cfg.NodeID, gotoExits []bool) (Rule, bool) {
	op, ok := p.A.Ext.G.Node(h).Payload.(lower.OpDoTest)
	if !ok || gotoExits[h] {
		return Rule{}, false
	}
	if b, ok := staticfreq.FoldDo(p.A.P.Unit, op.L); ok {
		return Rule{Kind: RuleDoConstTrip, Node: h, Trip: b.Trip}, true
	}
	if trip, ok := p.flowTrips[h]; ok {
		return Rule{Kind: RuleDoConstTrip, Node: h, Trip: trip}, true
	}
	return Rule{Kind: RuleDoAddTrip, Node: h}, true
}

// doInits maps each DO test node to the DoInit node feeding it. In the
// extended graph the init is a predecessor of the loop preheader, not of
// the header itself, so inits are located by their payload.
func (p *Plan) doInits() map[cfg.NodeID]cfg.NodeID {
	out := map[cfg.NodeID]cfg.NodeID{}
	g := p.A.P.G
	for id := g.MaxID(); id > cfg.None; id-- {
		if op, ok := g.Node(id).Payload.(lower.OpDoInit); ok {
			out[op.Test] = id // the lowest-ID init wins, as in a forward scan
		}
	}
	return out
}

// --------------------------------------------------------------------------
// Naive placement.

// PlanNaive computes the baseline placement: one counter per basic block of
// the procedure's CFG, with the DO-loop optimization applied only when the
// loop body is straight-line code (the paper's Table 1 "naive profiling"
// configuration).
func PlanNaive(a *analysis.Proc) *Plan {
	p := &Plan{A: a, Naive: true}
	g := a.P.G
	leaders := BlockLeaders(g)
	// DO optimization, restricted form: an exit-free DO whose body is one
	// straight-line block. The body-block counter and the test-block
	// counter are replaced by one TripAdd at the DoInit (body executions =
	// Σtrips, test executions = Σtrips + init executions).
	skip := map[cfg.NodeID]bool{}
	var adds []cfg.NodeID
	inits := p.doInits()
	gotoExits := staticfreq.GotoExits(a)
	for _, h := range a.Intervals.Headers() {
		r, ok := p.doLoopRule(h, gotoExits)
		if !ok {
			continue
		}
		body, straight := straightLineBody(a, h)
		if !straight {
			continue
		}
		skip[h] = true    // test block
		skip[body] = true // body block leader
		if r.Kind == RuleDoAddTrip {
			adds = append(adds, inits[h])
		}
		// Constant trips need no counter at all; both blocks derive from
		// the init block count.
	}
	for _, l := range leaders {
		if skip[l] {
			continue
		}
		p.Blocks = append(p.Blocks, l)
		p.Counters = append(p.Counters, Counter{Kind: BlockCounter, Node: l})
	}
	for _, n := range adds {
		p.Counters = append(p.Counters, Counter{Kind: TripAdd, Node: n})
	}
	return p
}

// BlockLeaders returns the basic block leader nodes of g in ascending
// order: the entry, every branch target of a multi-way transfer, and every
// join point.
func BlockLeaders(g *cfg.Graph) []cfg.NodeID {
	lead := map[cfg.NodeID]bool{g.Entry: true}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if len(g.InEdges(id)) > 1 {
			lead[id] = true
		}
		if len(g.OutEdges(id)) > 1 {
			for _, e := range g.OutEdges(id) {
				lead[e.To] = true
			}
		}
	}
	out := make([]cfg.NodeID, 0, len(lead))
	for n := range lead {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// straightLineBody reports whether the body of DO loop h (the subgraph
// entered by the test's T edge, up to the DoIncr) is a single basic block,
// and returns its leader.
func straightLineBody(a *analysis.Proc, h cfg.NodeID) (cfg.NodeID, bool) {
	g := a.P.G
	var entry cfg.NodeID
	for _, e := range g.OutEdges(h) {
		if e.Label == cfg.True {
			entry = e.To
		}
	}
	if entry == cfg.None {
		return cfg.None, false
	}
	n := entry
	for {
		if len(g.InEdges(n)) > 1 && n != entry {
			return cfg.None, false
		}
		out := g.OutEdges(n)
		if len(out) != 1 {
			return cfg.None, false
		}
		if _, isIncr := g.Node(n).Payload.(lower.OpDoIncr); isIncr {
			return entry, true
		}
		n = out[0].To
		if n == h || n == entry {
			return cfg.None, false
		}
	}
}
