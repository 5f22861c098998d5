package profiler

import (
	"fmt"

	"repro/internal/cdg"
	"repro/internal/cfg"
)

// RuleKind is the exported mirror of the plan's internal rule kinds, in the
// same order, for static verification of a placement (package check builds
// a linear system out of the rules and proves it has full rank).
type RuleKind int

// Exported rule kinds.
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

// RuleView is a read-only view of one inference rule of a smart plan.
// Slices are copies; mutating them does not affect the plan.
type RuleView struct {
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
	// Trip is the constant trip count of a RuleDoConstTrip.
	Trip int64
	// StaticFreq is the compile-time FREQ of a RuleStaticCond.
	StaticFreq float64
}

// Rules exposes the plan's inference rules for independent verification.
func (p *Plan) Rules() []RuleView {
	out := make([]RuleView, 0, len(p.rules))
	for i := range p.rules {
		r := &p.rules[i]
		out = append(out, RuleView{
			Kind:       RuleKind(r.kind),
			Node:       r.node,
			Dropped:    r.dropped,
			Others:     append([]cdg.Condition(nil), r.others...),
			BackEdges:  append([]cfg.Edge(nil), r.backEdges...),
			Trip:       r.trip,
			StaticFreq: r.staticFreq,
		})
	}
	return out
}

// Conds returns the non-pseudo FCDG conditions the plan must determine —
// the unknowns of the recovery system. The slice is a copy.
func (p *Plan) Conds() []cdg.Condition {
	return append([]cdg.Condition(nil), p.conds...)
}

// ConstTripTests returns the DO-test nodes the plan proved to be exit-free
// counted loops with a compile-time-constant trip count (the doConstTrip
// rule of Section 3's third optimization). Such a test is deterministic —
// per loop entry it takes T exactly trip times and F once — so the
// estimator may drop the Bernoulli model for its branch.
func (p *Plan) ConstTripTests() []cfg.NodeID {
	var out []cfg.NodeID
	for i := range p.rules {
		if p.rules[i].kind == doConstTrip {
			out = append(out, p.rules[i].node)
		}
	}
	return out
}

// Derivation is one rule application of the plan's recovery schedule: the
// conditions it recovers and the quantities it reads. Inputs name
// condition totals as "(node,label)", node execution counts as
// "exec(node)", a TripAdd counter as "tripadd(init)" and a constant trip
// count as "trip=N".
type Derivation struct {
	Kind    RuleKind
	Node    cfg.NodeID
	Derives []cdg.Condition
	Inputs  []string
}

// Derivations returns the rule steps of the recovery schedule in the order
// recovery executes them — the proof, condition by condition, that the
// kept counters determine every TOTAL_FREQ. The steps that only sum a
// node's in-conditions into exec(node) are left out. Naive plans have no
// derivations.
func (p *Plan) Derivations() ([]Derivation, error) {
	if p.Naive {
		return nil, nil
	}
	rec := p.recovery()
	if rec.err != nil {
		return nil, rec.err
	}
	f := p.A.FCDG
	nc := int32(f.NumConditions())
	name := func(slot int32) string {
		if slot < nc {
			return f.CondAt(int(slot)).String()
		}
		return fmt.Sprintf("exec(%d)", slot-nc)
	}
	var out []Derivation
	a0 := int32(0)
	for _, st := range rec.steps {
		args := rec.args[a0:st.end]
		a0 = st.end
		if st.kind == stepExec {
			continue
		}
		r := &p.rules[st.rule]
		d := Derivation{Kind: RuleKind(r.kind), Node: r.node, Derives: []cdg.Condition{f.CondAt(int(st.dst))}, Inputs: []string{name(st.in)}}
		if st.kind == stepDo {
			for _, s := range args {
				if s >= 0 {
					d.Derives = append(d.Derives, f.CondAt(int(s)))
				}
			}
		} else {
			for _, a := range args {
				d.Inputs = append(d.Inputs, name(a))
			}
		}
		switch r.kind {
		case doConstTrip:
			d.Inputs = append(d.Inputs, fmt.Sprintf("trip=%d", r.trip))
		case doAddTrip:
			d.Inputs = append(d.Inputs, p.Counters[r.counter].String())
		case staticCond:
			d.Inputs = append(d.Inputs, fmt.Sprintf("freq=%g", r.staticFreq))
		}
		out = append(out, d)
	}
	return out, nil
}
