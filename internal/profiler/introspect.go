package profiler

import (
	"fmt"

	"repro/internal/cdg"
	"repro/internal/cfg"
)

// Rules returns the plan's inference rules, for independent verification
// (package check proves they determine every condition). The slice is the
// plan's own and is shared: callers must not mutate it.
func (p *Plan) Rules() []Rule { return p.rules }

// Conds returns the non-pseudo FCDG conditions the plan must determine —
// the unknowns of the recovery system. The slice is a copy.
func (p *Plan) Conds() []cdg.Condition {
	return append([]cdg.Condition(nil), p.conds...)
}

// ConstTripTests returns the DO-test nodes the plan proved to be exit-free
// counted loops with a compile-time-constant trip count (the
// RuleDoConstTrip rule of Section 3's third optimization). Such a test is
// deterministic — per loop entry it takes T exactly trip times and F once
// — so the estimator may drop the Bernoulli model for its branch.
func (p *Plan) ConstTripTests() []cfg.NodeID {
	var out []cfg.NodeID
	for i := range p.rules {
		if p.rules[i].Kind == RuleDoConstTrip {
			out = append(out, p.rules[i].Node)
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
		if st.rule < 0 {
			continue
		}
		r := &p.rules[st.rule]
		d := Derivation{Kind: r.Kind, Node: r.Node, Derives: []cdg.Condition{f.CondAt(int(st.dst))}, Inputs: []string{name(st.in)}}
		if r.Kind.isDo() {
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
		switch r.Kind {
		case RuleDoConstTrip:
			d.Inputs = append(d.Inputs, fmt.Sprintf("trip=%d", r.Trip))
		case RuleDoAddTrip:
			d.Inputs = append(d.Inputs, p.Counters[r.Counter].String())
		case RuleStaticCond:
			d.Inputs = append(d.Inputs, fmt.Sprintf("freq=%g", r.StaticFreq))
		}
		out = append(out, d)
	}
	return out, nil
}
