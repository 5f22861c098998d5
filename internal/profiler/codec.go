package profiler

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/wire"
)

// Encode serializes the counter placement: counters, recovery rules, the
// cached condition list, and the flow-proven trip counts. The plan's
// analysis back-pointer is re-attached on decode.
func (p *Plan) Encode(w *wire.Writer) {
	w.Bool(p.Naive)
	w.Uvarint(uint64(len(p.Counters)))
	for _, c := range p.Counters {
		w.U8(uint8(c.Kind))
		encodeCond(w, c.Cond)
		w.Varint(int64(c.Node))
	}
	w.Uvarint(uint64(len(p.rules)))
	for _, r := range p.rules {
		w.U8(uint8(r.Kind))
		w.Varint(int64(r.Node))
		encodeCond(w, r.Dropped)
		w.Uvarint(uint64(len(r.Others)))
		for _, c := range r.Others {
			encodeCond(w, c)
		}
		w.Uvarint(uint64(len(r.BackEdges)))
		for _, e := range r.BackEdges {
			cfg.EncodeEdge(w, e)
		}
		w.Varint(r.Trip)
		w.Int(r.Counter)
		w.F64(r.StaticFreq)
	}
	w.Uvarint(uint64(len(p.conds)))
	for _, c := range p.conds {
		encodeCond(w, c)
	}
	w.Uvarint(uint64(len(p.Blocks)))
	for _, b := range p.Blocks {
		w.Varint(int64(b))
	}
	trips := make([]cfg.NodeID, 0, len(p.flowTrips))
	for n := range p.flowTrips {
		trips = append(trips, n)
	}
	sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
	w.Uvarint(uint64(len(trips)))
	for _, n := range trips {
		w.Varint(int64(n))
		w.Varint(p.flowTrips[n])
	}
}

func encodeCond(w *wire.Writer, c cdg.Condition) {
	w.Varint(int64(c.Node))
	w.String(string(c.Label))
}

func decodeCond(r *wire.Reader, g *cfg.Graph) cdg.Condition {
	c := cdg.Condition{Node: cfg.NodeID(r.Varint()), Label: cfg.Label(r.String())}
	if r.Err() == nil && c.Node != cfg.None && g.Node(c.Node) == nil {
		r.Failf("condition node %d outside extended graph", c.Node)
	}
	return c
}

// DecodePlan reads a Plan written by Encode, attached to a.
func DecodePlan(r *wire.Reader, a *analysis.Proc) *Plan {
	p := &Plan{A: a}
	eg := a.Ext.G
	p.Naive = r.Bool()
	nc := r.Count(3)
	for i := 0; i < nc; i++ {
		c := Counter{Kind: CounterKind(r.U8())}
		c.Cond = decodeCond(r, eg)
		c.Node = cfg.NodeID(r.Varint())
		if r.Err() == nil && (c.Kind < CondCounter || c.Kind > TripAdd) {
			r.Failf("invalid counter kind %d", int(c.Kind))
		}
		if r.Err() != nil {
			return p
		}
		p.Counters = append(p.Counters, c)
	}
	nr := r.Count(6)
	for i := 0; i < nr; i++ {
		ru := Rule{Kind: RuleKind(r.U8())}
		ru.Node = cfg.NodeID(r.Varint())
		ru.Dropped = decodeCond(r, eg)
		no := r.Count(2)
		for j := 0; j < no; j++ {
			ru.Others = append(ru.Others, decodeCond(r, eg))
		}
		ne := r.Count(3)
		for j := 0; j < ne; j++ {
			ru.BackEdges = append(ru.BackEdges, cfg.DecodeEdge(r, eg))
		}
		ru.Trip = r.Varint()
		ru.Counter = r.Int()
		ru.StaticFreq = r.F64()
		if r.Err() == nil && (ru.Kind < RuleBranchBalance || ru.Kind > RuleStaticCond) {
			r.Failf("invalid rule kind %d", int(ru.Kind))
		}
		if r.Err() == nil && ru.Kind == RuleDoAddTrip && (ru.Counter < 0 || ru.Counter >= len(p.Counters)) {
			r.Failf("rule counter index %d out of range", ru.Counter)
		}
		if r.Err() != nil {
			return p
		}
		p.rules = append(p.rules, ru)
	}
	ncd := r.Count(2)
	for i := 0; i < ncd; i++ {
		p.conds = append(p.conds, decodeCond(r, eg))
	}
	nb := r.Count(1)
	for i := 0; i < nb; i++ {
		p.Blocks = append(p.Blocks, cfg.NodeID(r.Varint()))
	}
	nt := r.Count(2)
	if nt > 0 {
		p.flowTrips = make(map[cfg.NodeID]int64, nt)
		for i := 0; i < nt; i++ {
			n := cfg.NodeID(r.Varint())
			p.flowTrips[n] = r.Varint()
		}
	}
	return p
}

// BuildPlansPrebuilt is BuildPlans reusing already-decoded plans for the
// procedures present in prebuilt (the artifact cache's warm half); only the
// remaining procedures pay the placement computation.
func BuildPlansPrebuilt(prog *analysis.Program, prebuilt map[string]*Plan) (Plans, error) {
	out := make(Plans, len(prog.Procs))
	for name, a := range prog.Procs {
		if plan, ok := prebuilt[name]; ok && plan != nil {
			out[name] = plan
			continue
		}
		plan, err := PlanFlow(a)
		if err != nil {
			return nil, err
		}
		out[name] = plan
	}
	return out, nil
}
