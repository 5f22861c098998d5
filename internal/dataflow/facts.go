package dataflow

import (
	"fmt"
	"math/bits"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/lower"
)

// Finding is one lint-grade fact about a source variable at a node.
type Finding struct {
	Node cfg.NodeID
	Var  string
	Line int
	Col  int
	Msg  string
}

// Facts are the combined per-procedure results of the client analyses. All
// slices are in deterministic (node ID, then variable name) order. Every
// claim here is dynamically checkable: the oracle's dataflow-sound invariant
// asserts each one against profiled runs.
type Facts struct {
	Proc *lower.Proc

	// Env[n] is the constant environment at entry to node n; nil marks a
	// node the conditional constant propagation proved unreachable.
	Env []Env
	// tripNames are the DO trip registers' encoded names, in Env index order.
	tripNames []string
	// Reached[n] reports whether n is reachable under propagated constants.
	Reached []bool

	// Infeasible lists the CFG edges proven never taken.
	Infeasible []cfg.Edge
	// ConstBranch maps each reached multi-way node with exactly one
	// feasible out-edge to that edge's label.
	ConstBranch map[cfg.NodeID]cfg.Label
	// ConstTrips maps a DO loop's test node to its proven constant trip
	// count: every execution of the loop's DoInit computes this many trips.
	// Node-split DoInit copies sharing a test must agree or the test is
	// dropped.
	ConstTrips map[cfg.NodeID]int64

	// DeadNodes are flow-unreached nodes with source statements, restricted
	// to the frontier (at least one reached predecessor) to avoid cascades.
	DeadNodes []cfg.NodeID
	// DeadStores flags scalar assignments whose value no later path reads.
	DeadStores []Finding
	// UseBeforeDef flags reads of locals not assigned on every path from
	// entry (the interpreter zero-initializes them, so these are warnings).
	UseBeforeDef []Finding
}

// Analyze runs all client analyses over p's lowered CFG and assembles their
// facts. It is deterministic: identical procedures yield identical Facts.
func Analyze(p *lower.Proc) *Facts {
	f := &Facts{
		Proc:        p,
		ConstBranch: make(map[cfg.NodeID]cfg.Label),
		ConstTrips:  make(map[cfg.NodeID]int64),
	}
	o := newOrder(p.G)
	forward := newWorklist(o, false)
	names, nodeTrip := tripNames(p.G, f.nslots())
	f.tripNames = names
	c := runConstProp(p, nodeTrip, forward)
	f.Env = c.env
	f.Reached = make([]bool, len(c.env))
	for n := range c.env {
		f.Reached[n] = c.env[n] != nil
	}
	f.deriveEdges(c)
	f.deriveTrips(c)
	f.deriveDeadNodes()
	v := newVars(p)
	// Backward may-liveness: a scalar is live where some path reaches a use
	// before a must-def; parameters stay live at exit (stores through a
	// by-reference parameter are visible to the caller).
	f.deriveDeadStores(v, v.solveBits(newWorklist(o, true), v.use, v.def, v.param))
	// Forward definite assignment: the scalars assigned on every path from
	// entry, none at entry; nothing kills an assignment.
	f.deriveUseBeforeDef(v, v.solveBits(forward, v.gen, nil, nil))
	return f
}

// nslots is the number of env indices scalars take before the trip
// registers start.
func (f *Facts) nslots() int32 {
	if f.Proc.Unit == nil {
		return 0
	}
	return int32(len(f.Proc.Unit.Slots))
}

// deriveEdges collects infeasible edges and single-successor branches from
// the SCCP feasibility bitmap, in node-ID then out-edge order.
func (f *Facts) deriveEdges(c *constProp) {
	g := f.Proc.G
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		out := g.OutEdges(id)
		feasibleCount := 0
		var only cfg.Label
		for k, e := range out {
			if c.feasible[id][k] {
				feasibleCount++
				only = e.Label
			} else {
				f.Infeasible = append(f.Infeasible, e)
			}
		}
		if f.Reached[id] && len(out) >= 2 && feasibleCount == 1 {
			f.ConstBranch[id] = only
		}
	}
}

// deriveTrips folds each reached DoInit's trip count under its entry
// environment; node-split copies sharing a test node must all fold to the
// same value or the test is dropped.
func (f *Facts) deriveTrips(c *constProp) {
	bad := make(map[cfg.NodeID]bool)
	g := f.Proc.G
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		o, ok := g.Node(id).Payload.(lower.OpDoInit)
		if !ok || !f.Reached[id] {
			continue
		}
		trip, folded := c.tripCount(c.env[id], o.L)
		if prev, seen := f.ConstTrips[o.Test]; bad[o.Test] || !folded || seen && prev != trip {
			bad[o.Test] = true
			delete(f.ConstTrips, o.Test)
			continue
		}
		f.ConstTrips[o.Test] = trip
	}
}

// deriveDeadNodes lists flow-unreached statement nodes on the reachability
// frontier (at least one reached predecessor). Node splitting may duplicate
// a statement; its source is only dead when no copy is reached, and is
// reported once, at its first frontier copy.
func (f *Facts) deriveDeadNodes() {
	g := f.Proc.G
	var frontier []cfg.NodeID
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if f.Reached[id] || f.Proc.Stmt[id] == nil {
			continue
		}
		for _, e := range g.InEdges(id) {
			if f.Reached[e.From] {
				frontier = append(frontier, id)
				break
			}
		}
	}
	f.DeadNodes = f.onceUnless(frontier, func(id cfg.NodeID) bool { return f.Reached[id] })
}

// onceUnless returns the first of candidates (in order) for each source
// statement none of whose nodes satisfies keep.
func (f *Facts) onceUnless(candidates []cfg.NodeID, keep func(cfg.NodeID) bool) []cfg.NodeID {
	if len(candidates) == 0 {
		return nil
	}
	// open[s] reports whether statement s may still be reported.
	open := make(map[lang.Stmt]bool, len(candidates))
	for _, id := range candidates {
		open[f.Proc.Stmt[id]] = true
	}
	for id, s := range f.Proc.Stmt {
		if open[s] && keep(id) {
			open[s] = false
		}
	}
	var out []cfg.NodeID
	for _, id := range candidates {
		if s := f.Proc.Stmt[id]; open[s] {
			open[s] = false
			out = append(out, id)
		}
	}
	return out
}

// deriveDeadStores flags reached source-level scalar assignments whose
// target is dead after the store (live holds each node's live-out row). A
// node-split statement is flagged only when the store is dead at every
// reached copy, and reported once.
func (f *Facts) deriveDeadStores(v *vars, live []uint64) {
	g := f.Proc.G
	stored := func(id cfg.NodeID) bool { return f.Reached[id] && v.lintable[id] }
	isLive := func(id cfg.NodeID) bool { return hasBit(v.row(live, id), int(v.defVar[id])) }
	var dead []cfg.NodeID
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if stored(id) && !isLive(id) {
			dead = append(dead, id)
		}
	}
	for _, id := range f.onceUnless(dead, func(id cfg.NodeID) bool { return stored(id) && isLive(id) }) {
		name := f.Proc.Unit.Slots[v.defVar[id]].Name
		f.DeadStores = append(f.DeadStores, f.finding(id, name,
			fmt.Sprintf("value assigned to %s is never read", name)))
	}
}

// deriveUseBeforeDef flags reads of locals not assigned on every path from
// entry (assigned holds each node's entry row), once per (statement,
// variable) pair.
func (f *Facts) deriveUseBeforeDef(v *vars, assigned []uint64) {
	g := f.Proc.G
	type key struct {
		s lang.Stmt
		i int
	}
	seen := make(map[key]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if !f.Reached[id] {
			continue
		}
		use, in := v.row(v.use, id), v.row(assigned, id)
		for w := range use {
			for word := use[w] & v.local[w] &^ in[w]; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if k := (key{f.Proc.Stmt[id], i}); !seen[k] {
					seen[k] = true
					name := f.Proc.Unit.Slots[i].Name
					f.UseBeforeDef = append(f.UseBeforeDef, f.finding(id, name,
						fmt.Sprintf("%s may be used before being assigned (reads as zero)", name)))
				}
			}
		}
	}
}

func (f *Facts) finding(n cfg.NodeID, name, msg string) Finding {
	fd := Finding{Node: n, Var: name, Msg: msg}
	if s := f.Proc.Stmt[n]; s != nil {
		fd.Line = s.Pos()
		fd.Col = s.Column()
	}
	return fd
}

// ConstsAtNode returns the proven constants at entry to node n in sorted
// name order (empty for unreached nodes), trip registers excluded.
func (f *Facts) ConstsAtNode(n cfg.NodeID) []Const {
	if int(n) >= len(f.Env) || f.Env[n] == nil {
		return nil
	}
	env := f.Env[n]
	out := make([]Const, 0, len(env))
	for _, b := range env {
		if b.Index >= f.nslots() {
			break
		}
		out = append(out, Const{Name: f.Proc.Unit.Slots[b.Index].Name, Val: b.Val})
	}
	return out
}

// InfeasibleSet returns the infeasible edges keyed for O(1) lookup.
func (f *Facts) InfeasibleSet() map[cfg.Edge]bool {
	m := make(map[cfg.Edge]bool, len(f.Infeasible))
	for _, e := range f.Infeasible {
		m[e] = true
	}
	return m
}

// Stats summarizes the facts for reporting.
type Stats struct {
	Nodes        int
	ReachedNodes int
	Infeasible   int
	ConstBranch  int
	ConstTrips   int
	DeadNodes    int
	DeadStores   int
	UseBeforeDef int
}

// Stats counts the facts.
func (f *Facts) Stats() Stats {
	st := Stats{
		Infeasible:   len(f.Infeasible),
		ConstBranch:  len(f.ConstBranch),
		ConstTrips:   len(f.ConstTrips),
		DeadNodes:    len(f.DeadNodes),
		DeadStores:   len(f.DeadStores),
		UseBeforeDef: len(f.UseBeforeDef),
	}
	g := f.Proc.G
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if g.Node(id) == nil {
			continue
		}
		st.Nodes++
		if f.Reached[id] {
			st.ReachedNodes++
		}
	}
	return st
}
