// Package staticfreq implements the compile-time frequency analysis of
// Section 3: "These frequency values may be determined by program
// analysis, or may be obtained from an execution profile ... We believe
// that program analysis is feasible for only a few restricted cases (e.g.
// a Fortran DO loop with constant bounds and no conditional loop exits, an
// IF condition that can be computed at compile-time, etc.), and should be
// complemented by execution profile information wherever compile-time
// analysis is unsuccessful."
//
// Exactly those restricted cases are resolved here:
//
//   - exit-free counted DO loops whose bounds fold to constants: the loop
//     condition's FREQ is trip+1 header executions per entry, and the
//     test's T/F branch probabilities are trip/(trip+1) and 1/(trip+1);
//   - IF conditions (block or logical) that fold to .TRUE. or .FALSE.;
//   - arithmetic IFs and computed GOTOs over constant expressions;
//   - conditions the dataflow framework (internal/dataflow) resolves
//     beyond syntactic folding: branches decided by propagated constants,
//     edges proven infeasible, and DO loops whose bounds become constant
//     only through the flow of proven-constant scalars.
//
// The result is a partial FREQ assignment over the procedure's control
// conditions; freq.ComputeOpts accepts it alongside profile totals, and
// the profiler can drop counters for statically known conditions.
package staticfreq

import (
	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/ecfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
)

// Analyze returns the compile-time-known FREQ values of a's control
// conditions. Conditions absent from the map need profile data.
func Analyze(a *analysis.Proc) map[cdg.Condition]float64 {
	out := make(map[cdg.Condition]float64)
	known := map[cdg.Condition]bool{}
	for _, c := range a.FCDG.Conditions() {
		known[c] = true
		if c.Label.IsPseudo() {
			out[c] = 0 // pseudo edges are never taken, statically
		}
	}
	set := func(c cdg.Condition, v float64) {
		if known[c] {
			out[c] = v
		}
	}

	gotoExits := GotoExits(a)
	for _, n := range a.P.G.Nodes() {
		switch op := n.Payload.(type) {
		case lower.OpDoTest:
			trip, ok := constTrip(a, n.ID, op, gotoExits)
			if !ok {
				continue
			}
			// Header executes trip+1 times per entry; the T branch is
			// taken trip of those, F once.
			f := float64(trip)
			set(cdg.Condition{Node: n.ID, Label: cfg.True}, f/(f+1))
			set(cdg.Condition{Node: n.ID, Label: cfg.False}, 1/(f+1))
			if ph, ok := a.Ext.Preheader[n.ID]; ok {
				set(cdg.Condition{Node: ph, Label: ecfg.LoopBodyLabel}, f+1)
			}
		case lower.OpBranch:
			v, ok := lang.FoldLogical(a.P.Unit, op.Cond)
			if !ok {
				continue
			}
			t, f := 0.0, 1.0
			if v {
				t, f = 1.0, 0.0
			}
			set(cdg.Condition{Node: n.ID, Label: cfg.True}, t)
			set(cdg.Condition{Node: n.ID, Label: cfg.False}, f)
		case lower.OpArithIf:
			v, ok := lang.FoldInt(a.P.Unit, op.E)
			if !ok {
				continue
			}
			for lbl, hit := range map[cfg.Label]bool{
				lower.LabelNeg:  v < 0,
				lower.LabelZero: v == 0,
				lower.LabelPos:  v > 0,
			} {
				p := 0.0
				if hit {
					p = 1.0
				}
				set(cdg.Condition{Node: n.ID, Label: lbl}, p)
			}
		case lower.OpComputedGoto:
			v, ok := lang.FoldInt(a.P.Unit, op.E)
			if !ok {
				continue
			}
			for i := 1; i <= op.N; i++ {
				p := 0.0
				if int64(i) == v {
					p = 1.0
				}
				set(cdg.Condition{Node: n.ID, Label: lower.GotoCase(i)}, p)
			}
			p := 0.0
			if v < 1 || v > int64(op.N) {
				p = 1.0
			}
			set(cdg.Condition{Node: n.ID, Label: lower.LabelDefault}, p)
		}
	}

	// Dataflow facts sharpen the syntactic cases: an infeasible edge's
	// condition has frequency 0, and a branch with a single feasible label
	// takes it on every execution.
	if a.Flow != nil {
		for _, e := range a.Flow.Infeasible {
			set(cdg.Condition{Node: e.From, Label: e.Label}, 0)
		}
		for n, lbl := range a.Flow.ConstBranch {
			set(cdg.Condition{Node: n, Label: lbl}, 1)
		}
	}
	return out
}

// Exact returns the subset of static frequencies that hold exactly on
// every run, including runs cut short by STOP: conditions pinned to 0 by
// proven edge infeasibility and to 1 by a branch with a single feasible
// label. A branch node's execution and its edge taking are recorded
// atomically by the interpreter, so FREQ(c) = 0 or 1 times exec(node) can
// never be off even for truncated runs — the counter planner may therefore
// drop counters for these conditions unconditionally. Trip-derived
// fractional frequencies are deliberately excluded (they are exact only
// for runs that complete).
func Exact(a *analysis.Proc) map[cdg.Condition]float64 {
	out := make(map[cdg.Condition]float64)
	if a.Flow == nil {
		return out
	}
	known := map[cdg.Condition]bool{}
	for _, c := range a.FCDG.Conditions() {
		known[c] = true
	}
	for _, e := range a.Flow.Infeasible {
		if c := (cdg.Condition{Node: e.From, Label: e.Label}); known[c] {
			out[c] = 0
		}
	}
	for n, lbl := range a.Flow.ConstBranch {
		if c := (cdg.Condition{Node: n, Label: lbl}); known[c] {
			out[c] = 1
		}
	}
	return out
}

// ConstTripTests returns every DO-test node of a that is proven to run a
// compile-time-constant trip count with no conditional loop exits, mapped
// to that trip count. These are exactly the loops whose test branch is
// deterministic: per loop entry the test takes its T label trip times and
// its F label once, with zero variance. The estimator (core) uses this set
// to price such tests as deterministic selections rather than Bernoulli
// branches, so fully constant loops carry VAR = 0, matching Section 5's
// preheader case with a known trip count.
func ConstTripTests(a *analysis.Proc) map[cfg.NodeID]int64 {
	out := make(map[cfg.NodeID]int64)
	gotoExits := GotoExits(a)
	for _, n := range a.P.G.Nodes() {
		op, ok := n.Payload.(lower.OpDoTest)
		if !ok {
			continue
		}
		if trip, ok := constTrip(a, n.ID, op, gotoExits); ok {
			out[n.ID] = trip
		}
	}
	return out
}

// constTrip reports whether the DO test at node id belongs to an exit-free
// loop whose trip count is known at compile time — by syntactic constant
// folding of the bounds, or failing that by the dataflow framework's
// flow-proven constant trips — and the trip count if so. gotoExits is
// GotoExits(a).
func constTrip(a *analysis.Proc, id cfg.NodeID, op lower.OpDoTest, gotoExits []bool) (int64, bool) {
	if !a.Intervals.IsHeader(id) || gotoExits[id] {
		return 0, false
	}
	if b, ok := FoldDo(a.P.Unit, op.L); ok {
		return b.Trip, true
	}
	if a.Flow != nil {
		if trip, ok := a.Flow.ConstTrips[id]; ok {
			return trip, true
		}
	}
	return 0, false
}

// DoBounds are the constant bounds of a counted DO loop and its trip
// count.
type DoBounds struct{ Lo, Hi, Step, Trip int64 }

// FoldDo folds the bounds of DO loop l to compile-time constants and
// returns them with the loop's trip count, MAX(0, (hi-lo+step)/step) as
// interp.TripCount defines it. ok is false when a bound does not fold or
// the step is the constant 0.
func FoldDo(u *lang.Unit, l *lang.DoLoop) (b DoBounds, ok bool) {
	lo, okLo := lang.FoldInt(u, l.Lo)
	hi, okHi := lang.FoldInt(u, l.Hi)
	step, okStep := int64(1), true
	if l.Step != nil {
		step, okStep = lang.FoldInt(u, l.Step)
	}
	if !okLo || !okHi || !okStep {
		return DoBounds{}, false
	}
	trip, msg := interp.TripCount(lo, hi, step)
	return DoBounds{Lo: lo, Hi: hi, Step: step, Trip: trip}, msg == ""
}

// GotoExits marks, indexed by node of a's extended graph, the loop
// headers whose interval has an exit other than the header's own F edge.
// Exit-free means every postexit of the interval is fed by the test
// itself; any other source is a GOTO out of the loop. This is the paper's
// FCDG test "just look for an edge to a POSTEXIT node" (from a node other
// than the header), and its "no conditional loop exits".
func GotoExits(a *analysis.Proc) []bool {
	out := make([]bool, a.Ext.G.MaxID()+1)
	for _, pe := range a.Ext.Postexits {
		h := a.Ext.ExitedInterval[pe]
		for _, e := range a.Ext.G.InEdges(pe) {
			if !e.Pseudo() && e.From != h {
				out[h] = true
			}
		}
	}
	return out
}

// Program analyzes every procedure of an analyzed program.
func Program(p *analysis.Program) map[string]map[cdg.Condition]float64 {
	out := make(map[string]map[cdg.Condition]float64, len(p.Procs))
	for name, a := range p.Procs {
		out[name] = Analyze(a)
	}
	return out
}
