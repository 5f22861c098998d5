package profiler

import (
	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/ecfg"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lower"
)

// ExactTotals extracts the ground-truth TOTAL_FREQ of every FCDG control
// condition of procedure a from an (uninstrumented) run — what a perfect
// profiler would report. It validates counter recovery in tests and serves
// as the reference profile.
//
// The mapping from run counts to conditions: (START,U) is the number of
// procedure activations; a preheader's loop condition is the header node's
// execution count (Definition 3: header executions per interval
// execution); every original-node condition (u,l) is the number of times
// the branch labelled l left u; pseudo conditions are zero.
func ExactTotals(a *analysis.Proc, run *interp.Result) freq.Totals {
	totals := make(freq.Totals)
	counts := run.ByProc[a.P.G.Name]
	for _, c := range a.FCDG.Conditions() {
		switch {
		case c.Label.IsPseudo():
			totals[c] = 0
		case c.Node == a.Ext.Start:
			totals[c] = float64(counts.Activations)
		case a.Ext.G.Node(c.Node).Type == cfg.Preheader:
			h := a.Ext.HeaderOf[c.Node]
			totals[c] = float64(run.NodeCount(a.P, h))
		default:
			totals[c] = float64(run.LabelCount(a.P, c.Node, c.Label))
		}
	}
	return totals
}

// SimulateReadings produces the values the plan's counters would hold after
// the given run, extracted from the run's exact counts. This is equivalent
// to compiling the counters in: a CondCounter increments exactly when its
// condition's branch is taken, a BlockCounter when its block executes, and
// a TripAdd adds each computed trip count (= the number of times the test's
// T edge is taken). On a STOP-terminated run the TripAdd value models the
// instrumented binary's dump-time correction — the STOP handler subtracts
// each live DO register's remainder from its counter, leaving exactly the
// body takings that actually happened.
func (p *Plan) SimulateReadings(run *interp.Result) Readings {
	out := make(Readings, len(p.Counters))
	for i, c := range p.Counters {
		out[i] = p.counterValue(i, c, run)
	}
	return out
}

func (p *Plan) counterValue(i int, c Counter, run *interp.Result) float64 {
	a := p.A
	switch c.Kind {
	case BlockCounter:
		return float64(run.NodeCount(a.P, c.Node))
	case TripAdd:
		// Sum of trip counts = number of body entries = takings of the
		// test's T edge.
		if test := p.recovery().tripTest[i]; test != cfg.None {
			return float64(run.LabelCount(a.P, test, cfg.True))
		}
		return 0
	default:
		cond := c.Cond
		switch {
		case cond.Node == a.Ext.Start:
			return float64(run.ByProc[a.P.G.Name].Activations)
		case a.Ext.G.Node(cond.Node).Type == cfg.Preheader:
			return float64(run.NodeCount(a.P, a.Ext.HeaderOf[cond.Node]))
		default:
			return float64(run.LabelCount(a.P, cond.Node, cond.Label))
		}
	}
}

func initTest(a *analysis.Proc, initNode cfg.NodeID) (cfg.NodeID, bool) {
	for _, e := range a.P.G.OutEdges(initNode) {
		return e.To, true // DoInit has exactly one successor: its test
	}
	return cfg.None, false
}

// Overhead summarizes the dynamic cost an instrumented run would add.
type Overhead struct {
	// Increments is the number of counter-increment operations executed.
	Increments int64
	// TripAdds is the number of add-trip-count operations executed.
	TripAdds int64
	// Cost is the total overhead under the given cost model.
	Cost float64
}

// MeasureOverhead computes the instrumentation overhead of the plan over a
// run, under cost model m.
func (p *Plan) MeasureOverhead(run *interp.Result, m cost.Model) Overhead {
	var o Overhead
	for i, c := range p.Counters {
		v := int64(p.counterEvents(i, c, run))
		if c.Kind == TripAdd {
			o.TripAdds += v
		} else {
			o.Increments += v
		}
	}
	o.Cost = float64(o.Increments)*m.CounterUpdate + float64(o.TripAdds)*m.CounterAdd
	return o
}

// counterEvents is the number of update operations a counter performs
// during the run (for TripAdd that is one add per loop entry, not the
// summed value).
func (p *Plan) counterEvents(i int, c Counter, run *interp.Result) float64 {
	if c.Kind == TripAdd {
		return float64(run.NodeCount(p.A.P, c.Node)) // one add per DoInit execution
	}
	return p.counterValue(i, c, run)
}

// ProgramProfile profiles a whole program: per-procedure totals keyed by
// unit name.
type ProgramProfile map[string]freq.Totals

// Plans holds one smart counter placement per procedure. A placement
// depends only on the analysis, so one Plans value serves every run of
// the same program; profiling with it is read-only and safe to share
// across concurrent runs.
type Plans map[string]*Plan

// BuildPlans computes the flow-aware smart placement of every procedure
// once (PlanFlow: the smart scheme plus dataflow-derived counter drops).
func BuildPlans(prog *analysis.Program) (Plans, error) { return BuildPlansPrebuilt(prog, nil) }

// Profile recovers full per-procedure totals from the simulated counter
// readings of one run. The run must come from the same lowered program
// the plans were built for. STOP-terminated runs recover exactly: the
// run's stop record caps in-flight loops at their observed partial trips.
func (pl Plans) Profile(run *interp.Result) (ProgramProfile, error) {
	out := make(ProgramProfile, len(pl))
	for name, plan := range pl {
		totals, err := plan.RecoverRun(run)
		if err != nil {
			return nil, err
		}
		out[name] = totals
	}
	return out, nil
}

// ProfileProgram runs smart plans over every procedure of an analyzed
// program and recovers full totals from the simulated counter readings.
// The run must come from the same lowered program. Callers profiling the
// same program repeatedly should BuildPlans once and use Plans.Profile.
func ProfileProgram(prog *analysis.Program, run *interp.Result) (ProgramProfile, error) {
	plans, err := BuildPlans(prog)
	if err != nil {
		return nil, err
	}
	return plans.Profile(run)
}

// LoopVariance extracts, for every loop condition of a procedure, the
// empirical E[F²] second moment of the per-entry iteration count — the
// paper's Section 5 refinement ("the variance term can also be computed by
// obtaining E(FREQ(u,l)²) from execution profile information"). It needs
// per-entry samples, which the simulated profile cannot reconstruct from
// plain counters, so it is collected by a separate instrumented run with an
// OnNode hook; see VarianceProfile in the estimate package tests.
//
// Here we derive it exactly for DO loops whose trip count is constant per
// entry (then E[F²] = (Σtrip)²/entries² ... degenerate) — the general case
// lives in VarianceRun.
func LoopVariance(a *analysis.Proc, perEntryCounts map[cfg.NodeID][]int64) map[cdg.Condition]float64 {
	out := make(map[cdg.Condition]float64)
	for h, samples := range perEntryCounts {
		ph, ok := a.Ext.Preheader[h]
		if !ok || len(samples) == 0 {
			continue
		}
		var sum, sumsq float64
		for _, s := range samples {
			sum += float64(s)
			sumsq += float64(s) * float64(s)
		}
		n := float64(len(samples))
		mean := sum / n
		out[cdg.Condition{Node: ph, Label: ecfg.LoopBodyLabel}] = sumsq/n - mean*mean
	}
	return out
}

// VarianceRun executes the program once more with lightweight
// instrumentation that records, for every loop header, the per-entry
// header-execution counts, and returns VAR(FREQ) per loop condition and
// per procedure. This is the optional extra profile Section 5 case 1
// mentions; it costs one extra counter write per loop entry and exit.
// Recursive procedures are not supported (their activations interleave and
// the per-entry state would mix), matching the paper's scope.
func VarianceRun(prog *analysis.Program, opt interp.Options) (map[string]map[cdg.Condition]float64, error) {
	type loopState struct {
		inEntry map[cfg.NodeID]int64 // header -> count this activation
	}
	// Per proc, per header: samples of header executions per interval
	// entry. We detect entries by watching preheader-level structure:
	// a header execution following a non-body node is a new entry. Rather
	// than tracking predecessors, we track per-activation: when the
	// header's interval is entered (header executes while its remaining
	// count says "not inside"), a new sample opens; when control reaches a
	// node outside the interval, open samples for that interval close.
	samples := make(map[string]map[cfg.NodeID][]int64)
	open := make(map[string]*loopState)
	for name := range prog.Procs {
		samples[name] = make(map[cfg.NodeID][]int64)
		open[name] = &loopState{inEntry: make(map[cfg.NodeID]int64)}
	}
	prev := opt.OnNode
	opt.OnNode = func(p *lower.Proc, n cfg.NodeID, trip int64) {
		if prev != nil {
			prev(p, n, trip)
		}
		a := prog.Procs[p.G.Name]
		if a == nil {
			return
		}
		st := open[p.G.Name]
		iv := a.Intervals
		// Close any open sample whose interval does not contain n.
		for h, cnt := range st.inEntry {
			if !iv.Contains(h, n) {
				samples[p.G.Name][h] = append(samples[p.G.Name][h], cnt)
				delete(st.inEntry, h)
			}
		}
		if iv.IsHeader(n) {
			st.inEntry[n]++
		}
	}
	if _, err := interp.Run(prog.Res, opt); err != nil {
		return nil, err
	}
	out := make(map[string]map[cdg.Condition]float64, len(prog.Procs))
	for name, a := range prog.Procs {
		// Close samples left open at program end.
		for h, cnt := range open[name].inEntry {
			samples[name][h] = append(samples[name][h], cnt)
		}
		out[name] = LoopVariance(a, samples[name])
	}
	return out, nil
}
