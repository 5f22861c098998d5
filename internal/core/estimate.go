// Package core implements the paper's primary contribution: computing the
// average execution time TIME(u), the second moment E[TIME(u)²], the
// variance VAR(u) and the standard deviation STD_DEV(u) of every node of a
// program, by a single linear-time bottom-up traversal of each procedure's
// forward control dependence graph (Sections 4 and 5), combined with a
// bottom-up traversal of the call graph (rule 2: COST of a call node is the
// callee's TIME(START), assumed independent of the call site).
//
// The two traversal rules:
//
//	TIME(u) = COST(u) + Σ over labels l of FREQ(u,l) × Σ over C(u,l) of TIME(v)
//
// and, for variance, case 1 (u is a preheader, loop frequency F = FREQ(u,l),
// with optional VAR(F) from a second-moment profile):
//
//	VAR(u) = F² × ΣVAR(v)  +  VAR(F) × (ΣTIME(v))²  +  VAR(F) × ΣVAR(v)
//
// and case 2 (u is a branch node; VAR(COST(u)) = 0 except for calls, where
// the callee's variance may be propagated):
//
//	VAR(u) = VAR(COST(u)) + E[TIME_C(u)²] − E[TIME_C(u)]²
//	E[TIME_C(u)²] = Σ_l FREQ(u,l) × ( Σ_{C(u,l)} VAR(v) + (Σ_{C(u,l)} TIME(v))² )
//
// Recursive procedures — which the paper defers to [Sar87, Sar89] — are
// handled by observing that TIME(START) of each member of a call-graph
// strongly connected component is affine in the TIME(START) of the other
// members (the coefficient being the call node's NODE_FREQ), so the
// component's times solve a small linear system (I − M)·T = a; expected
// times are finite exactly when the spectral radius of M is below one,
// which Gaussian elimination detects as a non-positive pivot. Variances are
// solved the same way under an independence assumption between successive
// recursive activations.
package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/ecfg"
	"repro/internal/freq"
	"repro/internal/lower"
	"repro/internal/report"
	"repro/internal/staticfreq"
)

// NodeEstimate is the [COST, TIME, E[T²], VAR, STD_DEV] tuple Figure 3
// attaches to every FCDG node.
type NodeEstimate struct {
	Cost         float64
	Time         float64
	SecondMoment float64 // E[TIME²] = VAR + TIME²
	Var          float64
	StdDev       float64
}

// ProcEstimate holds the estimates of one procedure.
type ProcEstimate struct {
	A    *analysis.Proc
	Freq *freq.Table
	// Node is indexed directly by NodeID (dense over the extended CFG;
	// index 0 and nodes outside the FCDG hold zero tuples).
	Node []NodeEstimate
	// Time and Var are TIME(START) and VAR(START): the average execution
	// time and variance of one invocation.
	Time, Var float64
	// Diags collects numerical-health findings of the bottom-up pass —
	// currently negative-variance cancellation beyond the relative
	// tolerance (see the clamp in estimateProc).
	Diags []report.Diagnostic
}

// StdDev is the standard deviation of one invocation.
func (p *ProcEstimate) StdDev() float64 { return math.Sqrt(math.Max(0, p.Var)) }

// ProgramEstimate holds the whole-program result.
type ProgramEstimate struct {
	Prog  *analysis.Program
	Procs map[string]*ProcEstimate
	// Main is the PROGRAM unit's estimate; its Time is the estimated
	// execution time of the whole program.
	Main *ProcEstimate
}

// Diagnostics collects the numerical-health diagnostics of every
// procedure's estimate, sorted by procedure and node.
func (p *ProgramEstimate) Diagnostics() []report.Diagnostic {
	var out []report.Diagnostic
	for _, pe := range p.Procs {
		out = append(out, pe.Diags...)
	}
	report.Sort(out)
	return out
}

// Options tune the estimator.
type Options struct {
	// FreqVar supplies VAR(FREQ) per loop condition per procedure: the
	// variance of the loop moments profiler.VarianceRun returns, as
	// database.DB.LoopVariance derives it from the moments summed over
	// runs. Nil assumes zero loop-frequency variance, matching the paper's
	// Figure 3 simplification.
	FreqVar map[string]map[cdg.Condition]float64
	// PropagateCallVariance, when true, sets VAR(COST(u)) of a call node
	// to the callee's VAR(START) rather than the paper's simplifying 0.
	PropagateCallVariance bool
	// StaticFreq supplies compile-time FREQ values per procedure (from
	// staticfreq.Program); they take precedence over the profile.
	StaticFreq map[string]map[cdg.Condition]float64
	// DeterministicTests marks extra DO-test nodes, per procedure, whose
	// branch is proven deterministic (e.g. by a counter plan's
	// RuleDoConstTrip rule, profiler.Plan.ConstTripTests). EstimateProgram
	// always unions this set with staticfreq.ConstTripTests, so it only
	// matters for proofs the static analysis cannot see.
	DeterministicTests map[string]map[cfg.NodeID]bool
	// BernoulliDoTests restores the pre-fix model that prices every DO
	// test as an i.i.d. Bernoulli branch, assigning nonzero VAR even to
	// loops with a compile-time-constant trip count. Kept for A/B studies
	// of the deviation; the default (false) treats proven constant-trip
	// tests as deterministic, matching Section 5's known-trip-count case.
	BernoulliDoTests bool
}

// EstimateProgram computes estimates for every procedure, visiting the call
// graph bottom-up. profile supplies TOTAL_FREQ per procedure, costs the
// local COST(u) table per procedure (call nodes: linkage overhead only —
// the callee's time is added here per rule 2).
func EstimateProgram(prog *analysis.Program, profile map[string]freq.Totals,
	costs map[string]cost.Table, opt Options) (*ProgramEstimate, error) {

	return estimateProgram(prog, profile, costs, deterministicTests(prog, opt), opt)
}

// deterministicTests returns the DO tests EstimateProgram prices as
// deterministic, per procedure: the static analysis' proofs unioned with
// any caller-supplied ones (e.g. a counter plan's RuleDoConstTrip rules).
// With BernoulliDoTests set the union is left empty, restoring the old
// model.
func deterministicTests(prog *analysis.Program, opt Options) map[string]map[cfg.NodeID]bool {
	det := make(map[string]map[cfg.NodeID]bool, len(prog.Procs))
	for name, a := range prog.Procs {
		m := make(map[cfg.NodeID]bool)
		if !opt.BernoulliDoTests {
			for id := range staticfreq.ConstTripTests(a) {
				m[id] = true
			}
			for id, ok := range opt.DeterministicTests[name] {
				if ok {
					m[id] = true
				}
			}
		}
		det[name] = m
	}
	return det
}

// estimateProgram is EstimateProgram with the deterministic DO tests
// already derived; det is only read.
func estimateProgram(prog *analysis.Program, profile map[string]freq.Totals,
	costs map[string]cost.Table, det map[string]map[cfg.NodeID]bool, opt Options) (*ProgramEstimate, error) {

	out := &ProgramEstimate{Prog: prog, Procs: make(map[string]*ProcEstimate)}

	// Per-proc frequency tables first.
	freqs := make(map[string]*freq.Table, len(prog.Procs))
	for name, a := range prog.Procs {
		totals, ok := profile[name]
		if !ok {
			return nil, fmt.Errorf("core: no profile for procedure %s", name)
		}
		tab, err := freq.ComputeOpts(a.FCDG, totals, freq.Opts{Static: opt.StaticFreq[name]})
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		freqs[name] = tab
	}

	// calleeTime/calleeVar accumulate solved TIME(START)/VAR(START).
	calleeTime := make(map[string]float64)
	calleeVar := make(map[string]float64)

	for _, comp := range prog.BottomUp {
		recursive := len(comp) > 1
		if !recursive {
			name := comp[0]
			for _, callee := range prog.Res.CallGraph[name] {
				if callee == name {
					recursive = true
				}
			}
		}
		if !recursive {
			name := comp[0]
			pe := estimateProc(prog.Procs[name], freqs[name], costs[name], calleeTime, calleeVar, det[name], opt)
			out.Procs[name] = pe
			calleeTime[name] = pe.Time
			calleeVar[name] = pe.Var
			continue
		}
		if err := solveRecursive(prog, comp, freqs, costs, calleeTime, calleeVar, det, opt, out); err != nil {
			return nil, err
		}
	}
	if prog.Res.Main != nil {
		out.Main = out.Procs[prog.Res.Main.G.Name]
	}
	return out, nil
}

// estimateProc runs the bottom-up FCDG pass of Sections 4 and 5 for one
// procedure, with callee times/variances taken from the given maps. det
// marks DO-test nodes with a proven constant trip count and no conditional
// exits: their branch outcome is a deterministic function of the iteration
// number, not an i.i.d. Bernoulli draw.
func estimateProc(a *analysis.Proc, tab *freq.Table, procCosts cost.Table,
	calleeTime, calleeVar map[string]float64, det map[cfg.NodeID]bool, opt Options) *ProcEstimate {

	pe := &ProcEstimate{A: a, Freq: tab, Node: make([]NodeEstimate, a.Ext.G.MaxID()+1)}
	f := a.FCDG
	topo := f.Topo()

	for i := len(topo) - 1; i >= 0; i-- {
		u := topo[i]
		baseCost := procCosts.At(u)
		costVar := 0.0
		if op, ok := callOp(a, u); ok {
			baseCost += calleeTime[op.S.Name]
			if opt.PropagateCallVariance {
				costVar = calleeVar[op.S.Name]
			}
		}

		node := a.Ext.G.Node(u)
		est := NodeEstimate{Cost: baseCost}
		if node.Type == cfg.Preheader {
			// Case 1: the only label of interest is the loop-body label;
			// pseudo labels have zero frequency and contribute nothing.
			var F, sumT, sumV float64
			for _, ci := range f.NodeConds(u) {
				if ci.Cond.Label != ecfg.LoopBodyLabel {
					continue
				}
				F = tab.Freq.AtIndex(ci.Index)
				for _, v := range ci.Children {
					sumT += pe.Node[v].Time
					sumV += pe.Node[v].Var
				}
			}
			varF := 0.0
			if opt.FreqVar != nil {
				varF = opt.FreqVar[a.P.G.Name][cdg.Condition{Node: u, Label: ecfg.LoopBodyLabel}]
			}
			est.Time = F * sumT
			est.Var = F*F*sumV + varF*sumT*sumT + varF*sumV
		} else if det[u] {
			// Deterministic branch: the node is a DO test with a proven
			// constant trip count and no conditional exits, so per loop
			// entry it takes its T label exactly trip times and F once —
			// label selection contributes no variance. The Bernoulli
			// spread term E[T_C²] − E[T_C]² of case 2 is dropped; the
			// children's own variances accumulate with the same F² weight
			// the preheader rule (case 1 with VAR(F)=0) uses, keeping the
			// two rules consistent under loop composition. A fully
			// constant loop therefore reports VAR = 0 exactly.
			var timeC, varC float64
			for _, ci := range f.NodeConds(u) {
				F := tab.Freq.AtIndex(ci.Index)
				if F == 0 {
					continue
				}
				var sumT, sumV float64
				for _, v := range ci.Children {
					sumT += pe.Node[v].Time
					sumV += pe.Node[v].Var
				}
				timeC += F * sumT
				varC += F * F * sumV
			}
			est.Time = baseCost + timeC
			est.Var = costVar + varC
		} else {
			// Case 2.
			var timeC, eTC2 float64
			for _, ci := range f.NodeConds(u) {
				F := tab.Freq.AtIndex(ci.Index)
				if F == 0 {
					continue
				}
				var sumT, sumV float64
				for _, v := range ci.Children {
					sumT += pe.Node[v].Time
					sumV += pe.Node[v].Var
				}
				timeC += F * sumT
				eTC2 += F * (sumV + sumT*sumT)
			}
			est.Time = baseCost + timeC
			est.Var = costVar + eTC2 - timeC*timeC
		}
		if est.Var < 0 {
			// Clamp any negative variance — it can only arise from
			// floating-point cancellation in E[T²] − E[T]², whose error
			// scales with the magnitude of the terms, i.e. with Time².
			// Cancellation beyond that relative tolerance is a numerical-
			// health problem worth surfacing, not silently absorbing.
			tol := 1e-9 * math.Max(1, est.Time*est.Time)
			if est.Var < -tol {
				pe.Diags = append(pe.Diags, report.Diagnostic{
					Severity: report.Warning,
					Pass:     "var-clamp",
					Proc:     a.P.G.Name,
					Node:     int(u),
					Message: fmt.Sprintf("VAR(%d) = %g is negative beyond the cancellation tolerance %g (TIME = %g); clamped to 0",
						u, est.Var, tol, est.Time),
					Hint: "second-moment cancellation lost more than 9 significant digits; check FREQ inputs for inconsistency",
				})
			}
			est.Var = 0
		}
		est.SecondMoment = est.Var + est.Time*est.Time
		est.StdDev = math.Sqrt(math.Max(0, est.Var))
		pe.Node[u] = est
	}
	root := pe.Node[f.Root]
	pe.Time, pe.Var = root.Time, root.Var
	return pe
}

func callOp(a *analysis.Proc, u cfg.NodeID) (lower.OpCall, bool) {
	n := a.Ext.G.Node(u)
	if n == nil {
		return lower.OpCall{}, false
	}
	op, ok := n.Payload.(lower.OpCall)
	return op, ok
}

// solveRecursive handles one recursive call-graph component: it extracts
// the affine dependence of each member's TIME (and VAR) on the other
// members' values by evaluation, solves the two linear systems, and then
// re-runs the node-level estimate with the solved values so per-node
// tuples are consistent.
func solveRecursive(prog *analysis.Program, comp []string, freqs map[string]*freq.Table,
	costs map[string]cost.Table, calleeTime, calleeVar map[string]float64,
	det map[string]map[cfg.NodeID]bool, opt Options, out *ProgramEstimate) error {

	n := len(comp)
	idx := make(map[string]int, n)
	for i, name := range comp {
		idx[name] = i
	}
	evalTime := func(member string, times map[string]float64) float64 {
		merged := make(map[string]float64, len(calleeTime)+n)
		for k, v := range calleeTime {
			merged[k] = v
		}
		for k, v := range times {
			merged[k] = v
		}
		pe := estimateProc(prog.Procs[member], freqs[member], costs[member], merged, calleeVar, det[member], opt)
		return pe.Time
	}

	// T_i = a_i + Σ_j M_ij T_j. Extract a (all zeros) and M (unit vectors).
	a := make([]float64, n)
	M := make([][]float64, n)
	zero := map[string]float64{}
	for _, name := range comp {
		zero[name] = 0
	}
	for i, name := range comp {
		a[i] = evalTime(name, zero)
		M[i] = make([]float64, n)
	}
	for j, other := range comp {
		probe := make(map[string]float64, n)
		for _, name := range comp {
			probe[name] = 0
		}
		probe[other] = 1
		for i, name := range comp {
			M[i][j] = evalTime(name, probe) - a[i]
		}
	}
	times, err := solveAffine(comp, a, M)
	if err != nil {
		return fmt.Errorf("core: recursive component %v has unbounded expected time: %w", comp, err)
	}
	for i, name := range comp {
		calleeTime[name] = times[i]
	}

	// Variances: with times fixed, VAR_i is affine in the member
	// variances (only when call variance propagation is on; otherwise the
	// system is diagonal and one evaluation suffices).
	evalVar := func(member string, vars map[string]float64) float64 {
		merged := make(map[string]float64, len(calleeVar)+n)
		for k, v := range calleeVar {
			merged[k] = v
		}
		for k, v := range vars {
			merged[k] = v
		}
		pe := estimateProc(prog.Procs[member], freqs[member], costs[member], calleeTime, merged, det[member], opt)
		return pe.Var
	}
	b := make([]float64, n)
	K := make([][]float64, n)
	for i, name := range comp {
		b[i] = evalVar(name, zero)
		K[i] = make([]float64, n)
	}
	if opt.PropagateCallVariance {
		for j, other := range comp {
			probe := make(map[string]float64, n)
			for _, name := range comp {
				probe[name] = 0
			}
			probe[other] = 1
			for i, name := range comp {
				K[i][j] = evalVar(name, probe) - b[i]
			}
		}
	}
	vars, err := solveAffine(comp, b, K)
	if err != nil {
		return fmt.Errorf("core: recursive component %v has unbounded variance: %w", comp, err)
	}
	for i, name := range comp {
		if vars[i] < 0 {
			vars[i] = 0
		}
		calleeVar[name] = vars[i]
	}

	// Final per-node pass with everything resolved.
	for _, name := range comp {
		pe := estimateProc(prog.Procs[name], freqs[name], costs[name], calleeTime, calleeVar, det[name], opt)
		// The root values must agree with the solved fixpoint; they can
		// drift only by floating-point error.
		pe.Time, pe.Var = calleeTime[name], calleeVar[name]
		out.Procs[name] = pe
	}
	return nil
}

// solveAffine solves x = a + M·x, i.e. (I − M)·x = a, by Gaussian
// elimination with partial pivoting. A singular or negative-definite
// system (spectral radius ≥ 1: expected recursion depth diverges) is an
// error; names[i] is the procedure owning unknown/equation i, so errors
// can say which member of the recursive component is at fault.
func solveAffine(names []string, a []float64, M [][]float64) ([]float64, error) {
	n := len(a)
	// Build A = I − M and rhs = a.
	A := make([][]float64, n)
	x := make([]float64, n)
	// perm tracks row swaps: row r of the reduced system is equation
	// perm[r] of the original, i.e. the TIME/VAR equation of names[perm[r]].
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			A[i][j] = -M[i][j]
		}
		A[i][i] += 1
		x[i] = a[i]
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		A[col], A[pivot] = A[pivot], A[col]
		x[col], x[pivot] = x[pivot], x[col]
		perm[col], perm[pivot] = perm[pivot], perm[col]
		if math.Abs(A[col][col]) < 1e-12 {
			// Column col is the unknown of names[col]; every remaining
			// equation has eliminated it, so its NODE_FREQ within the
			// component is unconstrained (spectral radius ≥ 1: each
			// activation spawns, on average, at least one more).
			return nil, fmt.Errorf("singular system: procedure %s (equation of %s, pivot column %d) has no finite solution; its expected recursive call count per activation is at least 1",
				names[col], names[perm[col]], col)
		}
		for r := col + 1; r < n; r++ {
			factor := A[r][col] / A[col][col]
			for c := col; c < n; c++ {
				A[r][c] -= factor * A[col][c]
			}
			x[r] -= factor * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= A[i][j] * x[j]
		}
		x[i] = sum / A[i][i]
	}
	for i := 0; i < n; i++ {
		if x[i] < 0 || math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil, fmt.Errorf("no finite non-negative solution for procedure %s (x[%d] = %g): expected recursive call count is at least 1",
				names[i], i, x[i])
		}
	}
	return x, nil
}
