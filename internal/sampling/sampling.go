// Package sampling simulates the profiling approach Section 3 argues
// against: run-time sampling of the program counter. "The output of a
// sampling-based profiler is of the form 'Procedure P was found executing
// x% of the time' ... However, the coarse granularity of the sampling
// interval makes this approach unsuitable for determining execution
// frequencies of individual statements, or even small procedures."
//
// The simulator samples the executing node every `interval` machine cycles
// of the simulated trace and tallies hits per procedure and per node. The
// companion ExactShares computes the true time share of each procedure from
// the exact counts, so experiments can quantify the sampling error the
// paper alludes to — and contrast it with counter-based profiling, which
// recovers exact frequencies at comparable overhead.
package sampling

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lower"
)

// Result is one sampled run.
type Result struct {
	// Interval is the sampling period in cycles.
	Interval float64
	// ByProc counts samples that landed in each procedure.
	ByProc map[string]int64
	// ByNode counts samples per (procedure, node).
	ByNode map[string]map[cfg.NodeID]int64
	// Total is the number of samples taken.
	Total int64
	// Cost is the run's total trace cost.
	Cost float64
}

// Run executes the program once, sampling every interval cycles. The
// OnNodeCost sampling hook runs on the tree-walker whatever opt.Engine
// selects, so sampled profiles are engine-independent.
func Run(res *lower.Result, m cost.Model, interval float64, opt interp.Options) (*Result, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("sampling: interval must be positive, got %g", interval)
	}
	r := &Result{
		Interval: interval,
		ByProc:   make(map[string]int64),
		ByNode:   make(map[string]map[cfg.NodeID]int64),
	}
	next := interval
	opt.Model = &m
	prev := opt.OnNodeCost
	opt.OnNodeCost = func(p *lower.Proc, n cfg.NodeID, costSoFar float64) {
		if prev != nil {
			prev(p, n, costSoFar)
		}
		// The node "occupies" the trace up to costSoFar; every sampling
		// tick it covers charges one sample to it.
		for costSoFar >= next {
			r.ByProc[p.G.Name]++
			if r.ByNode[p.G.Name] == nil {
				r.ByNode[p.G.Name] = make(map[cfg.NodeID]int64)
			}
			r.ByNode[p.G.Name][n]++
			r.Total++
			next += interval
		}
	}
	run, err := interp.Run(res, opt)
	if err != nil {
		return nil, err
	}
	r.Cost = run.Cost
	return r, nil
}

// Share returns the sampled time fraction attributed to proc (0 when no
// samples were taken at all).
func (r *Result) Share(proc string) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.ByProc[proc]) / float64(r.Total)
}

// ExactShares computes each procedure's true self-time share of a run:
// the sum over its nodes of (executions × node cost), divided by the total
// trace cost. Derived from the interpreter's exact counts — the reference
// the sampled shares are compared against.
func ExactShares(res *lower.Result, m cost.Model, run *interp.Result) map[string]float64 {
	shares := make(map[string]float64, len(res.Procs))
	total := 0.0
	for name, p := range res.Procs {
		tab := m.Table(p)
		counts := run.ByProc[name]
		self := 0.0
		for _, n := range p.G.Nodes() {
			self += float64(counts.Node[n.ID]) * tab[n.ID]
		}
		shares[name] = self
		total += self
	}
	if total > 0 {
		for name := range shares {
			shares[name] /= total
		}
	}
	return shares
}

// WorstError returns the largest |sampled − exact| share over all
// procedures, with the offending procedure name.
func (r *Result) WorstError(exact map[string]float64) (string, float64) {
	worstName, worst := "", 0.0
	names := make([]string, 0, len(exact))
	for name := range exact {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if d := abs(r.Share(name) - exact[name]); d > worst {
			worstName, worst = name, d
		}
	}
	return worstName, worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
