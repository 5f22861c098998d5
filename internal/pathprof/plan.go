package pathprof

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/profiler"
)

// DefaultMaxPaths caps a procedure's path count: DAG chains of diamonds
// make NumPaths exponential in the block count, so real Ball–Larus
// implementations bound it and fall back per procedure. 2^20 keeps sparse
// counter maps and decode work small while covering the generated corpus.
const DefaultMaxPaths = 1 << 20

// Options configure plan building.
type Options struct {
	// MaxPaths caps NumPaths per procedure (0 = DefaultMaxPaths);
	// procedures over the cap fall back to their Sarkar plan.
	MaxPaths int64
}

// Plan is the Ball–Larus counterpart of profiler.Plan for one procedure:
// an instrumentation scheme plus exact recovery of condition totals. A
// procedure whose numbering overflows Options.MaxPaths keeps N == nil and
// recovers through its Sarkar Fallback instead — the hybrid mirrors
// production path profilers.
type Plan struct {
	A *analysis.Proc
	// N is the path numbering; nil when the procedure fell back.
	N *Numbering
	// Spec is the engine-facing instrumentation; nil when fallen back.
	Spec *interp.PathProcSpec
	// Fallback is the procedure's Sarkar plan, used when N is nil.
	Fallback *profiler.Plan
}

// Instrumented reports whether the procedure is path-instrumented (vs
// fallen back to its Sarkar plan).
func (p *Plan) Instrumented() bool { return p.N != nil }

// NumCounters is the plan's static counter-space size: NumPaths for an
// instrumented procedure, the Sarkar counter count otherwise.
func (p *Plan) NumCounters() int64 {
	if p.N != nil {
		return p.N.NumPaths
	}
	return int64(p.Fallback.NumCounters())
}

// Plans holds one path plan per procedure plus the whole-program spec.
// Like profiler.Plans, a Plans value depends only on the analysis and is
// read-only after construction, so it is safe to share across concurrent
// runs.
type Plans struct {
	ByProc map[string]*Plan
	Opts   Options

	spec *interp.PathSpec
}

// BuildPlans numbers every procedure of an analyzed program, building the
// Sarkar fallback plans itself. Callers that already hold profiler plans
// (e.g. core.Pipeline) should use BuildPlansWith to avoid rebuilding them.
func BuildPlans(prog *analysis.Program, opts Options) (*Plans, error) {
	sk, err := profiler.BuildPlans(prog)
	if err != nil {
		return nil, err
	}
	return BuildPlansWith(prog, sk, opts)
}

// BuildPlansWith is BuildPlans reusing prebuilt Sarkar plans as fallbacks.
func BuildPlansWith(prog *analysis.Program, fallback profiler.Plans, opts Options) (*Plans, error) {
	pl := &Plans{
		ByProc: make(map[string]*Plan, len(prog.Procs)),
		Opts:   opts,
		spec:   &interp.PathSpec{Procs: make(map[string]*interp.PathProcSpec)},
	}
	for name, a := range prog.Procs {
		fb := fallback[name]
		if fb == nil {
			return nil, fmt.Errorf("pathprof: no fallback plan for %s", name)
		}
		p := &Plan{A: a, Fallback: fb}
		n, err := New(a.P.G, backEdges(a), opts.MaxPaths)
		switch {
		case err == nil:
			p.N = n
			p.Spec = &interp.PathProcSpec{
				NumPaths: n.NumPaths,
				Inc:      n.Inc,
				Bump:     n.Bump,
				Reset:    n.Reset,
			}
			pl.spec.Procs[name] = p.Spec
		case isOverflow(err):
			// Keep the Sarkar fallback; the procedure runs uninstrumented.
		default:
			return nil, err
		}
		pl.ByProc[name] = p
	}
	return pl, nil
}

func isOverflow(err error) bool { return errors.Is(err, ErrTooManyPaths) }

// backEdges collects every interval back edge of the procedure, headers in
// ascending ID order and edges in graph order per header — the
// deterministic order the numbering's dummy edges follow.
func backEdges(a *analysis.Proc) []cfg.Edge {
	var out []cfg.Edge
	for _, h := range a.Intervals.Headers() {
		out = append(out, a.Intervals.BackEdges(h)...)
	}
	return out
}

// Spec returns the whole-program instrumentation for interp/vm runs. The
// returned value is shared and read-only.
func (pl *Plans) Spec() *interp.PathSpec { return pl.spec }

// Profile recovers full per-procedure condition totals from one
// instrumented run: path counts where the procedure is instrumented, the
// Sarkar fallback (readings simulated from the run's exact counts)
// elsewhere. It is the one-run case of SeedSum. The run must come from the
// same lowered program.
func (pl *Plans) Profile(run *interp.Result) (profiler.ProgramProfile, error) {
	s := pl.NewSeedSum(1)
	if err := s.Add(0, run); err != nil {
		return nil, err
	}
	return s.Profile()
}

// edgeTotals accumulates decoded per-edge counts plus the activation count
// for one procedure.
type edgeTotals struct {
	edge        [][]int64
	activations int64
}

// decodeRun decodes every recorded path (complete and partial) of the
// procedure, in one run or several summed, into exact edge counts and the
// activation count. Activations need no separate counter: every
// activation contributes exactly one path or partial whose decode starts
// at the real entry rather than an entry dummy.
func (p *Plan) decodeRun(pc *interp.PathCounts) (*edgeTotals, error) {
	g := p.A.P.G
	et := &edgeTotals{edge: make([][]int64, g.MaxID()+1)}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		et.edge[id] = make([]int64, len(g.OutEdges(id)))
	}
	var decErr error
	pc.Each(func(id, count int64) {
		if decErr != nil {
			return
		}
		path, err := p.N.DecodePath(id)
		if err != nil {
			decErr = err
			return
		}
		if path.FromEntry {
			et.activations += count
		}
		for _, e := range path.Edges {
			et.edge[e.From][e.K] += count
		}
		if !path.ToExit {
			// The trailing exit dummy attributes one taking of its back
			// edge; the successor path's entry dummy adds nothing.
			ref := p.N.backRef[path.Back]
			et.edge[ref.From][ref.K] += count
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	for _, part := range pc.Partials {
		path, err := p.N.DecodePartial(part.Node, part.Reg)
		if err != nil {
			return nil, err
		}
		if path.FromEntry {
			et.activations++
		}
		for _, e := range path.Edges {
			et.edge[e.From][e.K]++
		}
	}
	return et, nil
}

// nodeCount derives a node's execution count from edge counts: the sum of
// its taken in-edges, plus one activation's worth when it is the entry.
func (et *edgeTotals) nodeCount(g *cfg.Graph, n cfg.NodeID) int64 {
	total := int64(0)
	if n == g.Entry {
		total = et.activations
	}
	for _, ie := range g.InEdges(n) {
		for k, oe := range g.OutEdges(ie.From) {
			if oe == ie {
				total += et.edge[ie.From][k]
				break
			}
		}
	}
	return total
}

// labelCount sums the counts of node n's out-edges labelled l.
func (et *edgeTotals) labelCount(g *cfg.Graph, n cfg.NodeID, l cfg.Label) int64 {
	total := int64(0)
	for k, oe := range g.OutEdges(n) {
		if oe.Label == l {
			total += et.edge[n][k]
		}
	}
	return total
}

// Recover converts the run's recorded path counts back into the exact
// TOTAL_FREQ of every FCDG control condition — the same mapping
// profiler.ExactTotals applies to uninstrumented counts, sourced purely
// from path data. Fallback procedures recover through their Sarkar plan.
// It is the per-procedure reference SeedSum is tested against.
func (p *Plan) Recover(run *interp.Result) (freq.Totals, error) {
	if p.N == nil {
		return p.Fallback.RecoverRun(run)
	}
	pc, err := p.counts(run)
	if err != nil {
		return nil, err
	}
	return p.recoverCounts(pc)
}

// counts returns the run's path counts of the instrumented procedure.
func (p *Plan) counts(run *interp.Result) (*interp.PathCounts, error) {
	name := p.A.P.G.Name
	pc := run.Paths[name]
	if pc == nil {
		return nil, fmt.Errorf("pathprof: run has no path counts for %s (was it started with the plan's Spec?)", name)
	}
	return pc, nil
}

// recoverCounts decodes path counts, of one run or several summed, into
// the condition totals of the instrumented procedure.
func (p *Plan) recoverCounts(pc *interp.PathCounts) (freq.Totals, error) {
	et, err := p.decodeRun(pc)
	if err != nil {
		return nil, err
	}
	a := p.A
	g := a.P.G
	totals := make(freq.Totals)
	for _, c := range a.FCDG.Conditions() {
		switch {
		case c.Label.IsPseudo():
			totals[c] = 0
		case c.Node == a.Ext.Start:
			totals[c] = float64(et.activations)
		case a.Ext.G.Node(c.Node).Type == cfg.Preheader:
			h := a.Ext.HeaderOf[c.Node]
			totals[c] = float64(et.nodeCount(g, h))
		default:
			totals[c] = float64(et.labelCount(g, c.Node, c.Label))
		}
	}
	return totals, nil
}

// HotPath is one entry of a hot-path report: a decoded acyclic path and
// its completion count.
type HotPath struct {
	Proc  string
	ID    int64
	Count int64
	// Nodes is the decoded node sequence.
	Nodes []cfg.NodeID
	// FromEntry/ToExit mirror Path: where the path started and whether it
	// ran to the procedure's end (vs a back edge).
	FromEntry bool
	ToExit    bool
}

// HotPaths returns, for every instrumented procedure, its top-k most
// frequently completed paths, ordered by procedure name, then descending
// count, then ascending id. Partial paths are not ranked.
func (pl *Plans) HotPaths(run *interp.Result, k int) ([]HotPath, error) {
	if k <= 0 {
		k = 5
	}
	names := make([]string, 0, len(pl.ByProc))
	for name := range pl.ByProc {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []HotPath
	for _, name := range names {
		p := pl.ByProc[name]
		if p.N == nil {
			continue
		}
		pc := run.Paths[name]
		if pc == nil {
			continue
		}
		var hps []HotPath
		var decErr error
		pc.Each(func(id, count int64) {
			if decErr != nil || count == 0 {
				return
			}
			path, err := p.N.DecodePath(id)
			if err != nil {
				decErr = err
				return
			}
			hps = append(hps, HotPath{
				Proc: name, ID: id, Count: count,
				Nodes: path.Nodes, FromEntry: path.FromEntry, ToExit: path.ToExit,
			})
		})
		if decErr != nil {
			return nil, decErr
		}
		sort.Slice(hps, func(i, j int) bool {
			if hps[i].Count != hps[j].Count {
				return hps[i].Count > hps[j].Count
			}
			return hps[i].ID < hps[j].ID
		})
		if len(hps) > k {
			hps = hps[:k]
		}
		out = append(out, hps...)
	}
	return out, nil
}

// Economy summarizes the dynamic instrumentation cost of one run under the
// path plans: counter bumps executed (completed paths plus STOP partials)
// and the distinct counters touched. Fallback procedures contribute their
// Sarkar counter increments instead.
type Economy struct {
	// Bumps is the number of counter updates the instrumented run paid.
	Bumps int64
	// Touched is the number of distinct path counters with nonzero counts.
	Touched int64
	// FallbackProcs counts procedures recovered through the Sarkar plan.
	FallbackProcs int
}

// MeasureEconomy computes the run's dynamic counter economy.
func (pl *Plans) MeasureEconomy(run *interp.Result) Economy {
	var ec Economy
	for name, p := range pl.ByProc {
		if p.N == nil {
			ec.FallbackProcs++
			ov := p.Fallback.MeasureOverhead(run, cost.Model{})
			ec.Bumps += ov.Increments + ov.TripAdds
			continue
		}
		if pc := run.Paths[name]; pc != nil {
			b, t := pc.Bumps()
			ec.Bumps += b + int64(len(pc.Partials))
			ec.Touched += t
		}
	}
	return ec
}
