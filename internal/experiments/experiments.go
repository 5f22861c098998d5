// Package experiments regenerates the paper's evaluation artifacts:
//
//   - Figure 1: the example's statement-level control flow graph;
//   - Figure 2: its extended control flow graph;
//   - Figure 3: its forward control dependence graph annotated with
//     ⟨FREQ, TOTAL_FREQ⟩ per edge and [COST, TIME, E[T²], VAR, STD_DEV]
//     per node — including the headline TIME(START) = 920 and
//     STD_DEV(START) = 300;
//   - Table 1: sequential execution times with and without profiling
//     (original vs smart vs naive), compiler optimization ON and OFF, for
//     the LOOPS and SIMPLE benchmarks;
//   - the Section 3 counter ablation behind Table 1 (static counter counts
//     and dynamic increment counts per scheme).
//
// Each experiment returns a structured result plus a Format method that
// renders it the way the paper presents it. cmd/figures and cmd/table1 are
// thin wrappers; bench_test.go drives the same entry points.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/livermore"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/profiler"
	"repro/internal/simplecfd"
)

// Figure1 returns the example CFG (hand-built per the paper) and its
// rendering.
func Figure1() (*cfg.Graph, string) {
	g := paperex.CFG()
	return g, "Figure 1: control flow graph of the example\n\n" + g.String()
}

// Figure2 builds the ECFG of the example and renders it.
func Figure2() (*analysis.Proc, string, error) {
	a, err := analyzeExample()
	if err != nil {
		return nil, "", err
	}
	return a, "Figure 2: extended control flow graph (ECFG)\n\n" + a.Ext.G.String(), nil
}

// Figure3Result carries everything Figure 3 prints.
type Figure3Result struct {
	A      *analysis.Proc
	Freq   *freq.Table
	Totals freq.Totals
	Est    *core.ProcEstimate
}

// Figure3 reproduces the paper's Figure 3 from the full pipeline: run the
// example program, profile it with optimized counters, recover frequencies
// and estimate with the paper's COST assignment (IF = 1, CALL = 100,
// everything else 0).
func Figure3() (*Figure3Result, error) {
	p, err := core.Load(paperex.Source)
	if err != nil {
		return nil, err
	}
	profile, _, err := p.Profile(interp.Options{}, 1)
	if err != nil {
		return nil, err
	}
	a := p.An.Procs["EXMPL"]
	exCosts := cost.NewTable(a.P.G.MaxID())
	for id, s := range a.P.Stmt {
		switch {
		case strings.HasPrefix(s.Text(), "IF"):
			exCosts[id] = 1
		case strings.HasPrefix(s.Text(), "CALL"):
			exCosts[id] = 100
		}
	}
	costs := map[string]cost.Table{"EXMPL": exCosts, "FOO": nil}
	est, err := core.EstimateProgram(p.An, map[string]freq.Totals(profile), costs, core.Options{})
	if err != nil {
		return nil, err
	}
	tab, err := freq.Compute(a.FCDG, profile["EXMPL"])
	if err != nil {
		return nil, err
	}
	return &Figure3Result{A: a, Freq: tab, Totals: profile["EXMPL"], Est: est.Procs["EXMPL"]}, nil
}

// Format renders Figure 3: the FCDG with the paper's edge and node tuples.
func (r *Figure3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3: forward control dependence graph (FCDG)\n")
	b.WriteString("edges:  ⟨FREQ, TOTAL_FREQ⟩     nodes: [COST, TIME, E[T²], VAR, STD_DEV]\n\n")
	for _, u := range r.A.FCDG.Topo() {
		e := r.Est.Node[u]
		fmt.Fprintf(&b, "%3d %-26s [%g, %g, %g, %g, %g]\n",
			u, r.A.Ext.G.Node(u).Name(), e.Cost, e.Time, e.SecondMoment, e.Var, e.StdDev)
		for _, edge := range r.A.FCDG.OutEdges(u) {
			c := cdg.Condition{Node: u, Label: edge.Label}
			fmt.Fprintf(&b, "      -%s-> %-3d  <%g, %g>\n",
				edge.Label, edge.To, r.Freq.Freq.At(c), r.Totals[c])
		}
	}
	fmt.Fprintf(&b, "\nTIME(START)    = %g   (paper: %g)\n", r.Est.Time, paperex.PaperTime)
	fmt.Fprintf(&b, "STD_DEV(START) = %g   (paper: %g)\n", r.Est.StdDev(), paperex.PaperStdDev)
	return b.String()
}

func analyzeExample() (*analysis.Proc, error) {
	p, err := core.Load(paperex.Source)
	if err != nil {
		return nil, err
	}
	return p.An.Procs["EXMPL"], nil
}

// --------------------------------------------------------------------------
// Table 1.

// Table1Config sizes the two benchmarks. The paper's configuration is
// LOOPS with all 24 kernels and SIMPLE at 100×100 with NCYCLES = 10; the
// defaults here are scaled down so `go test` stays fast, and the benchmark
// harness can pass the full size.
type Table1Config struct {
	LoopsN, LoopsReps      int
	SimpleN, SimpleNCycles int
	Seed                   uint64

	// Trace, when non-nil, collects per-phase pipeline spans across both
	// benchmark loads (see internal/obs).
	Trace *obs.Trace
	// Cache, when non-nil, is the on-disk artifact cache the benchmark
	// loads consult — repeat table regenerations skip re-analysis.
	Cache *artifact.Store
}

// DefaultTable1Config is a fast configuration for tests.
var DefaultTable1Config = Table1Config{
	LoopsN: 60, LoopsReps: 1,
	SimpleN: 24, SimpleNCycles: 3,
	Seed: 1,
}

// PaperTable1Config matches the paper's problem sizes.
var PaperTable1Config = Table1Config{
	LoopsN: 100, LoopsReps: 1,
	SimpleN: 100, SimpleNCycles: 10,
	Seed: 1,
}

// Table1Cell is one benchmark × one cost model.
type Table1Cell struct {
	Program string
	Model   string
	// Original, Smart and Naive are the simulated execution times (cost
	// units): the original program, and the program with each
	// instrumentation scheme compiled in.
	Original, Smart, Naive float64
	// SmartCounters/NaiveCounters are the static counter-variable counts
	// summed over procedures; the Ops fields count dynamic update
	// operations (increments + trip adds).
	SmartCounters, NaiveCounters int
	SmartOps, NaiveOps           int64
}

// Table1Result is the full table.
type Table1Result struct {
	Cells []Table1Cell
}

// Table1 regenerates the experiment.
func Table1(cfg1 Table1Config) (*Table1Result, error) {
	type bench struct {
		name string
		src  string
	}
	benches := []bench{
		{"LOOPS", livermore.Source(cfg1.LoopsN, cfg1.LoopsReps)},
		{"SIMPLE", simplecfd.Source(cfg1.SimpleN, cfg1.SimpleNCycles)},
	}
	models := []cost.Model{cost.Optimized, cost.Unoptimized}
	res := &Table1Result{}
	for _, bm := range benches {
		p, err := core.LoadOpts(bm.src, core.LoadOptions{Trace: cfg1.Trace, Cache: cfg1.Cache})
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", bm.name, err)
		}
		// Counter plans are model-independent; overheads are not.
		smart := make(map[string]*profiler.Plan, len(p.An.Procs))
		naive := make(map[string]*profiler.Plan, len(p.An.Procs))
		for name, a := range p.An.Procs {
			sp, err := profiler.PlanSmart(a)
			if err != nil {
				return nil, fmt.Errorf("table1 %s %s: %w", bm.name, name, err)
			}
			smart[name] = sp
			naive[name] = profiler.PlanNaive(a)
		}
		for _, m := range models {
			run, err := interp.Run(p.Res, interp.Options{Seed: cfg1.Seed, Model: &m})
			if err != nil {
				return nil, fmt.Errorf("table1 %s: %w", bm.name, err)
			}
			cell := Table1Cell{Program: bm.name, Model: m.Name, Original: run.Cost}
			for name := range p.An.Procs {
				so := smart[name].MeasureOverhead(run, m)
				no := naive[name].MeasureOverhead(run, m)
				cell.SmartCounters += smart[name].NumCounters()
				cell.NaiveCounters += naive[name].NumCounters()
				cell.SmartOps += so.Increments + so.TripAdds
				cell.NaiveOps += no.Increments + no.TripAdds
				cell.Smart += so.Cost
				cell.Naive += no.Cost
			}
			cell.Smart += run.Cost
			cell.Naive += run.Cost
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Cell returns the named cell, or nil.
func (r *Table1Result) Cell(program, model string) *Table1Cell {
	for i := range r.Cells {
		if r.Cells[i].Program == program && r.Cells[i].Model == model {
			return &r.Cells[i]
		}
	}
	return nil
}

// Format renders the table in the paper's layout, with overhead
// percentages added (the paper's own observations: smart profiling's
// overhead is small versus the opt-ON/OFF gap, and noticeably cheaper than
// naive profiling).
func (r *Table1Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 1: sequential execution times with and without profiling\n")
	b.WriteString("(simulated machine cycles; paper reports IBM 3090 seconds)\n\n")
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s %14s %9s %9s\n",
		"Program", "Model", "Original", "Smart prof", "Naive prof", "Smart+%", "Naive+%")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %-8s %14.0f %14.0f %14.0f %8.1f%% %8.1f%%\n",
			c.Program, c.Model, c.Original, c.Smart, c.Naive,
			100*(c.Smart-c.Original)/c.Original, 100*(c.Naive-c.Original)/c.Original)
	}
	b.WriteString("\nCounter ablation (Section 3 optimizations):\n")
	fmt.Fprintf(&b, "%-8s %-8s %10s %10s %12s %12s\n",
		"Program", "Model", "SmartCtrs", "NaiveCtrs", "SmartOps", "NaiveOps")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %-8s %10d %10d %12d %12d\n",
			c.Program, c.Model, c.SmartCounters, c.NaiveCounters, c.SmartOps, c.NaiveOps)
	}
	return b.String()
}
