// Command ptranlint runs the internal/check static verification and lint
// passes over a program in the Fortran subset: it re-proves the paper's
// structural guarantees (reducibility, ECFG well-formedness, FCDG shape,
// counter-plan sufficiency) and lints the source (constant branches,
// zero-trip DO loops, dead code), printing one diagnostic per finding.
//
// Usage:
//
//	ptranlint [-json] [-Werror] [-passes name,name] [-workers N] [-src] prog.f
//	ptranlint -hot-paths K [-hot-seed N] prog.f
//	ptranlint -dataflow prog.f
//	ptranlint -explain-plan prog.f
//	ptranlint -list
//
// With -dataflow the report additionally carries each procedure's monotone
// dataflow facts: reachability and per-analysis fact counts, the proven
// infeasible edges, decided branches and constant trip counts. These are
// the facts the counter planner and the estimator consume; the oracle's
// dataflow-sound invariant checks every one of them dynamically.
//
// With -explain-plan the report carries each procedure's counter plan:
// the counters it keeps, then every condition whose counter was
// eliminated, in recovery-schedule order, with the rule that recovers it
// (Section 3's conservation, loop and DO-trip identities) and that rule's
// inputs — as text lines, or as the plans array of the JSON document.
//
// With -hot-paths K the program additionally runs once under Ball–Larus
// path instrumentation and the report carries each procedure's top-K most
// frequently completed acyclic paths (decoded node sequences with counts)
// — as text lines, or as the hot_paths array of the JSON document.
//
// Exit status: 0 when no error-severity findings (warnings allowed unless
// -Werror), 1 when findings fail the run, 2 on usage or internal errors.
// Syntax and semantic errors in the input are themselves reported in the
// same diagnostic format (pass "parse") and exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/artifact"
	"repro/internal/cfg"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/pathprof"
	"repro/internal/report"
)

func main() {
	src := flag.String("src", "", "source file (or pass it as the positional argument)")
	jsonOut := flag.Bool("json", false, "emit the shared JSON diagnostic document instead of text")
	werror := flag.Bool("Werror", false, "treat warnings as errors")
	passes := flag.String("passes", "", "comma-separated pass names (default: all)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the per-procedure analysis")
	dflow := flag.Bool("dataflow", false, "report each procedure's dataflow facts (infeasible edges, decided branches, constant trips)")
	hotPaths := flag.Int("hot-paths", 0, "report each procedure's top-K hot acyclic paths from one profiled run (0: off)")
	hotSeed := flag.Uint64("hot-seed", 1, "random seed of the -hot-paths profiling run")
	explain := flag.Bool("explain-plan", false, "report each procedure's counter plan: kept counters, then every derived condition in recovery order with its rule and inputs")
	list := flag.Bool("list", false, "list registry passes and exit")
	cacheDir := artifact.AddCLIFlags(flag.CommandLine)
	obsCLI := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, p := range check.Registry() {
			fmt.Printf("%-12s %s\n", p.Name, p.Desc)
		}
		return
	}
	if *src == "" && flag.NArg() == 1 {
		*src = flag.Arg(0)
	}
	if *src == "" || flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: ptranlint [-json] [-Werror] [-passes name,name] prog.f")
		os.Exit(2)
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptranlint:", err)
		os.Exit(2)
	}

	opts := check.Options{}
	if *passes != "" {
		opts.Passes = strings.Split(*passes, ",")
	}
	tr, err := obsCLI.Begin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptranlint:", err)
		os.Exit(2)
	}
	store, err := artifact.StoreFromFlag(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptranlint:", err)
		os.Exit(2)
	}
	diags, pipe, err := lint(string(text), opts, *workers, tr, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptranlint:", err)
		os.Exit(2)
	}
	var flow []flowReport
	if *dflow && pipe != nil {
		flow = flowReports(pipe)
	}
	var plans []report.PlanExplain
	if *explain && pipe != nil {
		if plans, err = explainPlans(pipe); err != nil {
			fmt.Fprintln(os.Stderr, "ptranlint: explain-plan:", err)
			os.Exit(2)
		}
	}
	var hot []report.HotPath
	if *hotPaths > 0 && pipe != nil {
		hps, err := pipe.HotPaths(interp.Options{Seed: *hotSeed, MaxSteps: 50_000_000}, *hotPaths)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptranlint: hot-paths:", err)
			os.Exit(2)
		}
		hot = toReportHotPaths(hps)
	}
	if err := obsCLI.End("ptranlint"); err != nil {
		fmt.Fprintln(os.Stderr, "ptranlint:", err)
		os.Exit(2)
	}
	emit(*src, diags, hot, flow, plans, *jsonOut, *werror)
}

// explainPlans renders every procedure's Sarkar counter plan, in sorted
// procedure order.
func explainPlans(pipe *core.Pipeline) ([]report.PlanExplain, error) {
	plans, err := pipe.Plans()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]report.PlanExplain, 0, len(names))
	for _, name := range names {
		plan := plans[name]
		ds, err := plan.Derivations()
		if err != nil {
			return nil, err
		}
		pe := report.PlanExplain{Proc: name, Counters: []string{}, Derivations: []report.PlanStep{}, RecoverSteps: plan.RecoverSteps()}
		for _, c := range plan.Counters {
			pe.Counters = append(pe.Counters, c.String())
		}
		for _, d := range ds {
			st := report.PlanStep{Rule: d.Kind.String(), Node: int(d.Node), Inputs: d.Inputs}
			for _, c := range d.Derives {
				st.Derives = append(st.Derives, c.String())
			}
			pe.Derivations = append(pe.Derivations, st)
		}
		out = append(out, pe)
	}
	return out, nil
}

// flowReport is one procedure's dataflow fact summary, ordered for output.
type flowReport struct {
	Proc    string         `json:"proc"`
	Stats   dataflow.Stats `json:"stats"`
	Edges   []string       `json:"infeasible_edges,omitempty"`
	Decided []string       `json:"decided_branches,omitempty"`
	Trips   []string       `json:"const_trips,omitempty"`
}

// flowReports assembles the per-procedure dataflow summaries in sorted
// procedure order.
func flowReports(pipe *core.Pipeline) []flowReport {
	names := make([]string, 0, len(pipe.An.Procs))
	for name := range pipe.An.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]flowReport, 0, len(names))
	for _, name := range names {
		f := pipe.An.Procs[name].Flow
		if f == nil {
			continue
		}
		fr := flowReport{Proc: name, Stats: f.Stats()}
		for _, e := range f.Infeasible {
			fr.Edges = append(fr.Edges, e.String())
		}
		decided := make([]cfg.NodeID, 0, len(f.ConstBranch))
		for n := range f.ConstBranch {
			decided = append(decided, n)
		}
		sort.Slice(decided, func(i, j int) bool { return decided[i] < decided[j] })
		for _, n := range decided {
			fr.Decided = append(fr.Decided, fmt.Sprintf("node %d always %s", n, f.ConstBranch[n]))
		}
		tests := make([]cfg.NodeID, 0, len(f.ConstTrips))
		for n := range f.ConstTrips {
			tests = append(tests, n)
		}
		sort.Slice(tests, func(i, j int) bool { return tests[i] < tests[j] })
		for _, n := range tests {
			fr.Trips = append(fr.Trips, fmt.Sprintf("DO test %d trips %d", n, f.ConstTrips[n]))
		}
		out = append(out, fr)
	}
	return out
}

// toReportHotPaths converts the pathprof rows into the shared report
// schema (plain ints for the node ids).
func toReportHotPaths(hps []pathprof.HotPath) []report.HotPath {
	out := make([]report.HotPath, len(hps))
	for i, h := range hps {
		nodes := make([]int, len(h.Nodes))
		for j, n := range h.Nodes {
			nodes[j] = int(n)
		}
		out[i] = report.HotPath{
			Proc: h.Proc, ID: h.ID, Count: h.Count,
			Nodes: nodes, FromEntry: h.FromEntry, ToExit: h.ToExit,
		}
	}
	return out
}

// lint runs the front end and the checker, turning syntax/semantic errors
// into diagnostics rather than bare failures. The loaded pipeline is
// returned for follow-on reports (nil when the front end failed).
func lint(text string, opts check.Options, workers int, tr *obs.Trace, store *artifact.Store) ([]report.Diagnostic, *core.Pipeline, error) {
	collector := &check.Collector{Opts: opts}
	pipe, err := core.LoadOpts(text, core.LoadOptions{
		Workers:   workers,
		CheckProc: collector.CheckProc,
		Trace:     tr,
		Cache:     store,
	})
	if err != nil {
		var se *lang.SyntaxError
		if errors.As(err, &se) {
			return []report.Diagnostic{{
				Severity: report.Error,
				Pass:     "parse",
				Line:     se.Line,
				Col:      se.Col,
				Message:  se.Msg,
			}}, nil, nil
		}
		// Lowering/analysis errors have no richer structure than the text.
		return []report.Diagnostic{{
			Severity: report.Error,
			Pass:     "parse",
			Message:  err.Error(),
		}}, nil, nil
	}
	diags, err := collector.Diagnostics()
	return diags, pipe, err
}

// emit prints the findings and exits with the verdict.
func emit(path string, diags []report.Diagnostic, hot []report.HotPath, flow []flowReport, plans []report.PlanExplain, jsonOut, werror bool) {
	fail := report.Count(diags, report.Error) > 0
	if werror && report.Count(diags, report.Warning) > 0 {
		fail = true
	}
	if jsonOut {
		doc := report.NewDocument("ptranlint", diags)
		doc.HotPaths = hot
		doc.Plans = plans
		if len(flow) > 0 {
			doc.Dataflow = flow
		}
		if err := doc.Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ptranlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%s\n", path, d)
		}
		if len(diags) == 0 {
			fmt.Printf("%s: clean (%d passes)\n", path, len(check.Registry()))
		}
		for _, fr := range flow {
			st := fr.Stats
			fmt.Printf("%s: dataflow %s: %d/%d nodes reached, %d infeasible edges, %d decided branches, %d const trips, %d dead, %d dead stores, %d use-before-def\n",
				path, fr.Proc, st.ReachedNodes, st.Nodes, st.Infeasible, st.ConstBranch, st.ConstTrips, st.DeadNodes, st.DeadStores, st.UseBeforeDef)
			for _, e := range fr.Edges {
				fmt.Printf("%s: dataflow %s: infeasible %s\n", path, fr.Proc, e)
			}
			for _, d := range fr.Decided {
				fmt.Printf("%s: dataflow %s: %s\n", path, fr.Proc, d)
			}
			for _, tr := range fr.Trips {
				fmt.Printf("%s: dataflow %s: %s\n", path, fr.Proc, tr)
			}
		}
		for _, pe := range plans {
			fmt.Printf("%s: plan %s: %d counters, %d derivations, %d recovery steps\n",
				path, pe.Proc, len(pe.Counters), len(pe.Derivations), pe.RecoverSteps)
			for _, c := range pe.Counters {
				fmt.Printf("%s: plan %s: counter %s\n", path, pe.Proc, c)
			}
			for _, st := range pe.Derivations {
				fmt.Printf("%s: plan %s: derive %s\n", path, pe.Proc, st)
			}
		}
		for _, h := range hot {
			fmt.Printf("%s: hot: %s\n", path, h)
		}
	}
	if fail {
		os.Exit(1)
	}
}
