// Package analysis assembles the paper's full per-procedure pipeline —
// interval structure, extended CFG, forward control dependence — and
// orders procedures bottom-up over the call graph, the
// order Section 4's rule 2 requires (callees are costed before callers;
// recursive procedures surface as multi-member or self-looping strongly
// connected components).
//
// Procedures are analyzed independently, so AnalyzeProgram fans them out
// to a bounded worker pool; only the final call-graph SCC pass is global.
// The result is identical for every worker count.
package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdg"
	"repro/internal/dataflow"
	"repro/internal/ecfg"
	"repro/internal/interval"
	"repro/internal/lower"
	"repro/internal/obs"
)

// Proc bundles every derived structure for one procedure.
type Proc struct {
	P *lower.Proc
	// Intervals is the interval structure of the original CFG.
	Intervals *interval.Info
	// Ext is the extended CFG.
	Ext *ecfg.Ext
	// FCDG is the forward control dependence graph.
	FCDG *cdg.Graph
	// Flow holds the monotone dataflow facts (constants, feasibility,
	// liveness, definite assignment) over the original lowered CFG.
	Flow *dataflow.Facts
}

// Program is the analyzed whole program.
type Program struct {
	Res *lower.Result
	// Procs maps unit name to its analysis.
	Procs map[string]*Proc
	// BottomUp lists the strongly connected components of the call graph
	// in bottom-up topological order (every callee's component appears
	// before its callers'). Components with more than one member, or a
	// single member that calls itself, are recursive.
	BottomUp [][]string
}

// AnalyzeProc runs the full pipeline on one lowered procedure. The lowering
// phase already node-split any irreducible input, so the CFG is reducible.
func AnalyzeProc(p *lower.Proc) (*Proc, error) { return analyzeProcTraced(p, nil) }

// analyzeProcTraced is AnalyzeProc reporting each phase into tr (nil = no
// tracing). Same-named spans from concurrent procedures aggregate into one
// row per phase. The dataflow pass reads only the lowered CFG, so it runs
// in its own goroutine beside the structural chain interval → ecfg → cdg,
// and a one-procedure program also keeps two cores busy.
func analyzeProcTraced(p *lower.Proc, tr *obs.Trace) (*Proc, error) {
	a := &Proc{P: p}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sp := tr.Start("dataflow")
		a.Flow = dataflow.Analyze(p)
		sp.End(obs.M("infeasible_edges", float64(a.Flow.Stats().Infeasible)))
	}()
	err := a.structure(tr)
	<-done
	if err != nil {
		return nil, err
	}
	return a, nil
}

// structure derives the interval structure, ECFG and FCDG of a.P.
func (a *Proc) structure(tr *obs.Trace) error {
	g := a.P.G
	sp := tr.Start("interval")
	iv, err := interval.Analyze(g)
	sp.End(obs.M("cfg_nodes", float64(g.NumNodes())))
	if err != nil {
		return fmt.Errorf("analysis %s: %w", g.Name, err)
	}
	a.Intervals = iv
	sp = tr.Start("ecfg")
	ext, err := ecfg.Build(g, iv)
	if err != nil {
		sp.End()
		return fmt.Errorf("analysis %s: %w", g.Name, err)
	}
	sp.End(obs.M("ecfg_nodes", float64(ext.G.NumNodes())))
	a.Ext = ext
	sp = tr.Start("cdg")
	fwd, err := cdg.Build(ext)
	if err != nil {
		sp.End()
		return fmt.Errorf("analysis %s: %w", g.Name, err)
	}
	sp.End(obs.M("conditions", float64(fwd.NumConditions())))
	a.FCDG = fwd
	return nil
}

// Options configures AnalyzeProgramOpts beyond the defaults.
type Options struct {
	// Workers bounds the per-procedure concurrency; ≤ 0 means GOMAXPROCS.
	Workers int

	// CheckProc, when non-nil, is invoked with every successfully analyzed
	// procedure from the same worker that analyzed it, so static checkers
	// ride the analysis pool for free. It must be safe for concurrent use;
	// a non-nil return aborts the whole analysis with that error.
	CheckProc func(*Proc) error

	// Trace, when non-nil, receives per-phase spans (interval, ecfg, cdg,
	// dataflow, check) plus an "analyze" summary span carrying the worker
	// count and pool utilization. The cdg span builds the FCDG and carries
	// its condition count. Phases of concurrent procedures aggregate, and
	// each procedure's dataflow span overlaps its structural ones, so the
	// phase sums can exceed the analyze span.
	Trace *obs.Trace

	// Prebuilt supplies already-derived analyses (the artifact cache's warm
	// half, decoded against the same lowered procedures). Named procedures
	// skip the derivation phases entirely; CheckProc still runs on them, so
	// static diagnostics are identical on warm and cold loads.
	Prebuilt map[string]*Proc
}

// AnalyzeProgram analyzes every procedure with GOMAXPROCS workers and
// computes the bottom-up call order.
func AnalyzeProgram(res *lower.Result) (*Program, error) {
	return AnalyzeProgramOpts(res, Options{})
}

// AnalyzeProgramWorkers is AnalyzeProgram with an explicit worker bound
// (≤ 0 means GOMAXPROCS).
func AnalyzeProgramWorkers(res *lower.Result, workers int) (*Program, error) {
	return AnalyzeProgramOpts(res, Options{Workers: workers})
}

// AnalyzeProgramOpts is the general entry point. Each procedure's graphs
// are private, so workers share nothing; the output is identical for every
// worker count, and on error the failure of the alphabetically first
// failing procedure is reported, as in a sequential run.
func AnalyzeProgramOpts(res *lower.Result, opts Options) (*Program, error) {
	prog := &Program{Res: res, Procs: make(map[string]*Proc, len(res.Procs))}
	names := make([]string, 0, len(res.Procs))
	for name := range res.Procs {
		names = append(names, name)
	}
	sort.Strings(names)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	procs := make([]*Proc, len(names))
	errs := make([]error, len(names))
	overall := opts.Trace.Start("analyze")
	poolStart := time.Now()
	var busyNanos atomic.Int64
	analyzeAt := func(i int) {
		t0 := time.Now()
		if pre := opts.Prebuilt[names[i]]; pre != nil {
			procs[i] = pre
		} else {
			procs[i], errs[i] = analyzeProcTraced(res.Procs[names[i]], opts.Trace)
		}
		if errs[i] == nil && opts.CheckProc != nil {
			sp := opts.Trace.Start("check")
			errs[i] = opts.CheckProc(procs[i])
			sp.End()
		}
		busyNanos.Add(int64(time.Since(t0)))
	}
	if workers <= 1 {
		for i := range names {
			analyzeAt(i)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					analyzeAt(i)
				}
			}()
		}
		for i := range names {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	overall.End(obs.M("procs", float64(len(names))))
	if opts.Trace != nil && workers > 0 {
		if elapsed := time.Since(poolStart); elapsed > 0 {
			opts.Trace.SetMetric("analyze", "workers", float64(workers))
			opts.Trace.SetMetric("analyze", "utilization",
				float64(busyNanos.Load())/(float64(elapsed)*float64(workers)))
		}
	}
	for i, name := range names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		prog.Procs[name] = procs[i]
	}
	prog.BottomUp = bottomUpSCCs(names, res.CallGraph)
	return prog, nil
}

// IsRecursive reports whether the named procedure participates in a call
// cycle (including direct self-recursion).
func (p *Program) IsRecursive(name string) bool {
	for _, comp := range p.BottomUp {
		if len(comp) > 1 {
			for _, m := range comp {
				if m == name {
					return true
				}
			}
			continue
		}
		if comp[0] != name {
			continue
		}
		for _, callee := range p.Res.CallGraph[name] {
			if callee == name {
				return true
			}
		}
	}
	return false
}

// bottomUpSCCs runs Tarjan's SCC algorithm on the call graph and returns
// the components in reverse topological order (callees before callers).
// The DFS carries an explicit stack so call chains of arbitrary depth
// (generated programs, deep library layering) cannot overflow the
// goroutine stack.
func bottomUpSCCs(names []string, calls map[string][]string) [][]string {
	index := make(map[string]int)
	lowlink := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	counter := 0

	type frame struct {
		v    string
		next int // index into calls[v]
	}
	var frames []frame
	push := func(v string) {
		counter++
		index[v] = counter
		lowlink[v] = counter
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v})
	}
	for _, root := range names {
		if _, seen := index[root]; seen {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(calls[f.v]) {
				w := calls[f.v][f.next]
				f.next++
				if _, seen := index[w]; !seen {
					push(w)
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			// f.v's subtree is complete: emit its component if it is a
			// root, then propagate its lowlink to the DFS parent.
			if lowlink[f.v] == index[f.v] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				sort.Strings(comp)
				comps = append(comps, comp)
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if lowlink[v] < lowlink[parent.v] {
					lowlink[parent.v] = lowlink[v]
				}
			}
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — exactly the bottom-up order we need (a component is
	// emitted only after everything it calls).
	return comps
}
