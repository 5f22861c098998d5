// Package check is a static verification and lint pass framework over the
// pipeline's intermediate representations. Each pass re-proves one of the
// paper's structural guarantees (reducibility, ECFG well-formedness, FCDG
// shape, counter-plan sufficiency) or lints the source view of a procedure,
// and emits structured diagnostics instead of surfacing violations as
// panics deep inside ecfg or freq.
//
// Passes are pure functions over an analyzed procedure, so the framework is
// safe to run from the parallel per-procedure analysis workers: each call
// touches only the procedure it was handed plus immutable analysis data.
package check

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/report"
)

// Pass is one named static analysis over an analyzed procedure.
type Pass struct {
	Name string
	Desc string
	Run  func(a *analysis.Proc, r *reporter)
}

// Registry returns the built-in passes in their canonical run order.
func Registry() []Pass {
	return []Pass{
		{Name: "reducible", Desc: "every back-edge target dominates its source; node splits reported", Run: checkReducible},
		{Name: "wellformed", Desc: "CFG/ECFG well-formedness: reachability, STOP, pseudo-edge shape", Run: checkWellFormed},
		{Name: "fcdg", Desc: "FCDG is a rooted DAG whose region nesting mirrors HDR_PARENT", Run: checkFCDG},
		{Name: "plan", Desc: "counter plan determines every FREQ(u,l) uniquely (rank proof)", Run: checkPlan},
		{Name: "lints", Desc: "source lints: constant branches, zero-trip DO loops, dead code", Run: checkLints},
		{Name: "deadcode", Desc: "flow lint: statements unreachable under propagated constants", Run: checkDeadCode},
		{Name: "deadstore", Desc: "flow lint: scalar stores whose value no path reads", Run: checkDeadStore},
		{Name: "defassign", Desc: "flow lint: locals read before assignment on some path", Run: checkDefAssign},
	}
}

// PassNames returns the registry's pass names in run order.
func PassNames() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, p := range reg {
		out[i] = p.Name
	}
	return out
}

// Options selects which passes run.
type Options struct {
	// Passes filters the registry by name; nil or empty means all.
	Passes []string
}

func (o Options) selected() ([]Pass, error) {
	reg := Registry()
	if len(o.Passes) == 0 {
		return reg, nil
	}
	byName := make(map[string]Pass, len(reg))
	for _, p := range reg {
		byName[p.Name] = p
	}
	var out []Pass
	for _, name := range o.Passes {
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("check: unknown pass %q (have %v)", name, PassNames())
		}
		out = append(out, p)
	}
	return out, nil
}

// reporter accumulates one procedure's diagnostics; pass implementations
// report through it.
type reporter struct {
	pass  string
	proc  string
	diags []report.Diagnostic
}

func (r *reporter) add(sev report.Severity, d report.Diagnostic) {
	d.Severity = sev
	d.Pass = r.pass
	d.Proc = r.proc
	r.diags = append(r.diags, d)
}

func (r *reporter) errorf(node int, format string, args ...any) {
	r.add(report.Error, report.Diagnostic{Node: node, Message: fmt.Sprintf(format, args...)})
}

func (r *reporter) warnAt(line, col int, hint, format string, args ...any) {
	r.add(report.Warning, report.Diagnostic{Line: line, Col: col, Hint: hint,
		Message: fmt.Sprintf(format, args...)})
}

// Proc runs the selected passes over one analyzed procedure and returns the
// sorted diagnostics.
func Proc(a *analysis.Proc, opts Options) ([]report.Diagnostic, error) {
	passes, err := opts.selected()
	if err != nil {
		return nil, err
	}
	var diags []report.Diagnostic
	for _, p := range passes {
		r := &reporter{pass: p.Name, proc: a.P.G.Name}
		p.Run(a, r)
		diags = append(diags, r.diags...)
	}
	report.Sort(diags)
	return diags, nil
}

// Program runs the selected passes over every procedure of an analyzed
// program, in deterministic (alphabetical) procedure order.
func Program(prog *analysis.Program, opts Options) ([]report.Diagnostic, error) {
	names := make([]string, 0, len(prog.Procs))
	for name := range prog.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	var diags []report.Diagnostic
	for _, name := range names {
		d, err := Proc(prog.Procs[name], opts)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	return diags, nil
}

// Collector adapts the checker to analysis.Options.CheckProc: the analysis
// worker pool calls CheckProc concurrently, one analyzed procedure at a
// time, and the collector accumulates diagnostics thread-safely. Checking
// never aborts the analysis — callers inspect Diagnostics() afterwards and
// decide what severity is fatal.
type Collector struct {
	Opts Options

	mu    sync.Mutex
	diags []report.Diagnostic
	err   error
}

// CheckProc runs the collector's passes on one procedure. It always returns
// nil so a finding does not abort the analysis.
func (c *Collector) CheckProc(a *analysis.Proc) error {
	d, err := Proc(a, c.Opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && c.err == nil {
		c.err = err
	}
	c.diags = append(c.diags, d...)
	return nil
}

// Gate is the shared -check behaviour of the pipeline commands: it prints
// every collected diagnostic to w prefixed with the source path and returns
// a non-nil error when any finding has error severity.
func Gate(w io.Writer, path string, c *Collector) error {
	diags, err := c.Diagnostics()
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%s\n", path, d)
	}
	if n := report.Count(diags, report.Error); n > 0 {
		return fmt.Errorf("static checks failed with %d error finding(s)", n)
	}
	return nil
}

// Diagnostics returns everything collected so far, sorted.
func (c *Collector) Diagnostics() ([]report.Diagnostic, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	diags := append([]report.Diagnostic(nil), c.diags...)
	report.Sort(diags)
	return diags, nil
}
