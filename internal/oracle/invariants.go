package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"

	"repro/internal/artifact"
	"repro/internal/wire"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/profiler"
	"repro/internal/report"
	"repro/internal/stats"
)

// Invariant is one named correctness property checked per case. Check
// returns nil on pass, errSkip when the case is outside the invariant's
// scope (e.g. a metamorphic transform found no applicable site), and a
// descriptive error on violation.
type Invariant struct {
	Name  string
	Desc  string
	Check func(*evalCtx) error
}

// errSkip marks an invariant that does not apply to a case.
var errSkip = errors.New("not applicable")

// Registry returns every invariant in deterministic order.
func Registry() []Invariant {
	return []Invariant{
		{
			Name:  "recovery-exact",
			Desc:  "optimized counter placement recovers the exact TOTAL_FREQ of every control condition",
			Check: checkRecoveryExact,
		},
		{
			Name:  "counter-economy",
			Desc:  "the optimized plan never places more counters than naive per-block counting, and agrees with it on block counts",
			Check: checkCounterEconomy,
		},
		{
			Name:  "node-freq",
			Desc:  "NODE_FREQ × activations equals the interpreter's exact node execution counts",
			Check: checkNodeFreq,
		},
		{
			Name:  "time-mean",
			Desc:  "TIME(START) of the main program equals the measured mean trace cost over the profiled runs",
			Check: checkTimeMean,
		},
		{
			Name:  "var-sane",
			Desc:  "VAR is non-negative everywhere, STD_DEV = √VAR, and E[T²] = VAR + TIME²",
			Check: checkVarSane,
		},
		{
			Name:  "var-branch-free",
			Desc:  "on branch-free programs VAR(START) equals the sample variance of the measured costs (both zero)",
			Check: checkVarBranchFree,
		},
		{
			Name:  "var-const-do",
			Desc:  "branch-free programs with constant-trip DO loops report VAR(START) = 0 exactly: proven-deterministic loop tests carry no modeled variance",
			Check: checkVarConstDo,
		},
		{
			Name:  "cost-scaling",
			Desc:  "scaling the cost model by k scales TIME by k and VAR by k²",
			Check: checkCostScaling,
		},
		{
			Name:  "meta-swap-if",
			Desc:  "swapping IF arms under a complemented condition leaves TIME and VAR unchanged",
			Check: checkMetaSwapIf,
		},
		{
			Name:  "meta-wrap-do",
			Desc:  "wrapping a statement in a one-trip DO leaves TIME and VAR unchanged (structural cost model): the wrapper's test is proven constant-trip and deterministic",
			Check: checkMetaWrapDo,
		},
		{
			Name:  "meta-split-block",
			Desc:  "splitting a straight-line block with a forward GOTO leaves TIME and VAR unchanged",
			Check: checkMetaSplitBlock,
		},
		{
			Name:  "engine-equiv",
			Desc:  "the bytecode VM and the tree-walker produce bit-identical results (steps, cost, node/edge counters, activations) on every profiled seed",
			Check: checkEngineEquiv,
		},
		{
			Name:  "plan-equiv",
			Desc:  "Ball–Larus path recovery equals the exact totals on every run, and agrees with the stop-aware Sarkar recovery on every run, STOP-terminated ones included",
			Check: checkPlanEquiv,
		},
		{
			Name:  "dataflow-sound",
			Desc:  "every dataflow fact holds dynamically: infeasible edges have frequency 0, decided branches always take their label, unreachable nodes never execute, constant trips match iteration counts, and proven-constant variables hold exactly their value at run time",
			Check: checkDataflowSound,
		},
		{
			Name:  "artifact-roundtrip",
			Desc:  "load(save(x)) through the on-disk artifact cache is lossless: warm reloads produce bit-identical counter plans, recovered profiles, and TIME/VAR estimates on all three engines",
			Check: checkArtifactRoundTrip,
		},
		{
			Name:  "checker-clean",
			Desc:  "every generated program passes the internal/check static passes with no error-severity findings, and the rank proof certifies its counter plans",
			Check: checkCheckerClean,
		},
	}
}

// selectInvariants resolves a list of names against the registry (empty =
// all).
func selectInvariants(names []string) ([]Invariant, error) {
	all := Registry()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Invariant, len(all))
	for _, inv := range all {
		byName[inv.Name] = inv
	}
	var out []Invariant
	for _, n := range names {
		inv, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown invariant %q", n)
		}
		out = append(out, inv)
	}
	return out, nil
}

// near reports near-equality with a combined absolute/relative tolerance.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ---------------------------------------------------------------------------
// Exactness invariants.

func checkRecoveryExact(ctx *evalCtx) error {
	for name := range ctx.an.Procs {
		got, want := ctx.profile[name], ctx.exact[name]
		for c, w := range want {
			if g := got[c]; !near(g, w) {
				return fmt.Errorf("proc %s: recovered TOTAL%v = %g, exact %g", name, c, g, w)
			}
		}
		for c := range got {
			if _, ok := want[c]; !ok {
				return fmt.Errorf("proc %s: recovered unknown condition %v", name, c)
			}
		}
	}
	return nil
}

func checkCounterEconomy(ctx *evalCtx) error {
	for name, a := range ctx.an.Procs {
		smart := ctx.plans[name]
		naive := profiler.PlanNaive(a)
		if smart.NumCounters() > naive.NumCounters() {
			return fmt.Errorf("proc %s: optimized plan uses %d counters, naive uses %d",
				name, smart.NumCounters(), naive.NumCounters())
		}
		// Differential block-count agreement: the naive counters, summed
		// over the profiled runs, must match what the smart profile
		// implies (NODE_FREQ × activations) for every counted block.
		tab, err := freq.Compute(a.FCDG, ctx.profile[name])
		if err != nil {
			return fmt.Errorf("proc %s: freq from recovered profile: %w", name, err)
		}
		readings := make(profiler.Readings, naive.NumCounters())
		for _, run := range ctx.runs {
			readings.Add(naive.SimulateReadings(run))
		}
		for i, ctr := range naive.Counters {
			if ctr.Kind != profiler.BlockCounter {
				continue
			}
			implied := tab.NodeFreq[ctr.Node] * tab.Runs
			if !near(implied, readings[i]) {
				return fmt.Errorf("proc %s: block %d: smart profile implies %g executions, naive counter read %g",
					name, ctr.Node, implied, readings[i])
			}
		}
	}
	return nil
}

func checkNodeFreq(ctx *evalCtx) error {
	for name, a := range ctx.an.Procs {
		tab, err := freq.Compute(a.FCDG, ctx.profile[name])
		if err != nil {
			return fmt.Errorf("proc %s: freq: %w", name, err)
		}
		var acts float64
		for _, run := range ctx.runs {
			acts += float64(run.ByProc[name].Activations)
		}
		for _, n := range a.P.G.Nodes() {
			var want float64
			for _, run := range ctx.runs {
				want += float64(run.NodeCount(a.P, n.ID))
			}
			got := tab.NodeFreq[n.ID] * acts
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				return fmt.Errorf("proc %s node %d (%s): NODE_FREQ×acts = %g, exact %g",
					name, n.ID, n.Name(), got, want)
			}
		}
	}
	return nil
}

func checkTimeMean(ctx *evalCtx) error {
	var w stats.Welford
	for _, c := range ctx.measured {
		w.Add(c)
	}
	mean := w.Mean()
	if ctx.est.Main == nil {
		return fmt.Errorf("no main estimate")
	}
	if !near(ctx.est.Main.Time, mean) {
		return fmt.Errorf("TIME(START) = %.12g, measured mean = %.12g over %d runs",
			ctx.est.Main.Time, mean, len(ctx.measured))
	}
	return nil
}

func checkVarSane(ctx *evalCtx) error {
	for name, pe := range ctx.est.Procs {
		if pe.Var < 0 {
			return fmt.Errorf("proc %s: VAR(START) = %g < 0", name, pe.Var)
		}
		for u, e := range pe.Node {
			if e.Var < 0 {
				return fmt.Errorf("proc %s node %d: VAR = %g < 0", name, u, e.Var)
			}
			if !near(e.StdDev, math.Sqrt(e.Var)) {
				return fmt.Errorf("proc %s node %d: STD_DEV = %g, √VAR = %g", name, u, e.StdDev, math.Sqrt(e.Var))
			}
			if !near(e.SecondMoment, e.Var+e.Time*e.Time) {
				return fmt.Errorf("proc %s node %d: E[T²] = %g, VAR+TIME² = %g",
					name, u, e.SecondMoment, e.Var+e.Time*e.Time)
			}
		}
	}
	return nil
}

func checkVarBranchFree(ctx *evalCtx) error {
	if ctx.c.Kind != KindBranchFree {
		return errSkip
	}
	var w stats.Welford
	for _, c := range ctx.measured {
		w.Add(c)
	}
	if sv := w.PopVar(); !near(sv, 0) {
		return fmt.Errorf("branch-free program measured costs vary: sample variance %g (costs %v)", sv, ctx.measured)
	}
	if v := ctx.est.Main.Var; !near(v, w.PopVar()) {
		return fmt.Errorf("VAR(START) = %g, sample variance = %g (both must be 0 on branch-free programs)",
			v, w.PopVar())
	}
	return nil
}

// checkVarConstDo: the det-loop family is deterministic despite containing
// loops — every DO has a compile-time-constant trip count and no exits, so
// the estimator must prove each test deterministic and report VAR(START) = 0
// exactly (the zero is a sum of products of zeros, not a cancellation), with
// a matching zero sample variance across runs.
func checkVarConstDo(ctx *evalCtx) error {
	if ctx.c.Kind != KindDetLoop {
		return errSkip
	}
	var w stats.Welford
	for _, c := range ctx.measured {
		w.Add(c)
	}
	if sv := w.PopVar(); !near(sv, 0) {
		return fmt.Errorf("det-loop program measured costs vary: sample variance %g (costs %v)", sv, ctx.measured)
	}
	if v := ctx.est.Main.Var; v != 0 {
		return fmt.Errorf("VAR(START) = %g, want exactly 0: a constant-trip DO test must carry no modeled variance", v)
	}
	for name, pe := range ctx.est.Procs {
		for u, e := range pe.Node {
			if e.Var != 0 {
				return fmt.Errorf("proc %s node %d: VAR = %g, want exactly 0 in a deterministic program", name, u, e.Var)
			}
		}
	}
	return nil
}

func checkCostScaling(ctx *evalCtx) error {
	const k = 2.5
	scaled := ctx.model.Scaled(k)
	costs := make(map[string]cost.Table, len(ctx.res.Procs))
	for name, proc := range ctx.res.Procs {
		costs[name] = scaled.Table(proc)
	}
	est2, err := core.EstimateProgram(ctx.an, ctx.profile, costs, core.Options{})
	if err != nil {
		return fmt.Errorf("estimate under scaled model: %w", err)
	}
	for name, pe := range ctx.est.Procs {
		pe2 := est2.Procs[name]
		if !near(pe2.Time, k*pe.Time) {
			return fmt.Errorf("proc %s: TIME scaled by %g → %.12g, want %.12g", name, k, pe2.Time, k*pe.Time)
		}
		if !near(pe2.Var, k*k*pe.Var) {
			return fmt.Errorf("proc %s: VAR scaled by %g → %.12g, want %.12g", name, k, pe2.Var, k*k*pe.Var)
		}
		if !near(pe2.StdDev(), k*pe.StdDev()) {
			return fmt.Errorf("proc %s: STD_DEV scaled by %g → %.12g, want %.12g", name, k, pe2.StdDev(), k*pe.StdDev())
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Metamorphic invariants.

// evalMeta applies a transform and evaluates both the original and the
// transformed program under model m, re-evaluating the original only when m
// differs from the case's base model.
func evalMeta(ctx *evalCtx, transform func(string) (string, bool), m cost.Model) (ref, tctx *evalCtx, src string, err error) {
	tsrc, ok := transform(ctx.c.Src)
	if !ok {
		return nil, nil, "", errSkip
	}
	ref = ctx
	if m.Name != ctx.model.Name {
		ref, err = ctx.c.eval(ctx.c.Src, m)
		if err != nil {
			return nil, nil, "", fmt.Errorf("re-evaluating original under %s model: %w", m.Name, err)
		}
	}
	tctx, err = ctx.c.eval(tsrc, m)
	if err != nil {
		return nil, nil, "", fmt.Errorf("transformed program failed the pipeline: %w\n%s", err, tsrc)
	}
	return ref, tctx, tsrc, nil
}

// checkMeta evaluates a transformed source under model m and requires the
// main program's TIME and VAR both unchanged.
func checkMeta(ctx *evalCtx, transform func(string) (string, bool), m cost.Model) error {
	ref, tctx, tsrc, err := evalMeta(ctx, transform, m)
	if err != nil {
		return err
	}
	if !near(tctx.est.Main.Time, ref.est.Main.Time) {
		return fmt.Errorf("TIME changed: %.12g → %.12g\n%s", ref.est.Main.Time, tctx.est.Main.Time, tsrc)
	}
	if !near(tctx.est.Main.Var, ref.est.Main.Var) {
		return fmt.Errorf("VAR changed: %.12g → %.12g\n%s", ref.est.Main.Var, tctx.est.Main.Var, tsrc)
	}
	return nil
}

func checkMetaSwapIf(ctx *evalCtx) error {
	return checkMeta(ctx, SwapIfArms, ctx.model)
}

// checkMetaWrapDo wraps a statement in a one-trip DO under the structural
// cost model, so the wrapper's bookkeeping nodes are free and TIME must not
// move — and neither may VAR: the wrapper's trip count (1) is a compile-time
// constant, so the estimator proves its test deterministic and adds zero
// modeled variance. (Historically this check only required VAR-monotone,
// because every DO test was priced as an independent Bernoulli branch — a
// one-trip loop's test had F_T = 1/2 and added phantom variance. That
// deviation from Section 5's known-trip-count case is fixed.)
func checkMetaWrapDo(ctx *evalCtx) error {
	return checkMeta(ctx, WrapInDo, structuralModel)
}

func checkMetaSplitBlock(ctx *evalCtx) error {
	return checkMeta(ctx, SplitBlock, ctx.model)
}

// checkEngineEquiv is the differential engine check: every profiled seed
// is re-run on the engine the case did NOT use, and the two results must
// be bit-identical — same step count, exact float-equal cost, same
// node/edge counters and activations. The same seeds are then re-run once
// more as a single lane-sharded batch through the VM's batch runner, which
// must also match seed for seed. A compile bailout on a generated program
// is itself a failure: progen emits only the supported subset.
// checkPlanEquiv recovers every profiled run under the Ball–Larus path
// strategy and checks (a) the path recovery equals the exact totals on
// every run, stopped or not (partials keep it exact), and (b) the Sarkar
// recovery agrees with the path recovery on every run, STOP-terminated
// ones included: the stop-aware recovery (profiler.Plan.RecoverRun) reads
// the run's frozen-frame record, caps in-flight DO loops at their observed
// partial trips and discounts committed-but-never-reached nodes, so the
// trip rules' run-to-completion assumption no longer inflates the totals.
func checkPlanEquiv(ctx *evalCtx) error {
	pp, err := ctx.pathProfPlans()
	if err != nil {
		return fmt.Errorf("path plans: %w", err)
	}
	spec := pp.Spec()
	for i, seed := range ctx.c.ProfileSeeds {
		run := ctx.runs[i]
		if run.Paths == nil {
			// The case profiled under Sarkar: re-run instrumented. Path
			// instrumentation never changes execution, so this is the same
			// trace with path counters attached.
			r, rerr := ctx.run(interp.Options{
				Seed: seed, Model: &ctx.model, MaxSteps: ctx.c.MaxSteps, PathSpec: spec,
			})
			if rerr != nil {
				return fmt.Errorf("seed %d: instrumented re-run: %w", seed, rerr)
			}
			run = r
		}
		pathProf, err := pp.Profile(run)
		if err != nil {
			return fmt.Errorf("seed %d: path recovery: %w", seed, err)
		}
		sarkarProf, err := ctx.plans.Profile(run)
		if err != nil {
			return fmt.Errorf("seed %d: sarkar recovery: %w", seed, err)
		}
		for name, a := range ctx.an.Procs {
			exact := profiler.ExactTotals(a, run)
			got := pathProf[name]
			for c, w := range exact {
				if g := got[c]; g != w {
					return fmt.Errorf("seed %d proc %s: path recovery TOTAL%v = %g, exact %g",
						seed, name, c, g, w)
				}
			}
			for c := range got {
				if _, ok := exact[c]; !ok {
					return fmt.Errorf("seed %d proc %s: path recovery invented condition %v",
						seed, name, c)
				}
			}
			sk := sarkarProf[name]
			for c, w := range got {
				if g := sk[c]; !near(g, w) {
					return fmt.Errorf("seed %d proc %s: sarkar TOTAL%v = %g, path recovery %g",
						seed, name, c, g, w)
				}
			}
		}
	}
	return nil
}

func checkEngineEquiv(ctx *evalCtx) error {
	if ctx.progErr != nil {
		return fmt.Errorf("bytecode compile bailed on a generated program: %w", ctx.progErr)
	}
	vmRef := interp.EffectiveEngine(ctx.c.Engine).VMBased()
	for i, seed := range ctx.c.ProfileSeeds {
		m := ctx.model
		opt := interp.Options{Seed: seed, Model: &m, MaxSteps: ctx.c.MaxSteps}
		var other *interp.Result
		var rerr error
		if vmRef {
			opt.Engine = interp.EngineTree
			other, rerr = interp.Run(ctx.res, opt)
		} else {
			other, rerr = ctx.prog.Run(opt)
		}
		if rerr != nil {
			return fmt.Errorf("seed %d: opposite-engine run failed: %w", seed, rerr)
		}
		if d := diffRunResults(ctx.runs[i], other); d != "" {
			return fmt.Errorf("seed %d: engines disagree: %s", seed, d)
		}
	}
	// Batch-engine sample: two lanes exercise both the arena-backed frame
	// reuse and the lane sharding; the sink diffs each seed in place
	// against the case's profiled run.
	var (
		mu       sync.Mutex
		batchErr error
	)
	m := ctx.model
	_, err := ctx.prog.RunBatch(interp.Options{Model: &m, MaxSteps: ctx.c.MaxSteps},
		ctx.c.ProfileSeeds, 2,
		func(idx int, seed uint64, r *interp.Result, rerr error) bool {
			mu.Lock()
			defer mu.Unlock()
			if batchErr != nil {
				return false
			}
			if rerr != nil {
				batchErr = fmt.Errorf("seed %d: batch-engine run failed: %w", seed, rerr)
			} else if d := diffRunResults(ctx.runs[idx], r); d != "" {
				batchErr = fmt.Errorf("seed %d: batch engine disagrees: %s", seed, d)
			}
			return false
		})
	if err != nil {
		return err
	}
	return batchErr
}

// diffRunResults describes the first difference between two runs, or ""
// when they are bit-identical. Cost is compared with ==, not near(): both
// engines must accumulate the same floats in the same order.
func diffRunResults(a, b *interp.Result) string {
	if a.Steps != b.Steps {
		return fmt.Sprintf("steps %d vs %d", a.Steps, b.Steps)
	}
	if a.Cost != b.Cost {
		return fmt.Sprintf("cost %.17g vs %.17g", a.Cost, b.Cost)
	}
	if a.Stopped != b.Stopped {
		return fmt.Sprintf("stopped %v vs %v", a.Stopped, b.Stopped)
	}
	if !reflect.DeepEqual(a.StopFrames, b.StopFrames) {
		return fmt.Sprintf("stop frames %+v vs %+v", a.StopFrames, b.StopFrames)
	}
	if len(a.ByProc) != len(b.ByProc) {
		return fmt.Sprintf("%d procs vs %d", len(a.ByProc), len(b.ByProc))
	}
	for name, ca := range a.ByProc {
		cb := b.ByProc[name]
		if cb == nil {
			return fmt.Sprintf("proc %s missing", name)
		}
		if ca.Activations != cb.Activations {
			return fmt.Sprintf("proc %s activations %d vs %d", name, ca.Activations, cb.Activations)
		}
		if len(ca.Node) != len(cb.Node) {
			return fmt.Sprintf("proc %s node-table length %d vs %d", name, len(ca.Node), len(cb.Node))
		}
		for id := range ca.Node {
			if ca.Node[id] != cb.Node[id] {
				return fmt.Sprintf("proc %s node %d count %d vs %d", name, id, ca.Node[id], cb.Node[id])
			}
		}
		for id := range ca.Edge {
			if len(ca.Edge[id]) != len(cb.Edge[id]) {
				return fmt.Sprintf("proc %s node %d edge-table length %d vs %d", name, id, len(ca.Edge[id]), len(cb.Edge[id]))
			}
			for k := range ca.Edge[id] {
				if ca.Edge[id][k] != cb.Edge[id][k] {
					return fmt.Sprintf("proc %s edge %d/%d count %d vs %d", name, id, k, ca.Edge[id][k], cb.Edge[id][k])
				}
			}
		}
	}
	return ""
}

// checkCheckerClean asserts the generated program is clean under the
// static verification passes — progen emits structured control flow, so an
// error-severity finding means either the generator or a checker pass is
// wrong. It also re-proves every counter plan with the rank check, tying
// the static soundness certificate to the same cases recovery-exact
// validates at run time.
func checkCheckerClean(ctx *evalCtx) error {
	for name, a := range ctx.an.Procs {
		diags, err := check.Proc(a, check.Options{})
		if err != nil {
			return fmt.Errorf("check %s: %v", name, err)
		}
		for _, d := range diags {
			if d.Severity == report.Error {
				return fmt.Errorf("check %s: %s", name, d)
			}
		}
		if plan := ctx.plans[name]; plan != nil {
			if bad := check.VerifyPlan(plan); len(bad) > 0 {
				return fmt.Errorf("plan %s not certified: %s", name, bad[0])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Artifact-cache round trip.

// checkArtifactRoundTrip pins the on-disk artifact format: saving a cold
// pipeline's per-procedure artifacts and reloading them from the cache
// must be lossless. For every engine the cold and warm pipelines must
// agree bit-for-bit on the encoded counter plans, the recovered profile,
// and every procedure's TIME/VAR — the invariant form of the paper's
// premise that analysis is done once and amortized over many runs.
func checkArtifactRoundTrip(ctx *evalCtx) error {
	dir, err := os.MkdirTemp(ctx.c.CacheDir, "oracle-artifact-")
	if err != nil {
		return fmt.Errorf("temp cache dir: %v", err)
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir)
	if err != nil {
		return fmt.Errorf("open cache: %v", err)
	}
	m := ctx.model
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM, interp.EngineVMBatch} {
		opts := core.LoadOptions{Cache: store, Engine: eng, Plan: ctx.c.Plan}
		cold, err := core.LoadOpts(ctx.c.Src, opts)
		if err != nil {
			return fmt.Errorf("engine %v: cold load: %v", eng, err)
		}
		warm, err := core.LoadOpts(ctx.c.Src, opts)
		if err != nil {
			return fmt.Errorf("engine %v: warm load: %v", eng, err)
		}
		coldPlans, err := cold.Plans()
		if err != nil {
			return fmt.Errorf("engine %v: cold plans: %v", eng, err)
		}
		warmPlans, err := warm.Plans()
		if err != nil {
			return fmt.Errorf("engine %v: warm plans: %v", eng, err)
		}
		for name, cp := range coldPlans {
			wp := warmPlans[name]
			if wp == nil {
				return fmt.Errorf("engine %v: proc %s: plan lost across reload", eng, name)
			}
			var cw, ww wire.Writer
			cp.Encode(&cw)
			wp.Encode(&ww)
			if !bytes.Equal(cw.Bytes(), ww.Bytes()) {
				return fmt.Errorf("engine %v: proc %s: reloaded counter plan differs from cold", eng, name)
			}
		}
		coldProf, _, err := cold.Profile(interp.Options{Model: &m, MaxSteps: ctx.c.MaxSteps}, ctx.c.ProfileSeeds...)
		if err != nil {
			return fmt.Errorf("engine %v: cold profile: %v", eng, err)
		}
		warmProf, _, err := warm.Profile(interp.Options{Model: &m, MaxSteps: ctx.c.MaxSteps}, ctx.c.ProfileSeeds...)
		if err != nil {
			return fmt.Errorf("engine %v: warm profile: %v", eng, err)
		}
		if !reflect.DeepEqual(coldProf, warmProf) {
			return fmt.Errorf("engine %v: recovered profile differs across reload", eng)
		}
		coldEst, err := cold.Estimate(m, core.Options{}, ctx.c.ProfileSeeds...)
		if err != nil {
			return fmt.Errorf("engine %v: cold estimate: %v", eng, err)
		}
		warmEst, err := warm.Estimate(m, core.Options{}, ctx.c.ProfileSeeds...)
		if err != nil {
			return fmt.Errorf("engine %v: warm estimate: %v", eng, err)
		}
		for name, ce := range coldEst.Procs {
			we := warmEst.Procs[name]
			if we == nil {
				return fmt.Errorf("engine %v: proc %s: estimate lost across reload", eng, name)
			}
			if ce.Time != we.Time || ce.Var != we.Var {
				return fmt.Errorf("engine %v: proc %s: TIME/VAR not bit-identical: %.17g/%.17g vs %.17g/%.17g",
					eng, name, ce.Time, ce.Var, we.Time, we.Var)
			}
		}
	}
	return nil
}
