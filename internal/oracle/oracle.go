// Package oracle is the repository's standing correctness gate: a
// differential and metamorphic verification harness that runs the full
// paper pipeline (parse → lower → interval/ECFG → FCDG → counter placement
// → profile → recover → TIME/VAR estimation) over generated programs and
// checks a registry of named invariants on every run.
//
// The invariants are the paper's central equalities plus consistency
// properties no correct implementation may violate:
//
//   - optimized counter placement recovers the exact TOTAL_FREQ of every
//     control condition, and never uses more counters than the naive
//     per-block scheme (differential check against profiler.ExactTotals
//     and PlanNaive);
//   - the NODE_FREQ recurrence reproduces the interpreter's exact node
//     counts;
//   - TIME(START) equals the measured mean trace cost over the profiled
//     runs, and VAR(START) is non-negative everywhere;
//   - on branch-free programs VAR(START) equals the sample variance of the
//     measured costs (both exactly zero), and programs whose only control
//     flow is constant-trip exit-free DO loops report VAR(START) = 0
//     exactly (the estimator proves their tests deterministic);
//   - scaling the cost model by k scales TIME by k and VAR by k²;
//   - semantics-preserving source transformations (swapping IF arms under a
//     complemented condition, wrapping a statement in a one-trip DO,
//     splitting a straight-line block with a forward GOTO) leave TIME and
//     VAR unchanged (metamorphic checks).
//
// Failures are minimized by shrinking the generator's size and depth knobs
// until the smallest program that still violates the invariant is found;
// the report carries the knobs needed to reproduce it.
package oracle

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/progen"
	"repro/internal/vm"
)

// Kind classifies the program family a case was drawn from.
type Kind int

// Program families.
const (
	// KindRandom is the full progen family: RAND-driven branches, nested
	// loops, unstructured GOTO gadgets, calls.
	KindRandom Kind = iota
	// KindBranchFree is the deterministic family: straight-line code with
	// no control flow at all, so every seed executes the same trace and the
	// modeled variance is exactly zero.
	KindBranchFree
	// KindDetLoop is branch-free code plus exit-free counted DO loops with
	// compile-time-constant bounds: still fully deterministic, so VAR(START)
	// must be exactly zero — the estimator prices proven constant-trip tests
	// as deterministic selections, not Bernoulli branches.
	KindDetLoop
)

func (k Kind) String() string {
	switch k {
	case KindBranchFree:
		return "branch-free"
	case KindDetLoop:
		return "det-loop"
	}
	return "random"
}

// Case is one generated program together with its evaluation knobs.
type Case struct {
	Seed  uint64
	Size  int
	Depth int
	Kind  Kind
	// ProfileSeeds are the interpreter seeds profiled and averaged over.
	ProfileSeeds []uint64
	// MaxSteps bounds every interpreter run of the case (0 = the
	// interpreter default).
	MaxSteps int64
	// Engine selects the execution substrate for the case's profiled runs
	// (EngineDefault resolves as in interp). The engine-equiv invariant
	// additionally re-runs every seed on the opposite engine.
	Engine interp.Engine
	// CacheDir optionally roots the scratch cache directories of the
	// artifact-roundtrip invariant (empty = system temp).
	CacheDir string
	// Plan selects the counter-placement strategy the case's profile is
	// recovered with (StrategyDefault resolves as in core). The plan-equiv
	// invariant additionally checks both strategies against each other.
	Plan core.Strategy
	// ConstFacts asks progen for its dataflow gadget block: conditions and
	// loop bounds decided only by propagated constants, a dead store and a
	// zero-initialized read, so the dataflow-sound invariant has real facts
	// to check. Only meaningful for KindRandom cases.
	ConstFacts bool
	// Stops asks progen for its stopping family (random STOPs plus calls
	// into a stopping leaf), so runs can terminate mid-flight. Only
	// meaningful for KindRandom cases. The estimator-level invariants
	// (time-mean, node-freq, var-*) model completed executions and are not
	// expected to hold on truncated runs; a stops corpus should select the
	// takings-level invariants (recovery-exact, engine-equiv, plan-equiv).
	Stops bool
	// Src is the program text; filled by Generate, or set directly to
	// check an externally supplied source.
	Src string
}

// NewCase generates the program for (seed, size, depth, kind) with the
// given number of profile runs.
func NewCase(seed uint64, size, depth int, kind Kind, profileRuns int) *Case {
	return NewCaseOpts(seed, size, depth, kind, profileRuns, false)
}

// NewCaseOpts is NewCase plus the ConstFacts generator knob (ignored for
// the non-random families, which must stay fully deterministic).
func NewCaseOpts(seed uint64, size, depth int, kind Kind, profileRuns int, constFacts bool) *Case {
	constFacts = constFacts && kind == KindRandom
	c := &Case{Seed: seed, Size: size, Depth: depth, Kind: kind,
		ConstFacts: constFacts, MaxSteps: 20_000_000}
	if profileRuns < 1 {
		profileRuns = 1
	}
	for i := 0; i < profileRuns; i++ {
		c.ProfileSeeds = append(c.ProfileSeeds, seed+uint64(i))
	}
	c.Generate()
	return c
}

// Generate (re)derives Src from the case's seed and generator knobs.
// Callers that flip knobs after construction (Stops) call it again; the
// generation is deterministic in the fields.
func (c *Case) Generate() {
	c.Src = progen.GenerateOpts(c.Seed, c.Size, c.Depth, progen.Opts{
		BranchFree: c.Kind == KindBranchFree || c.Kind == KindDetLoop,
		ConstLoops: c.Kind == KindDetLoop,
		ConstFacts: c.ConstFacts,
		Stops:      c.Stops && c.Kind == KindRandom,
	})
}

// evalCtx holds everything the invariants inspect: the analyzed program,
// one costed interpreter run per profile seed, the recovered profile
// accumulated over those runs, and the resulting estimate.
type evalCtx struct {
	c     *Case
	model cost.Model
	res   *lower.Result
	an    *analysis.Program
	plans profiler.Plans
	// pathPlans caches the Ball–Larus numberings, built on first use (by
	// the plan-equiv invariant, or eagerly under StrategyBallLarus).
	pathPlans *pathprof.Plans
	// prog is the program compiled once for the bytecode VM; every VM run
	// of the case uses it.
	prog *vm.Program
	runs []*interp.Result
	// profile accumulates the smart-recovered totals over all runs.
	profile map[string]freq.Totals
	// exact accumulates profiler.ExactTotals over all runs.
	exact map[string]freq.Totals
	est   *core.ProgramEstimate
	// measured is the exact trace cost of each run.
	measured []float64
}

// baseModel is the cost model cases are evaluated under.
var baseModel = cost.Optimized

// structuralModel prices only real work (multiplies, divides, loads,
// intrinsics, calls, prints); control scaffolding — branches, jumps, loop
// bookkeeping, add/sub and stores — is free. Under it, wrapping a statement
// in a one-trip DO adds exactly zero cost, which makes the wrap-DO
// metamorphic identity exact instead of approximate.
var structuralModel = cost.Model{
	Name: "structural",
	Mul:  1, Div: 8, Pow: 20, Intrin: 20,
	Load: 0.5, IndexCalc: 0.5,
	CallOvhd: 10, PrintOp: 50,
	CounterUpdate: 3, CounterAdd: 4,
}

// eval runs the whole pipeline on src under model m, profiling every seed
// in c.ProfileSeeds. Pipeline errors (parse, lower, analyze, run) are
// returned as *PipelineError so callers can tell "the program is outside
// the supported subset" apart from "an invariant is violated".
func (c *Case) eval(src string, m cost.Model) (*evalCtx, error) {
	ctx := &evalCtx{
		c:       c,
		model:   m,
		profile: make(map[string]freq.Totals),
		exact:   make(map[string]freq.Totals),
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, &PipelineError{Stage: "parse", Err: err}
	}
	ctx.res, err = lower.Lower(prog)
	if err != nil {
		return nil, &PipelineError{Stage: "lower", Err: err}
	}
	ctx.an, err = analysis.AnalyzeProgram(ctx.res)
	if err != nil {
		return nil, &PipelineError{Stage: "analyze", Err: err}
	}
	ctx.plans, err = profiler.BuildPlans(ctx.an)
	if err != nil {
		return nil, &PipelineError{Stage: "plan", Err: err}
	}
	// Under the Ball–Larus strategy every run carries path instrumentation
	// and the profile is recovered from path counts instead of the Sarkar
	// counter readings; every invariant then gates the path pipeline.
	var spec *interp.PathSpec
	if core.EffectiveStrategy(c.Plan) == core.StrategyBallLarus {
		if _, err := ctx.pathProfPlans(); err != nil {
			return nil, &PipelineError{Stage: "plan", Err: err}
		}
		spec = ctx.pathPlans.Spec()
	}
	// The front end accepts only programs the compiler can translate, so
	// a compile error is a bug, not a rejection: no *PipelineError.
	ctx.prog, err = vm.Compile(ctx.res)
	if err != nil {
		return nil, fmt.Errorf("bytecode compile of an accepted program: %w", err)
	}
	for _, seed := range c.ProfileSeeds {
		run, err := ctx.run(interp.Options{Seed: seed, Model: &m, MaxSteps: c.MaxSteps, PathSpec: spec})
		if err != nil {
			return nil, &PipelineError{Stage: "run", Err: err}
		}
		ctx.runs = append(ctx.runs, run)
		ctx.measured = append(ctx.measured, run.Cost)
		var prof profiler.ProgramProfile
		if spec != nil {
			prof, err = ctx.pathPlans.Profile(run)
		} else {
			prof, err = ctx.plans.Profile(run)
		}
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		for name, totals := range prof {
			if ctx.profile[name] == nil {
				ctx.profile[name] = make(freq.Totals)
			}
			ctx.profile[name].Add(totals)
		}
		for name, a := range ctx.an.Procs {
			if ctx.exact[name] == nil {
				ctx.exact[name] = make(freq.Totals)
			}
			ctx.exact[name].Add(profiler.ExactTotals(a, run))
		}
	}
	costs := make(map[string]cost.Table, len(ctx.res.Procs))
	for name, proc := range ctx.res.Procs {
		costs[name] = m.Table(proc)
	}
	ctx.est, err = core.EstimateProgram(ctx.an, ctx.profile, costs, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("estimate: %w", err)
	}
	return ctx, nil
}

// run executes the case's program once on the case's engine: the
// compiled program on the VM, the tree-walker on the tree engine.
func (ctx *evalCtx) run(opt interp.Options) (*interp.Result, error) {
	opt.Engine = ctx.c.Engine
	var c interp.Compiled
	if interp.EffectiveEngine(opt.Engine).VMBased() {
		c = ctx.prog
	}
	return interp.NewLane(ctx.res, c, opt).RunSeed(opt.Seed)
}

// pathProfPlans returns the case's Ball–Larus plans, building them on
// first use over the Sarkar plans (which double as overflow fallbacks).
// Cases are evaluated single-threaded, so no locking is needed.
func (ctx *evalCtx) pathProfPlans() (*pathprof.Plans, error) {
	if ctx.pathPlans == nil {
		pp, err := pathprof.BuildPlansWith(ctx.an, ctx.plans, pathprof.Options{})
		if err != nil {
			return nil, err
		}
		ctx.pathPlans = pp
	}
	return ctx.pathPlans, nil
}

// PipelineError marks a failure of the pipeline itself (program outside the
// supported subset, run diverged, ...), as opposed to a violated invariant.
type PipelineError struct {
	Stage string
	Err   error
}

func (e *PipelineError) Error() string { return fmt.Sprintf("%s: %v", e.Stage, e.Err) }
func (e *PipelineError) Unwrap() error { return e.Err }

// Check evaluates the case and runs the named invariants (nil = the full
// registry). The first violation is returned; pipeline errors on generated
// programs are violations too (the generator only emits valid programs).
func (c *Case) Check(names []string) error {
	invs, err := selectInvariants(names)
	if err != nil {
		return err
	}
	ctx, err := c.eval(c.Src, baseModel)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	for _, inv := range invs {
		if err := checkOne(inv, ctx); err != nil {
			return fmt.Errorf("%s: %w", inv.Name, err)
		}
	}
	return nil
}

// checkOne runs one invariant, translating skips to nil.
func checkOne(inv Invariant, ctx *evalCtx) error {
	err := inv.Check(ctx)
	if err == errSkip {
		return nil
	}
	return err
}

// ---------------------------------------------------------------------------
// Corpus sweep.

// Config drives a corpus sweep.
type Config struct {
	// SeedStart is the first program seed; Seeds the number of programs.
	SeedStart uint64
	Seeds     int
	// Size and Depth are the generator knobs; Size is the ceiling of a
	// per-seed spread so the corpus mixes program sizes.
	Size, Depth int
	// ProfileRuns is the number of interpreter seeds profiled per program.
	ProfileRuns int
	// BranchFreeEvery makes every k-th case branch-free (0 disables).
	BranchFreeEvery int
	// DetLoopEvery makes every k-th case branch-free-plus-constant-trip-DO
	// (0 disables). When a case index matches both knobs, det-loop wins —
	// it is the stricter family.
	DetLoopEvery int
	// ConstFactsEvery makes every k-th random case carry the progen
	// dataflow gadget block — flow-only-provable dead branches, constant
	// trips, a dead store and a zero-initialized read (0 disables; the
	// branch-free families are never affected).
	ConstFactsEvery int
	// StopsEvery makes every k-th random case generate with the progen
	// stopping family, so some profiled runs STOP mid-flight (0 disables).
	// Pair with an Invariants selection of the takings-level checks; see
	// Case.Stops for why the estimator-level invariants don't apply.
	StopsEvery int
	// Workers bounds concurrent case evaluation (≤0 = GOMAXPROCS).
	Workers int
	// Engine selects the execution substrate every case runs on.
	Engine interp.Engine
	// Plan selects the counter-placement strategy every case profiles with.
	Plan core.Strategy
	// CacheDir optionally roots the artifact-roundtrip invariant's scratch
	// cache directories (empty = system temp).
	CacheDir string
	// Invariants filters the registry by name (empty = all).
	Invariants []string
	// Minimize shrinks failing cases to the smallest size/depth that still
	// fails.
	Minimize bool
	// MaxFailures stops the sweep early after this many failing cases
	// (0 = collect all).
	MaxFailures int
}

// caseFor builds the i-th case of the sweep deterministically.
func (cfg *Config) caseFor(i int) *Case {
	seed := cfg.SeedStart + uint64(i)
	kind := KindRandom
	if cfg.BranchFreeEvery > 0 && i%cfg.BranchFreeEvery == cfg.BranchFreeEvery-1 {
		kind = KindBranchFree
	}
	if cfg.DetLoopEvery > 0 && i%cfg.DetLoopEvery == cfg.DetLoopEvery-1 {
		kind = KindDetLoop
	}
	size := cfg.Size
	if size < 1 {
		size = 8
	}
	// Spread sizes 1..size across the corpus so small and large programs
	// are both exercised.
	size = 1 + int(seed%uint64(size))
	depth := cfg.Depth
	if depth < 1 {
		depth = 3
	}
	constFacts := cfg.ConstFactsEvery > 0 && i%cfg.ConstFactsEvery == cfg.ConstFactsEvery-1
	c := NewCaseOpts(seed, size, depth, kind, cfg.ProfileRuns, constFacts)
	c.Engine = cfg.Engine
	c.Plan = cfg.Plan
	c.CacheDir = cfg.CacheDir
	if cfg.StopsEvery > 0 && i%cfg.StopsEvery == cfg.StopsEvery-1 && kind == KindRandom {
		c.Stops = true
		c.Generate()
	}
	return c
}

// Run sweeps the corpus and reports per-invariant pass/fail counts and
// (optionally minimized) failures. The error return is reserved for
// configuration mistakes; invariant violations land in the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("oracle: config needs Seeds > 0")
	}
	if cfg.SeedStart == 0 {
		cfg.SeedStart = 1
	}
	if cfg.ProfileRuns <= 0 {
		cfg.ProfileRuns = 3
	}
	invs, err := selectInvariants(cfg.Invariants)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Seeds {
		workers = cfg.Seeds
	}

	type caseResult struct {
		c *Case
		// outcome per invariant: nil = pass, errSkip = skipped, else fail.
		outcome []error
		// pipeErr is a whole-pipeline failure (counts against every
		// invariant's case but is reported once).
		pipeErr error
	}
	results := make([]caseResult, cfg.Seeds)
	evalCase := func(i int) {
		c := cfg.caseFor(i)
		results[i].c = c
		ctx, err := c.eval(c.Src, baseModel)
		if err != nil {
			results[i].pipeErr = err
			return
		}
		results[i].outcome = make([]error, len(invs))
		for k, inv := range invs {
			results[i].outcome[k] = inv.Check(ctx)
		}
	}
	if workers <= 1 {
		for i := 0; i < cfg.Seeds; i++ {
			evalCase(i)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					evalCase(i)
				}
			}()
		}
		for i := 0; i < cfg.Seeds; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	}

	rep := &Report{
		Programs:    cfg.Seeds,
		ProfileRuns: cfg.ProfileRuns,
		AllPass:     true,
	}
	for _, inv := range invs {
		rep.Invariants = append(rep.Invariants, InvariantResult{Name: inv.Name, Desc: inv.Desc})
	}
	failing := 0
	for i := range results {
		r := &results[i]
		if r.pipeErr != nil {
			rep.AllPass = false
			failing++
			rep.Failures = append(rep.Failures, newFailure("pipeline", r.c, r.pipeErr, cfg.Minimize))
			continue
		}
		for k := range invs {
			ir := &rep.Invariants[k]
			switch err := r.outcome[k]; {
			case err == errSkip:
				ir.Skipped++
			case err == nil:
				ir.Checked++
			default:
				ir.Checked++
				ir.Failed++
				rep.AllPass = false
				failing++
				rep.Failures = append(rep.Failures, newFailure(invs[k].Name, r.c, err, cfg.Minimize))
			}
		}
		if cfg.MaxFailures > 0 && failing >= cfg.MaxFailures {
			break
		}
	}
	return rep, nil
}

// newFailure records one violation, minimizing it if asked.
func newFailure(invariant string, c *Case, err error, minimize bool) Failure {
	f := Failure{
		Invariant: invariant,
		Seed:      c.Seed,
		Kind:      c.Kind.String(),
		Size:      c.Size,
		Depth:     c.Depth,
		Error:     err.Error(),
	}
	f.MinSize, f.MinDepth = c.Size, c.Depth
	f.Source = c.Src
	if minimize {
		if mc, merr := Minimize(c, invariant); mc != nil {
			f.MinSize, f.MinDepth = mc.Size, mc.Depth
			f.Source = mc.Src
			if merr != nil {
				f.Error = merr.Error()
			}
		}
	}
	return f
}

// Minimize searches for the smallest (size, depth) at which the case's
// seed still violates the invariant (or, for invariant "pipeline", still
// fails the pipeline). It returns the minimized case and its error, or
// (nil, nil) if no smaller configuration reproduces the failure.
func Minimize(c *Case, invariant string) (*Case, error) {
	fails := func(size, depth int) (*Case, error) {
		mc := NewCaseOpts(c.Seed, size, depth, c.Kind, len(c.ProfileSeeds), c.ConstFacts)
		mc.Engine = c.Engine
		mc.Plan = c.Plan
		if c.Stops {
			mc.Stops = true
			mc.Generate()
		}
		var err error
		if invariant == "pipeline" {
			_, err = mc.eval(mc.Src, baseModel)
		} else {
			err = mc.Check([]string{invariant})
		}
		if err != nil {
			return mc, err
		}
		return nil, nil
	}
	// Depth-first then size-first scan from the smallest knobs up; the
	// first reproducer found is the minimal one in (depth, size) order.
	for depth := 1; depth <= c.Depth; depth++ {
		for size := 1; size <= c.Size; size++ {
			if size == c.Size && depth == c.Depth {
				return nil, nil // only the original reproduces
			}
			if mc, err := fails(size, depth); mc != nil {
				return mc, err
			}
		}
	}
	return nil, nil
}
