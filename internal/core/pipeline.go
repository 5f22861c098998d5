package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/staticfreq"
	"repro/internal/vm"
)

// Pipeline is the one-stop entry point used by the command-line tools and
// the examples: parse → lower → analyze → profile → estimate.
type Pipeline struct {
	Prog *lang.Program
	Res  *lower.Result
	An   *analysis.Program

	// Workers bounds the concurrency of the per-procedure analysis and
	// the per-seed profiling runs; ≤ 0 means GOMAXPROCS. Results are
	// bit-identical for every worker count.
	Workers int

	// Trace, when non-nil, receives per-phase spans from every pipeline
	// stage run through this Pipeline (parse, lower, analyze and its
	// sub-phases, plan, compile, profile, recover, estimate). Tracing never
	// changes results; a nil trace costs nothing.
	Trace *obs.Trace

	// Engine selects the execution substrate for Profile, Estimate and
	// MeasuredCost when the per-call interp.Options leave it at
	// EngineDefault. EngineVM compiles the program to bytecode once and
	// runs every seed against the shared artifact; both engines produce
	// bit-identical results.
	Engine interp.Engine

	// Plan selects the counter-placement strategy for Profile and
	// Estimate: the paper's optimized Sarkar placement (the default) or
	// Ball–Larus path profiling with exact edge recovery.
	Plan Strategy

	// plans caches one optimized counter placement per procedure; plans
	// depend only on the analysis, so they are computed once and shared by
	// every profiling run.
	plansOnce sync.Once
	plans     profiler.Plans
	plansErr  error

	// pathPlans caches the Ball–Larus numberings (built over the cached
	// Sarkar plans, which serve as per-procedure overflow fallbacks).
	pathOnce  sync.Once
	pathPlans *pathprof.Plans
	pathErr   error

	// vmProg caches the one-time bytecode compilation shared by every
	// VM-engine run.
	vmOnce sync.Once
	vmProg *vm.Program
	vmErr  error

	// static and detTests are the estimator inputs withPlanDetTests
	// derives for default Options, and costs the COST tables per cost
	// model; see EstimateWithProfile.
	staticOnce sync.Once
	static     map[string]map[cdg.Condition]float64
	detTests   map[string]map[cfg.NodeID]bool
	costMu     sync.Mutex
	costs      map[cost.Model]map[string]cost.Table

	// cache, when non-nil, is the on-disk artifact cache this load was
	// keyed against: decoded plans seed the lazy plan builder above, and
	// missed procedures are written back after re-derivation (see cache.go).
	cache *cacheState
}

// LoadOptions configures LoadOpts beyond the defaults.
type LoadOptions struct {
	// Workers bounds the per-procedure analysis concurrency; ≤ 0 means
	// GOMAXPROCS. The count is retained for later Profile calls.
	Workers int

	// CheckProc, when non-nil, runs inside the analysis worker pool on
	// every successfully analyzed procedure (see analysis.Options).
	CheckProc func(*analysis.Proc) error

	// Trace, when non-nil, collects per-phase spans (see Pipeline.Trace).
	Trace *obs.Trace

	// Engine is retained as the Pipeline's default execution engine (see
	// Pipeline.Engine).
	Engine interp.Engine

	// Plan is retained as the Pipeline's counter-placement strategy (see
	// Pipeline.Plan).
	Plan Strategy

	// Cache, when non-nil, is the on-disk compiled-artifact store. Loading
	// consults it per procedure (keyed by source hash, program linkage,
	// engine and plan) and re-derives only the misses; re-derived artifacts
	// are written back so the next load of the same source starts warm.
	// The cache never changes results — decoded artifacts are bit-identical
	// to freshly computed ones, and any unreadable entry is silently
	// re-derived.
	Cache *artifact.Store
}

// Load parses and analyzes a source program with GOMAXPROCS workers.
func Load(src string) (*Pipeline, error) { return LoadWorkers(src, 0) }

// LoadWorkers parses and analyzes a source program, fanning the
// per-procedure analysis out to the given number of workers (≤ 0 means
// GOMAXPROCS). The worker count is retained for later Profile calls.
func LoadWorkers(src string, workers int) (*Pipeline, error) {
	return LoadOpts(src, LoadOptions{Workers: workers})
}

// LoadOpts is the general entry point: parse, lower, and analyze with the
// given options.
func LoadOpts(src string, opts LoadOptions) (*Pipeline, error) {
	return LoadCtx(context.Background(), src, opts)
}

// LoadCtx is LoadOpts under a cancellation context, checked between the
// front-end phases (parse, lower, analyze): a caller whose deadline expires
// mid-load gets ctx.Err() back instead of paying for the remaining phases.
func LoadCtx(ctx context.Context, src string, opts LoadOptions) (*Pipeline, error) {
	tr := opts.Trace
	sp := tr.Start("parse")
	prog, err := lang.Parse(src)
	sp.End(obs.M("source_bytes", float64(len(src))))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = tr.Start("lower")
	res, err := lower.Lower(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var st *cacheState
	var prebuilt map[string]*analysis.Proc
	if opts.Cache != nil {
		st, prebuilt = loadCache(opts.Cache, prog, res, opts.Engine, opts.Plan, tr)
	}
	an, err := analysis.AnalyzeProgramOpts(res, analysis.Options{
		Workers:   opts.Workers,
		CheckProc: opts.CheckProc,
		Trace:     tr,
		Prebuilt:  prebuilt,
	})
	if err != nil {
		return nil, err
	}
	var nodes int
	for _, proc := range res.Procs {
		nodes += proc.G.NumNodes()
	}
	obs.Default.Add("pipeline.procs", int64(len(res.Procs)))
	obs.Default.Add("pipeline.cfg_nodes", int64(nodes))
	p := &Pipeline{Prog: prog, Res: res, An: an, Workers: opts.Workers, Trace: tr, Engine: opts.Engine, Plan: opts.Plan, cache: st}
	if st != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Eagerly drive the plan builder so misses are re-derived and
		// written back now, while the load still owns the wall clock —
		// hits make this cheap, and the first Profile pays no planning.
		p.warmAndSave()
	}
	return p, nil
}

// compiledFor resolves o's engine, or the pipeline's when o leaves it at
// EngineDefault: the bytecode program, compiled once on first use, or nil
// for the tree-walker. lang.Analyze accepts only programs the compiler
// can translate, so a compile error is a bug, and it is returned, never
// worked around on another engine.
func (p *Pipeline) compiledFor(o interp.Options) (interp.Compiled, error) {
	eng := o.Engine
	if eng == interp.EngineDefault {
		eng = p.Engine
	}
	if !interp.EffectiveEngine(eng).VMBased() {
		return nil, nil
	}
	p.vmOnce.Do(func() {
		sp := p.Trace.Start("compile")
		p.vmProg, p.vmErr = vm.Compile(p.Res)
		sp.End()
	})
	if p.vmErr != nil {
		return nil, p.vmErr
	}
	return p.vmProg, nil
}

// CompileEngine compiles the program for the pipeline's engine now, so
// the first run pays nothing for it; on the tree engine it does nothing.
func (p *Pipeline) CompileEngine() error {
	_, err := p.compiledFor(interp.Options{})
	return err
}

// runSingle executes one seed under the resolved engine, as a lane that
// runs one seed.
func (p *Pipeline) runSingle(o interp.Options) (*interp.Result, error) {
	c, err := p.compiledFor(o)
	if err != nil {
		return nil, err
	}
	return interp.NewLane(p.Res, c, o).RunSeed(o.Seed)
}

// profilePlans returns the per-procedure counter plans, computing them on
// first use.
func (p *Pipeline) profilePlans() (profiler.Plans, error) {
	p.plansOnce.Do(func() {
		sp := p.Trace.Start("plan")
		var prebuilt map[string]*profiler.Plan
		if p.cache != nil {
			prebuilt = p.cache.sarkar
		}
		p.plans, p.plansErr = profiler.BuildPlansPrebuilt(p.An, prebuilt)
		if p.plansErr == nil {
			var counters, blocks, trials, steps int
			for name, plan := range p.plans {
				counters += plan.NumCounters()
				blocks += len(profiler.BlockLeaders(p.An.Procs[name].P.G))
				if plan != prebuilt[name] {
					// Planned just now, so its recovery schedule is
					// already fixed; decoded plans derive theirs on
					// first recovery and are not charged here.
					trials += plan.Trials()
					steps += plan.RecoverSteps()
				}
			}
			obs.Default.Add("pipeline.counters", int64(counters))
			obs.Default.Add("pipeline.blocks", int64(blocks))
			obs.Default.Add("pipeline.plan_trials", int64(trials))
			obs.Default.Add("pipeline.recover_steps", int64(steps))
			sp.End(obs.M("counters", float64(counters)), obs.M("blocks", float64(blocks)),
				obs.M("trials", float64(trials)), obs.M("recover_steps", float64(steps)))
		} else {
			sp.End()
		}
	})
	return p.plans, p.plansErr
}

// pathProfPlans returns the Ball–Larus path plans, computing them on first
// use. The cached Sarkar plans double as per-procedure fallbacks for
// numberings that overflow Options.MaxPaths.
func (p *Pipeline) pathProfPlans() (*pathprof.Plans, error) {
	p.pathOnce.Do(func() {
		sk, err := p.profilePlans()
		if err != nil {
			p.pathErr = err
			return
		}
		sp := p.Trace.Start("plan.paths")
		p.pathPlans, p.pathErr = pathprof.BuildPlansWith(p.An, sk, pathprof.Options{})
		if p.pathErr == nil {
			var fallbacks int64
			for _, pl := range p.pathPlans.ByProc {
				if !pl.Instrumented() {
					fallbacks++
				}
			}
			obs.Default.Add("pipeline.path_fallbacks", fallbacks)
			sp.End(obs.M("fallbacks", float64(fallbacks)))
		} else {
			sp.End()
		}
	})
	return p.pathPlans, p.pathErr
}

// Plans exposes the cached per-procedure counter plans (building them on
// first use) — the analysis service reports each procedure's placement
// without rebuilding what Profile already computed.
func (p *Pipeline) Plans() (profiler.Plans, error) { return p.profilePlans() }

// Profile executes the program once per seed with optimized counter-based
// profiling and returns the accumulated per-procedure TOTAL_FREQ profile
// (the program-database content) together with the last run's result.
// Results are bit-identical for every worker count.
func (p *Pipeline) Profile(opts interp.Options, seeds ...uint64) (profiler.ProgramProfile, *interp.Result, error) {
	return p.ProfileCtx(context.Background(), opts, seeds...)
}

// ProfileCtx is Profile under a cancellation context, checked before every
// seed on every engine: a caller whose deadline expires mid-profile stops
// paying after the seeds in flight. Individual engine runs are bounded by
// opts.MaxSteps, so cancellation latency is at most one seed's step
// budget; the dispatch loops carry no cancellation checks.
//
// Seeds run through interp.RunBatchOn on up to Workers lanes; runs
// carrying an output writer or per-node hooks use one lane, which runs
// seeds in order. The lane's sink adds each run to the strategy's seed
// accumulator while its reusable result storage is still live: counter
// readings under the Sarkar plan (profiler.SeedSum), path counts under
// Ball–Larus (pathprof.SeedSum). After the batch the accumulator recovers
// every procedure once from the sum, as the paper's program database
// does; DESIGN §18 gives the argument that this is bit-identical to
// summing per-seed recoveries.
func (p *Pipeline) ProfileCtx(ctx context.Context, opts interp.Options, seeds ...uint64) (profiler.ProgramProfile, *interp.Result, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	plans, err := p.profilePlans()
	if err != nil {
		return nil, nil, err
	}
	var acc interface {
		Add(idx int, run *interp.Result) error
		Profile() (profiler.ProgramProfile, error)
	}
	if EffectiveStrategy(p.Plan) == StrategyBallLarus {
		pp, err := p.pathProfPlans()
		if err != nil {
			return nil, nil, err
		}
		opts.PathSpec = pp.Spec()
		acc = pp.NewSeedSum(len(seeds))
	} else {
		acc = plans.NewSeedSum(len(seeds))
	}
	c, err := p.compiledFor(opts)
	if err != nil {
		return nil, nil, err
	}

	// Only the last seed's run is retained, for the returned Result.
	errs := make([]error, len(seeds))
	lastIdx := len(seeds) - 1
	var last *interp.Result
	sink := func(idx int, _ uint64, run *interp.Result, err error) bool {
		if err == nil {
			err = acc.Add(idx, run)
		}
		errs[idx] = err
		if idx == lastIdx && err == nil {
			// Exactly one lane owns the last index; the write is published
			// to this goroutine by RunBatchOn's completion barrier.
			last = run
			return true
		}
		return false
	}
	sp := p.Trace.Start("profile")
	stats, err := interp.RunBatchOn(ctx, p.Res, c, opts, seeds, p.Workers, sink)
	sp.End(obs.M("seeds", float64(stats.Seeds)), obs.M("steps", float64(stats.Steps)),
		obs.M("lanes", float64(stats.Lanes)), obs.M("exec_ms", float64(stats.ExecNanos)/1e6))
	if err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	sp = p.Trace.Start("recover")
	prof, err := acc.Profile()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return prof, last, nil
}

// HotPaths runs one seed under Ball–Larus path instrumentation and
// returns the top-k most frequently completed acyclic paths per
// procedure (see pathprof.Plans.HotPaths). It works under any Plan
// setting: the path plans are built on demand.
func (p *Pipeline) HotPaths(opts interp.Options, k int) ([]pathprof.HotPath, error) {
	pp, err := p.pathProfPlans()
	if err != nil {
		return nil, err
	}
	opts.PathSpec = pp.Spec()
	run, err := p.runSingle(opts)
	if err != nil {
		return nil, err
	}
	return pp.HotPaths(run, k)
}

// CostTables computes COST(u) for every procedure under a cost model.
func (p *Pipeline) CostTables(m cost.Model) map[string]cost.Table {
	out := make(map[string]cost.Table, len(p.Res.Procs))
	for name, proc := range p.Res.Procs {
		out[name] = m.Table(proc)
	}
	return out
}

// Estimate profiles with the given seeds and estimates under the cost
// model: the full paper pipeline in one call.
func (p *Pipeline) Estimate(m cost.Model, opt Options, seeds ...uint64) (*ProgramEstimate, error) {
	return p.EstimateCtx(context.Background(), m, opt, seeds...)
}

// EstimateCtx is Estimate under a cancellation context (see ProfileCtx for
// the cancellation granularity).
func (p *Pipeline) EstimateCtx(ctx context.Context, m cost.Model, opt Options, seeds ...uint64) (*ProgramEstimate, error) {
	profile, _, err := p.ProfileCtx(ctx, interp.Options{}, seeds...)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.EstimateWithProfile(profile, m, opt)
}

// EstimateWithProfile estimates from an existing profile (e.g. loaded from
// the program database) — the cross-architecture use case: profile once,
// estimate under any cost model.
//
// The inputs that depend only on the pipeline — the static frequencies
// and deterministic DO tests of withPlanDetTests, and the COST tables of
// the model — are computed on first use and shared read-only by later
// calls, concurrent ones included. Options that supply their own static
// frequencies or DO tests, or ask for BernoulliDoTests, merge them anew.
func (p *Pipeline) EstimateWithProfile(profile profiler.ProgramProfile, m cost.Model, opt Options) (*ProgramEstimate, error) {
	sp := p.Trace.Start("estimate")
	defer sp.End()
	costs := p.costTables(m)
	if len(opt.StaticFreq) > 0 || len(opt.DeterministicTests) > 0 || opt.BernoulliDoTests {
		return EstimateProgram(p.An, toTotals(profile), costs, p.withPlanDetTests(opt))
	}
	p.staticOnce.Do(func() {
		o := p.withPlanDetTests(Options{})
		p.static, p.detTests = o.StaticFreq, deterministicTests(p.An, o)
	})
	opt.StaticFreq = p.static
	return estimateProgram(p.An, toTotals(profile), costs, p.detTests, opt)
}

// costTables returns CostTables(m), building it on first use per model.
// The tables are shared: callers must not modify them.
func (p *Pipeline) costTables(m cost.Model) map[string]cost.Table {
	p.costMu.Lock()
	defer p.costMu.Unlock()
	if t, ok := p.costs[m]; ok {
		return t
	}
	t := p.CostTables(m)
	if p.costs == nil {
		p.costs = make(map[cost.Model]map[string]cost.Table)
	}
	p.costs[m] = t
	return t
}

// withPlanDetTests merges the counter plans' RuleDoConstTrip proofs into the
// estimator options, so DO tests the planner proved deterministic are
// priced as deterministic even if the static frequency analysis alone
// could not fold them, and pins the dataflow framework's exact 0/1
// condition frequencies (staticfreq.Exact) so conditions proven infeasible
// estimate at frequency 0 even when no profiled seed exercises the node.
// Plans are cached, so this is cheap after the first Profile call; a plan
// build failure is ignored here — estimation can run on the static proofs
// alone, and the failure resurfaces on Profile.
func (p *Pipeline) withPlanDetTests(opt Options) Options {
	static := make(map[string]map[cdg.Condition]float64, len(p.An.Procs))
	for name, a := range p.An.Procs {
		exact := staticfreq.Exact(a)
		if len(exact) == 0 {
			continue
		}
		// Caller-supplied static frequencies take precedence.
		for c, v := range opt.StaticFreq[name] {
			exact[c] = v
		}
		static[name] = exact
	}
	for name, m := range opt.StaticFreq {
		if _, ok := static[name]; !ok {
			static[name] = m
		}
	}
	opt.StaticFreq = static

	plans, err := p.profilePlans()
	if err != nil {
		return opt
	}
	merged := make(map[string]map[cfg.NodeID]bool, len(plans))
	for name, tests := range opt.DeterministicTests {
		m := make(map[cfg.NodeID]bool, len(tests))
		for id, ok := range tests {
			m[id] = ok
		}
		merged[name] = m
	}
	for name, plan := range plans {
		for _, id := range plan.ConstTripTests() {
			if merged[name] == nil {
				merged[name] = make(map[cfg.NodeID]bool)
			}
			merged[name][id] = true
		}
	}
	opt.DeterministicTests = merged
	return opt
}

func toTotals(p profiler.ProgramProfile) map[string]freq.Totals {
	return map[string]freq.Totals(p)
}

// MeasuredCost runs the program once under the model and returns the exact
// trace cost — the ground truth TIME estimates are validated against.
func (p *Pipeline) MeasuredCost(m cost.Model, seed uint64) (float64, error) {
	run, err := p.runSingle(interp.Options{Seed: seed, Model: &m})
	if err != nil {
		return 0, err
	}
	return run.Cost, nil
}

// Report renders the per-node estimate table of one procedure in the style
// of Figure 3's [COST, TIME, E[T²], VAR, STD_DEV] tuples.
func Report(pe *ProcEstimate) string {
	out := fmt.Sprintf("procedure %s: TIME(START) = %.6g, STD_DEV(START) = %.6g\n",
		pe.A.P.G.Name, pe.Time, pe.StdDev())
	for _, u := range pe.A.FCDG.Topo() {
		e := pe.Node[u]
		out += fmt.Sprintf("  %3d %-24s [COST=%-8.4g TIME=%-10.6g E[T2]=%-12.6g VAR=%-10.6g SD=%-8.4g] freq=%.4g\n",
			u, pe.A.Ext.G.Node(u).Name(), e.Cost, e.Time, e.SecondMoment, e.Var, e.StdDev, pe.Freq.NodeFreq[u])
	}
	return out
}
