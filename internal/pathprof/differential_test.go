package pathprof_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/progen"

	// Link the bytecode engines so interp.Run/RunBatch dispatch to them.
	_ "repro/internal/vm"
)

// The differential corpus: every generated program runs path-instrumented
// on all three engines, and the suite checks
//
//   - the raw path counters (dense/sparse storage and the STOP partials,
//     order included) are bit-identical across tree, vm and vm-batch;
//   - edge/node frequencies recovered from path counts equal the exact
//     interpreter totals on every run (==, no tolerance), stopped or not;
//   - the Sarkar-plan recovery agrees with the path recovery bit-for-bit
//     on every run, STOP-terminated ones included: the stop-aware recovery
//     (profiler.Plan.RecoverRun) caps in-flight loops at their observed
//     partial trips and discounts the frozen frames' committed-but-never-
//     reached nodes, so the RuleDoConstTrip completion assumption no longer
//     leaks into the totals. A third of the corpus generates with
//     progen.Opts.Stops to keep that path hot.
const corpusSize = 200

// corpusCase checks one generated program across engines and plans.
func corpusCase(t *testing.T, seed uint64) {
	size := 1 + int(seed%8)
	src := progen.GenerateOpts(seed, size, 3, progen.Opts{
		BranchFree: seed%5 == 4,
		ConstLoops: seed%10 == 9,
		Stops:      seed%3 == 1,
	})
	prog, err := lang.Parse(src)
	if err != nil {
		t.Errorf("seed %d: parse: %v", seed, err)
		return
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Errorf("seed %d: lower: %v", seed, err)
		return
	}
	ap, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Errorf("seed %d: analyze: %v", seed, err)
		return
	}
	sk, err := profiler.BuildPlans(ap)
	if err != nil {
		t.Errorf("seed %d: sarkar plans: %v", seed, err)
		return
	}
	bl, err := pathprof.BuildPlansWith(ap, sk, pathprof.Options{})
	if err != nil {
		t.Errorf("seed %d: path plans: %v", seed, err)
		return
	}
	spec := bl.Spec()
	profSeeds := []uint64{seed, seed + 1}

	// Reference: the tree-walker, one run per profile seed.
	refs := make([]*interp.Result, len(profSeeds))
	for i, ps := range profSeeds {
		opt := interp.Options{Seed: ps, MaxSteps: 20_000_000, Engine: interp.EngineTree, PathSpec: spec}
		run, err := interp.Run(res, opt)
		if err != nil {
			t.Errorf("seed %d/%d: tree run: %v", seed, ps, err)
			return
		}
		refs[i] = run
		checkRecoveries(t, seed, ps, "tree", ap, sk, bl, run)
	}

	// Single-run VM: bit-identical path counts per seed.
	for i, ps := range profSeeds {
		opt := interp.Options{Seed: ps, MaxSteps: 20_000_000, Engine: interp.EngineVM, PathSpec: spec}
		run, err := interp.Run(res, opt)
		if err != nil {
			t.Errorf("seed %d/%d: vm run: %v", seed, ps, err)
			return
		}
		comparePathRuns(t, seed, ps, "vm", refs[i], run)
		checkRecoveries(t, seed, ps, "vm", ap, sk, bl, run)
	}

	// Batched VM: both profile seeds on one lane, so the second seed
	// exercises the per-seed PathCounts.Reset on reused lane storage.
	runs := make([]*interp.Result, len(profSeeds))
	sink := func(idx int, ps uint64, run *interp.Result, err error) bool {
		if err != nil {
			t.Errorf("seed %d/%d: vm-batch run: %v", seed, ps, err)
			return false
		}
		runs[idx] = run
		return true // retain: we compare after the batch completes
	}
	opt := interp.Options{MaxSteps: 20_000_000, Engine: interp.EngineVMBatch, PathSpec: spec}
	if _, err := interp.RunBatch(res, opt, profSeeds, 1, sink); err != nil {
		t.Errorf("seed %d: vm-batch: %v", seed, err)
		return
	}
	for i, ps := range profSeeds {
		if runs[i] == nil {
			continue
		}
		comparePathRuns(t, seed, ps, "vm-batch", refs[i], runs[i])
		checkRecoveries(t, seed, ps, "vm-batch", ap, sk, bl, runs[i])
	}
}

// checkRecoveries verifies path recovery == exact totals (strict) and
// Sarkar recovery == path recovery, for every run — STOP-terminated runs
// included: the stop-aware Sarkar recovery caps in-flight loops at their
// observed partial trips, so both recoveries agree bit-for-bit.
func checkRecoveries(t *testing.T, seed, ps uint64, engine string,
	ap *analysis.Program, sk profiler.Plans, bl *pathprof.Plans, run *interp.Result) {
	t.Helper()
	pathProf, err := bl.Profile(run)
	if err != nil {
		t.Errorf("seed %d/%d %s: path recovery: %v", seed, ps, engine, err)
		return
	}
	for name, a := range ap.Procs {
		exact := profiler.ExactTotals(a, run)
		got := pathProf[name]
		for c, w := range exact {
			if g := got[c]; g != w {
				t.Errorf("seed %d/%d %s proc %s: path TOTAL%v = %g, exact %g",
					seed, ps, engine, name, c, g, w)
			}
		}
		for c := range got {
			if _, ok := exact[c]; !ok {
				t.Errorf("seed %d/%d %s proc %s: path recovery invented condition %v",
					seed, ps, engine, name, c)
			}
		}
	}
	skProf, err := sk.Profile(run)
	if err != nil {
		t.Errorf("seed %d/%d %s: sarkar recovery: %v", seed, ps, engine, err)
		return
	}
	for name := range ap.Procs {
		got, want := skProf[name], pathProf[name]
		for c, w := range want {
			if g := got[c]; g != w {
				t.Errorf("seed %d/%d %s proc %s: sarkar TOTAL%v = %g, path %g",
					seed, ps, engine, name, c, g, w)
			}
		}
	}
}

// comparePathRuns asserts two runs of the same seed carry bit-identical
// path counters: same storage contents and the same partials in the same
// order, for every procedure.
func comparePathRuns(t *testing.T, seed, ps uint64, engine string, want, got *interp.Result) {
	t.Helper()
	if want.Stopped != got.Stopped || want.Steps != got.Steps {
		t.Errorf("seed %d/%d %s: run diverged: stopped %v/%v steps %d/%d",
			seed, ps, engine, want.Stopped, got.Stopped, want.Steps, got.Steps)
		return
	}
	if !reflect.DeepEqual(want.StopFrames, got.StopFrames) {
		t.Errorf("seed %d/%d %s: stop frames diverged: %+v, want %+v",
			seed, ps, engine, got.StopFrames, want.StopFrames)
		return
	}
	if len(want.Paths) != len(got.Paths) {
		t.Errorf("seed %d/%d %s: %d instrumented procs, tree has %d",
			seed, ps, engine, len(got.Paths), len(want.Paths))
		return
	}
	for name, w := range want.Paths {
		g := got.Paths[name]
		if g == nil {
			t.Errorf("seed %d/%d %s proc %s: missing path counts", seed, ps, engine, name)
			continue
		}
		if d := diffPathCounts(w, g); d != "" {
			t.Errorf("seed %d/%d %s proc %s: %s", seed, ps, engine, name, d)
		}
	}
}

func diffPathCounts(w, g *interp.PathCounts) string {
	if w.NumPaths != g.NumPaths {
		return fmt.Sprintf("NumPaths %d vs %d", g.NumPaths, w.NumPaths)
	}
	switch {
	case w.Dense != nil:
		if g.Dense == nil {
			return "storage kind differs (want dense)"
		}
		for id := range w.Dense {
			if w.Dense[id] != g.Dense[id] {
				return fmt.Sprintf("path %d count %d, want %d", id, g.Dense[id], w.Dense[id])
			}
		}
	case w.Sparse != nil:
		if g.Sparse == nil {
			return "storage kind differs (want sparse)"
		}
		if len(w.Sparse) != len(g.Sparse) {
			return fmt.Sprintf("%d sparse entries, want %d", len(g.Sparse), len(w.Sparse))
		}
		for id, c := range w.Sparse {
			if g.Sparse[id] != c {
				return fmt.Sprintf("path %d count %d, want %d", id, g.Sparse[id], c)
			}
		}
	}
	if len(w.Partials) != len(g.Partials) {
		return fmt.Sprintf("%d partials, want %d", len(g.Partials), len(w.Partials))
	}
	for i := range w.Partials {
		if w.Partials[i] != g.Partials[i] {
			return fmt.Sprintf("partial %d = %+v, want %+v (order matters)", i, g.Partials[i], w.Partials[i])
		}
	}
	return ""
}

func TestDifferentialRecoveryCorpus(t *testing.T) {
	n := corpusSize
	if testing.Short() {
		n = 25
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	work := make(chan uint64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				corpusCase(t, seed)
			}
		}()
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		work <- seed
	}
	close(work)
	wg.Wait()
}
