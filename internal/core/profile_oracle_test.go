package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/livermore"
	"repro/internal/profiler"
	"repro/internal/progen"
	"repro/internal/simplecfd"
)

// perSeedProfile is the reference profile: every seed run on its own and
// every procedure recovered from it by the per-procedure primitive of the
// pipeline's strategy (profiler.Plan.RecoverRun, pathprof.Plan.Recover),
// the per-seed profiles summed in seed order.
func perSeedProfile(p *Pipeline, seeds []uint64) (profiler.ProgramProfile, error) {
	plans, err := p.Plans()
	if err != nil {
		return nil, err
	}
	var opts interp.Options
	byProc := make(map[string]func(*interp.Result) (freq.Totals, error), len(plans))
	for name, plan := range plans {
		byProc[name] = plan.RecoverRun
	}
	if EffectiveStrategy(p.Plan) == StrategyBallLarus {
		pp, err := p.pathProfPlans()
		if err != nil {
			return nil, err
		}
		opts.PathSpec = pp.Spec()
		for name, plan := range pp.ByProc {
			byProc[name] = plan.Recover
		}
	}
	acc := make(profiler.ProgramProfile)
	for _, seed := range seeds {
		opts.Seed = seed
		run, err := p.runSingle(opts)
		if err != nil {
			return nil, err
		}
		for name, rec := range byProc {
			totals, err := rec(run)
			if err != nil {
				return nil, err
			}
			if acc[name] == nil {
				acc[name] = make(freq.Totals)
			}
			acc[name].Add(totals)
		}
	}
	return acc, nil
}

// oracleSources is the corpus the per-seed oracle runs on: the digest
// corpus, the first 20 cold-large programs, LOOPS, SIMPLE and a family of
// programs whose seeds STOP inside called procedures.
func oracleSources(t *testing.T) map[string]string {
	srcs := corpus.Digest(t)
	for j, src := range corpus.ColdLarge(20) {
		srcs[fmt.Sprintf("cold-large/%d", j)] = src
	}
	srcs["LOOPS"] = livermore.Source(24, 1)
	srcs["SIMPLE"] = simplecfd.Source(24, 2)
	for s := uint64(1); s <= 16; s++ {
		srcs[fmt.Sprintf("stops/%d", s)] = progen.GenerateOpts(s, 24, 3, progen.Opts{Stops: true})
	}
	return srcs
}

// TestProfileMatchesPerSeedRecovery: Pipeline.Profile under each counter
// strategy equals per-seed, per-procedure recovery summed in seed order,
// key set and values bit for bit, on every engine's default.
func TestProfileMatchesPerSeedRecovery(t *testing.T) {
	for _, strat := range []Strategy{StrategySarkar, StrategyBallLarus} {
		t.Run(strat.String(), func(t *testing.T) { checkProfileMatchesPerSeed(t, strat) })
	}
}

func checkProfileMatchesPerSeed(t *testing.T, strat Strategy) {
	srcs := oracleSources(t)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, name := range names {
		p, err := LoadOpts(srcs[name], LoadOptions{Plan: strat})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, wantErr := perSeedProfile(p, seeds)
		got, _, err := p.Profile(interp.Options{}, seeds...)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: Profile error %v, per-seed error %v", name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d procedures, per-seed %d", name, len(got), len(want))
		}
		for proc, w := range want {
			g := got[proc]
			if len(g) != len(w) {
				t.Fatalf("%s %s: %d conditions, per-seed %d", name, proc, len(g), len(w))
			}
			for c, wv := range w {
				gv, ok := g[c]
				if !ok || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("%s %s: TOTAL%v = %v (present %v), per-seed %v", name, proc, c, gv, ok, wv)
				}
			}
		}
	}
}
