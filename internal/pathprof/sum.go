package pathprof

import (
	"sort"
	"sync"

	"repro/internal/interp"
	"repro/internal/profiler"
)

// SeedSum profiles a batch of instrumented runs the way profiler.SeedSum
// does for Sarkar readings: a path count is a number of completions, so
// the counts of every run add up, and each procedure decodes the sum once
// instead of once per run. A run's STOP partials are kept beside the sum
// and decoded with it, one taking per partial, exactly as a single run's
// are. Procedures that fell back to their Sarkar plan go into a
// profiler.SeedSum over those plans.
//
// Decoding the sum equals summing per-run decodes bit for bit: every
// count is an integer, edge counts are int64 sums, and every total is an
// integer below 2^53, so its float64 is exact whatever the order the runs
// were added in.
type SeedSum struct {
	// plans are the instrumented procedures, ordered by name; counts[k]
	// sums plans[k]'s path counts over the runs added so far.
	plans    []*Plan
	mu       sync.Mutex
	counts   []*interp.PathCounts
	fallback *profiler.SeedSum
}

// NewSeedSum returns an empty batch of the given number of runs over pl.
func (pl *Plans) NewSeedSum(seeds int) *SeedSum {
	names := make([]string, 0, len(pl.ByProc))
	for name := range pl.ByProc {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &SeedSum{}
	fallback := make(profiler.Plans)
	for _, name := range names {
		p := pl.ByProc[name]
		if p.N == nil {
			fallback[name] = p.Fallback
			continue
		}
		s.plans = append(s.plans, p)
		s.counts = append(s.counts, interp.NewPathCounts(p.Spec))
	}
	s.fallback = fallback.NewSeedSum(seeds)
	return s
}

// Add adds run, number idx of the batch, to the sum. The run must come
// from the lowered program the plans were built for, started with their
// Spec. Concurrent calls must pass distinct indices.
func (s *SeedSum) Add(idx int, run *interp.Result) error {
	if err := s.fallback.Add(idx, run); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, p := range s.plans {
		pc, err := p.counts(run)
		if err != nil {
			return err
		}
		s.counts[k].Add(pc)
	}
	return nil
}

// Profile recovers the batch: every instrumented procedure decodes its
// summed counts once, and the fallback procedures recover their summed
// readings. Call it once, after every Add.
func (s *SeedSum) Profile() (profiler.ProgramProfile, error) {
	out, err := s.fallback.Profile()
	if err != nil {
		return nil, err
	}
	for k, p := range s.plans {
		totals, err := p.recoverCounts(s.counts[k])
		if err != nil {
			return nil, err
		}
		out[p.A.P.G.Name] = totals
	}
	return out, nil
}
