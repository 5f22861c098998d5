package profiler

import (
	"sort"

	"repro/internal/interp"
)

// SeedSum profiles a batch of runs the way the paper's program database
// does: counter readings are TOTAL_FREQ values, so the readings of every
// run add up, and one pass of each plan's recovery schedule turns the sum
// into the batch's totals. Summing per-run recoveries instead would run
// the schedule and build a condition map once per run and procedure.
//
// Recovering the sum equals summing the recoveries bit for bit because
// the schedule is integer-linear and every summed input is consistent:
//
//   - readings are integer-valued float64s below 2^53, so every sum,
//     difference and integer multiple is exact in any order;
//   - every rule is linear with integer coefficients (PlanFlow's static
//     frequencies come from staticfreq.Exact and are 0 or 1);
//   - a run that froze a frame of a procedure at STOP is not consistent
//     for that procedure: its recovery needs the run's stop record.
//
// So a run that froze a frame of a procedure recovers that procedure on
// its own (RecoverRun), and its totals are added to the recovered sum in
// seed order.
type SeedSum struct {
	// plans are ordered by procedure name; plans[k]'s readings of seed i
	// are readings[i*width+off[k] : i*width+off[k+1]].
	plans    []*Plan
	off      []int
	width    int
	readings []float64
	// parts[i] are seed i's procedures that recovered on their own.
	parts [][]seedPart
}

// seedPart is one procedure's recovery from one run alone: every slot of
// plans[k]'s schedule.
type seedPart struct {
	k   int
	val []float64
}

// NewSeedSum returns an empty batch of the given number of runs over pl.
func (pl Plans) NewSeedSum(seeds int) *SeedSum {
	names := make([]string, 0, len(pl))
	for name := range pl {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &SeedSum{plans: make([]*Plan, len(names)), off: make([]int, len(names)+1), parts: make([][]seedPart, seeds)}
	for k, name := range names {
		s.plans[k] = pl[name]
		s.off[k+1] = s.off[k] + len(pl[name].Counters)
	}
	s.width = s.off[len(names)]
	s.readings = make([]float64, seeds*s.width)
	return s
}

// Add reads run's counters as run number idx of the batch, recovering a
// procedure right away where the run froze one of its frames. The run must come from the lowered program the
// plans were built for. Concurrent calls must pass distinct indices.
func (s *SeedSum) Add(idx int, run *interp.Result) error {
	row := s.readings[idx*s.width : (idx+1)*s.width]
	for k, p := range s.plans {
		if err := p.recoverable(); err != nil {
			return err
		}
		r := Readings(row[s.off[k]:s.off[k+1]])
		p.readInto(r, run)
		adj := p.stopCorrections(run)
		if adj == nil {
			continue
		}
		val, err := p.recoverSlots(r, adj)
		if err != nil {
			return err
		}
		s.parts[idx] = append(s.parts[idx], seedPart{k: k, val: val})
		clear(r) // recovered on its own: kept out of the sum
	}
	return nil
}

// Profile recovers the batch: the readings summed in seed order, one
// recovery per procedure, plus the procedures runs recovered on their own,
// in seed order. Call it once, after every Add.
func (s *SeedSum) Profile() (ProgramProfile, error) {
	var total Readings
	if len(s.parts) > 0 {
		total = Readings(s.readings[:s.width])
		for i := 1; i < len(s.parts); i++ {
			total.Add(s.readings[i*s.width : (i+1)*s.width])
		}
	} else {
		total = make(Readings, s.width)
	}
	out := make(ProgramProfile, len(s.plans))
	for k, p := range s.plans {
		val, err := p.recoverSlots(total[s.off[k]:s.off[k+1]], nil)
		if err != nil {
			return nil, err
		}
		rec := p.recovery()
		for _, parts := range s.parts {
			for _, pt := range parts {
				if pt.k != k {
					continue
				}
				for _, sl := range rec.out {
					val[sl] += pt.val[sl]
				}
			}
		}
		out[p.A.P.G.Name] = p.totals(val)
	}
	return out, nil
}
