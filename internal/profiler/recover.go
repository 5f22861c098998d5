package profiler

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/freq"
)

// Readings are the raw values of a plan's counters after one or more
// (simulated) instrumented runs, indexed like Plan.Counters.
type Readings []float64

// Add accumulates another run's readings (the program-database merge).
func (r Readings) Add(other Readings) {
	for i := range r {
		r[i] += other[i]
	}
}

// Recover reconstructs TOTAL_FREQ for every control condition of the
// procedure from the counter readings, in one pass over the plan's
// recovery schedule. The result feeds freq.Compute directly.
//
// The schedule runs in the order the plan's Horn system derives its
// facts. On consistent readings — those of completed runs — every
// dependency order gives bit-identical totals: the values are
// integer-valued float64s below 2^53, so every sum, difference and product
// is exact, and two rules that derive the same slot agree bit for bit.
// On readings from a STOP-terminated run the trip rules over-estimate
// in-flight loops (they assume every entered DO completes), and where two
// rules then disagree the schedule's order decides which value stands; use
// RecoverRun when the run itself is available — its stop record makes the
// recovery exact there too.
func (p *Plan) Recover(readings Readings) (freq.Totals, error) {
	return p.recoverWith(readings, nil)
}

func (p *Plan) recoverWith(readings Readings, adj *stopAdjust) (freq.Totals, error) {
	val, err := p.recoverSlots(readings, adj)
	if err != nil {
		return nil, err
	}
	return p.totals(val), nil
}

// recoverable reports why the plan cannot recover conditions, or nil.
func (p *Plan) recoverable() error {
	if p.Naive {
		return fmt.Errorf("profiler: naive plans count blocks, not conditions; use ExactTotals for analysis")
	}
	return p.recovery().err
}

// recoverSlots runs the recovery schedule over the readings and returns
// the value of every slot; the recovered conditions are the slots listed
// in the schedule's out.
func (p *Plan) recoverSlots(readings Readings, adj *stopAdjust) ([]float64, error) {
	if err := p.recoverable(); err != nil {
		return nil, err
	}
	if len(readings) != len(p.Counters) {
		return nil, fmt.Errorf("profiler: %d readings for %d counters", len(readings), len(p.Counters))
	}
	rec := p.recovery()
	val := make([]float64, rec.nslot)
	for i, s := range rec.condSlot {
		if s >= 0 {
			val[s] = readings[i]
		}
	}
	a0 := int32(0)
	for k := range rec.steps {
		st := &rec.steps[k]
		args := rec.args[a0:st.end]
		a0 = st.end
		if st.rule < 0 {
			sum := 0.0
			for _, a := range args {
				sum += val[a]
			}
			val[st.dst] = sum - adj.pendingAt(cfg.NodeID(st.dst-rec.nc))
			continue
		}
		r := &p.rules[st.rule]
		switch r.Kind {
		case RuleBranchBalance:
			sum := 0.0
			for _, a := range args {
				sum += val[a]
			}
			v := val[st.in] - sum
			if v < 0 {
				v = 0 // numerical guard; exact inputs never go negative
			}
			val[st.dst] = v
		case RuleLoopIdentity:
			sum := val[st.in]
			for _, a := range args {
				sum += val[a]
			}
			val[st.dst] = sum
		case RuleStaticCond:
			val[st.dst] = r.StaticFreq * val[st.in]
		case RuleDoConstTrip, RuleDoAddTrip:
			entries := val[st.in]
			// Frames frozen inside this DO entered it without (yet)
			// completing: each took the body edge only (trip − remaining
			// + 1) times and never took the exit edge. On completed runs n
			// and sr are zero and the rule reduces to the paper's
			// entries×trip identity.
			n, sr := adj.inflightAt(r.Node)
			var tripSum float64
			if r.Kind == RuleDoConstTrip {
				tripSum = entries*float64(r.Trip) - sr + n
			} else {
				// The TripAdd reading already reflects actual body
				// takings: the STOP-handler dump subtracts each live
				// register's remainder (see SimulateReadings).
				tripSum = readings[r.Counter]
			}
			val[st.dst] = tripSum + entries - n
			if body := args[0]; body >= 0 {
				val[body] = tripSum
			}
			if exit := args[1]; exit >= 0 {
				val[exit] = entries - n
			}
		}
	}
	return val, nil
}

// totals builds the condition-keyed profile of the recovered slots.
func (p *Plan) totals(val []float64) freq.Totals {
	out := p.recovery().out
	f := p.A.FCDG
	totals := make(freq.Totals, len(out))
	for _, s := range out {
		totals[f.CondAt(int(s))] = val[s]
	}
	return totals
}
