// Package obs is the pipeline's observability layer: a lightweight
// tracing/metrics subsystem the analysis, profiling, and estimation phases
// report into, and the bench harness reads regression data out of.
//
// The design follows the paper's own discipline of cheap counters: a Trace
// aggregates observations by phase name (one row per phase, not one per
// event), so tracing a 10k-procedure analysis costs a map lookup and two
// clock reads per procedure, and the output stays small enough to commit
// as a bench snapshot. A nil *Trace is valid everywhere and costs nothing —
// callers thread the trace unconditionally and the flag decides whether it
// exists.
//
// Spans measure wall time (summed busy time across observations), elapsed
// end-to-end extent (so Wall/Elapsed reveals worker-pool utilization) and
// observation counts. They carry no allocation figure: the only cheap heap
// counter is process-wide, so concurrent phases and requests would charge
// each other's allocations.
//
// The process-wide metrics Registry holds named atomic counters and gauges
// (node totals, counters placed, peak RSS, ...); Snapshot flattens it into
// the report.Document schema shared with the diagnostic tools.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
)

// Trace aggregates span observations by phase name. The zero value is not
// usable; construct with NewTrace. A nil *Trace is a no-op on every method.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	agg   map[string]*spanAgg
}

type spanAgg struct {
	first, last time.Time
	busy        time.Duration
	count       int64
	metrics     map[string]float64
}

// NewTrace starts a trace; its clock zero is the call time.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), agg: make(map[string]*spanAgg)}
}

// Span is one in-flight observation; End folds it into the trace.
type Span struct {
	t    *Trace
	name string
	t0   time.Time
}

// Start opens a span for the named phase. Safe on a nil trace (returns a
// no-op span) and from concurrent goroutines.
func (t *Trace) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, t0: time.Now()}
}

// End folds the observation into its phase row, attaching the optional
// metrics (summed into any existing values of the same key).
func (s Span) End(extra ...Metric) {
	if s.t == nil {
		return
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[s.name]
	if a == nil {
		a = &spanAgg{first: s.t0, last: now}
		t.agg[s.name] = a
	}
	if s.t0.Before(a.first) {
		a.first = s.t0
	}
	if now.After(a.last) {
		a.last = now
	}
	a.busy += now.Sub(s.t0)
	a.count++
	for _, m := range extra {
		if a.metrics == nil {
			a.metrics = make(map[string]float64)
		}
		a.metrics[m.Name] += m.Value
	}
}

// Metric is one named measurement attached to a span observation.
type Metric struct {
	Name  string
	Value float64
}

// M is shorthand for constructing a Metric.
func M(name string, v float64) Metric { return Metric{Name: name, Value: v} }

// SetMetric records a phase-level metric outside any observation, replacing
// the current value (use for ratios and final counts rather than sums).
func (t *Trace) SetMetric(phase, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[phase]
	if a == nil {
		a = &spanAgg{first: time.Now(), last: time.Now()}
		t.agg[phase] = a
	}
	if a.metrics == nil {
		a.metrics = make(map[string]float64)
	}
	a.metrics[name] = v
}

// Spans renders the aggregated rows in first-start order, using the shared
// report schema.
func (t *Trace) Spans() []report.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]report.Span, 0, len(t.agg))
	for name, a := range t.agg {
		sp := report.Span{
			Name:      name,
			StartMs:   float64(a.first.Sub(t.start)) / float64(time.Millisecond),
			WallMs:    float64(a.busy) / float64(time.Millisecond),
			ElapsedMs: float64(a.last.Sub(a.first)) / float64(time.Millisecond),
			Count:     a.count,
		}
		if len(a.metrics) > 0 {
			sp.Metrics = make(map[string]float64, len(a.metrics))
			for k, v := range a.metrics {
				sp.Metrics[k] = v
			}
		}
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartMs != out[j].StartMs {
			return out[i].StartMs < out[j].StartMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ---------------------------------------------------------------------------
// Metrics registry.

// Registry is a process-wide set of named atomic counters and gauges.
// All methods are safe for concurrent use; the zero value is ready.
type Registry struct {
	counters sync.Map // string → *atomic.Int64
	gauges   sync.Map // string → *atomic.Uint64 (float64 bits)
}

// Default is the registry the pipeline reports into.
var Default = &Registry{}

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	v, ok := r.counters.Load(name)
	if !ok {
		v, _ = r.counters.LoadOrStore(name, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(delta)
}

// SetGauge sets the named gauge.
func (r *Registry) SetGauge(name string, val float64) {
	v, ok := r.gauges.Load(name)
	if !ok {
		v, _ = r.gauges.LoadOrStore(name, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Store(floatBits(val))
}

// MaxGauge raises the named gauge to val if val is larger (peak tracking).
func (r *Registry) MaxGauge(name string, val float64) {
	v, ok := r.gauges.Load(name)
	if !ok {
		v, _ = r.gauges.LoadOrStore(name, new(atomic.Uint64))
	}
	g := v.(*atomic.Uint64)
	for {
		old := g.Load()
		if floatFrom(old) >= val {
			return
		}
		if g.CompareAndSwap(old, floatBits(val)) {
			return
		}
	}
}

// Snapshot flattens counters and gauges into one map.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = float64(v.(*atomic.Int64).Load())
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		out[k.(string)] = floatFrom(v.(*atomic.Uint64).Load())
		return true
	})
	return out
}

// Reset clears every counter and gauge (bench reps want a clean slate).
func (r *Registry) Reset() {
	r.counters.Range(func(k, _ any) bool { r.counters.Delete(k); return true })
	r.gauges.Range(func(k, _ any) bool { r.gauges.Delete(k); return true })
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }
