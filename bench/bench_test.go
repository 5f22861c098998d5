package main

import (
	"regexp"
	"testing"
)

// TestQuickRuns runs every workload, untraced and traced, with tiny fixed
// op counts. Every check must pass, and every metric BENCHMARK.json
// declares for the mode must be emitted, with its unit.
func TestQuickRuns(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark implements %d", len(sp.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not valid", m.Name)
		}
	}
	for _, w := range sp.workloadNames() {
		for _, trace := range []bool{false, true} {
			res, problems, err := runWorkload(sp, w, runCfg{seed: 1, trace: trace, quick: true, root: ".."})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			for _, p := range problems {
				t.Errorf("%s trace=%t: %s", w, trace, p)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7.5}, [3]float64{4.375, 6.25, 8.125}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"faster wins every pair", lower, base, scale(base, 0.8), "gain"},
		{"unchanged", lower, base, base, "within bound"},
		{"slower beyond bound", lower, base, scale(base, 1.2), "regressed"},
		{"slower within bound", lower, base, scale(base, 1.05), "within bound"},
		{"higher is better", higher, base, scale(base, 1.2), "gain"},
		{"spread wider than bound", lower, noisy, scale(noisy, 1.05), "unresolved"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestEditsAreOneProcedureAndUnique(t *testing.T) {
	cp := newCacheProgram("T", `      PROGRAM T
      REAL X
      X = 1.5
      CALL S(X)
      END

      SUBROUTINE S(Y)
      REAL Y
      PARAMETER (Z = 2.0)
      Y = Y * 0.25
      END
`)
	if cp.procs != 2 || len(cp.sites) != 2 {
		t.Fatalf("procs=%d sites=%d, want 2 and 2", cp.procs, len(cp.sites))
	}
	seen := map[string]bool{}
	for k := 1; k <= 4; k++ {
		src := cp.edit(k)
		if seen[src] || src == cp.src {
			t.Fatalf("edit %d is not a new source", k)
		}
		seen[src] = true
	}
	if got := cp.edit(2); got[cp.sites[0]:cp.sites[0]+9] != "000000002" {
		t.Errorf("edit 2 did not extend the main program's literal: %q", got)
	}
}
