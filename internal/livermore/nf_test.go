package livermore

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/profiler"
)

// TestNodeFreqIdentityAllKernels verifies the paper's equation 3 on every
// kernel: NODE_FREQ(v) computed by the top-down FCDG recurrence, times the
// number of activations, equals the exact execution count of every node.
// This is the identity that makes control-condition counters sufficient
// (profiling optimization 1) and the TIME estimate exact in the mean.
func TestNodeFreqIdentityAllKernels(t *testing.T) {
	for k := 1; k <= Kernels; k++ {
		prog, err := lang.Parse(KernelSource(k, 60))
		if err != nil {
			t.Fatal(err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := analysis.AnalyzeProgram(res)
		if err != nil {
			t.Fatal(err)
		}
		run, err := interp.Run(res, interp.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for name, a := range ap.Procs {
			totals := profiler.ExactTotals(a, run)
			tab, err := freq.Compute(a.FCDG, totals)
			if err != nil {
				t.Fatalf("k%d %s: %v", k, name, err)
			}
			acts := float64(run.ByProc[name].Activations)
			for _, n := range a.P.G.Nodes() {
				want := float64(run.NodeCount(a.P, n.ID))
				got := tab.NodeFreq[n.ID] * acts
				if math.Abs(got-want) > 1e-6 {
					t.Errorf("kernel %d %s node %d (%s): NF*acts=%g actual=%g", k, name, n.ID, n.Name(), got, want)
				}
			}
		}
	}
}
