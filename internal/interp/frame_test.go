package interp

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/lower"
	"repro/internal/simplecfd"
)

// TestOnNodeValsGetter pins what the OnNodeVals getter can see: local
// scalars and by-reference parameters (through the caller's storage), but
// not arrays, PARAMETER constants or names the unit does not have.
func TestOnNodeValsGetter(t *testing.T) {
	res := lowerSrc(t, `      PROGRAM T
      INTEGER K, N
      PARAMETER (N = 3)
      REAL A(N)
      K = 7
      CALL SUB(K, A)
      K = K * 2
      END
      SUBROUTINE SUB(J, B)
      INTEGER J, L
      REAL B(3)
      L = 5
      J = J + 1
      L = L + J
      RETURN
      END
`)
	type want struct {
		v  Value
		ok bool
	}
	none := want{}
	// Observations before the statement with the given text runs.
	cases := map[string]map[string]want{
		"K = K*2": {"K": {Int(8), true}, "A": none, "N": none, "NOPE": none},
		"L = L+J": {"J": {Int(8), true}, "L": {Int(5), true}, "B": none, "N": none, "K": none},
	}
	seen := map[string]int{}
	hook := func(p *lower.Proc, n cfg.NodeID, get func(string) (Value, bool)) {
		s, ok := p.Stmt[n]
		if !ok {
			return
		}
		exp, ok := cases[s.Text()]
		if !ok {
			return
		}
		seen[s.Text()]++
		for name, w := range exp {
			if v, ok := get(name); v != w.v || ok != w.ok {
				t.Errorf("%s: at %q get(%q) = %v, %v; want %v, %v", p.G.Name, s.Text(), name, v, ok, w.v, w.ok)
			}
		}
	}
	if _, err := Run(res, Options{OnNodeVals: hook}); err != nil {
		t.Fatal(err)
	}
	for text := range cases {
		if seen[text] != 1 {
			t.Errorf("hook saw %q %d times, want once", text, seen[text])
		}
	}
}

// TestTreeAllocsIndependentOfSteps checks that the tree-walker allocates
// per activation, never per executed node: more SIMPLE cycles execute
// many more nodes but may add only a bounded number of allocations for
// each extra subroutine activation.
func TestTreeAllocsIndependentOfSteps(t *testing.T) {
	const perActivation = 32 // frame slices plus two per array parameter
	type sample struct {
		allocs      float64
		steps, acts int64
	}
	measure := func(ncycles int) sample {
		res := lowerSrc(t, simplecfd.Source(8, ncycles))
		var r *Result
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			r, err = Run(res, Options{Seed: 1, Engine: EngineTree})
		})
		if err != nil {
			t.Fatal(err)
		}
		s := sample{allocs: allocs, steps: r.Steps}
		for _, c := range r.ByProc {
			s.acts += c.Activations
		}
		return s
	}
	lo, hi := measure(1), measure(4)
	dSteps, dActs := hi.steps-lo.steps, hi.acts-lo.acts
	if dSteps <= 0 || dActs <= 0 {
		t.Fatalf("more cycles ran no more work: steps %d -> %d, activations %d -> %d", lo.steps, hi.steps, lo.acts, hi.acts)
	}
	dAllocs := hi.allocs - lo.allocs
	t.Logf("%d more steps, %d more activations: %.0f more allocations", dSteps, dActs, dAllocs)
	if dAllocs > perActivation*float64(dActs) {
		t.Errorf("%d more steps and %d more activations cost %.0f more allocations (%.3f per step); want at most %d per activation",
			dSteps, dActs, dAllocs, dAllocs/float64(dSteps), perActivation)
	}
}
