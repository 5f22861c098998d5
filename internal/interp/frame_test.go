package interp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/lower"
	"repro/internal/simplecfd"
)

// TestOnNodeGetter pins what the OnNode getter can see: local
// scalars and by-reference parameters (through the caller's storage), but
// not arrays, PARAMETER constants or names the unit does not have.
func TestOnNodeGetter(t *testing.T) {
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
	if _, err := Run(res, Options{OnNode: hook}); err != nil {
		t.Fatal(err)
	}
	for text := range cases {
		if seen[text] != 1 {
			t.Errorf("hook saw %q %d times, want once", text, seen[text])
		}
	}
}

// TestOnNodeDoesNotPerturbRun checks that observing a run changes nothing
// in it: a DO whose bound draws IRAND must draw once per entry with the
// hook set, so every seed gives the same steps, counters and output as the
// unobserved run. The hook also reaches path-instrumented activations.
func TestOnNodeDoesNotPerturbRun(t *testing.T) {
	res := lowerSrc(t, `      PROGRAM T
      INTEGER I, K
      K = 0
      DO 10 I = 1, IRAND(10)
      K = K + 1
   10 CONTINUE
      PRINT *, K, IRAND(100)
      END
`)
	spec := &PathSpec{Procs: map[string]*PathProcSpec{}}
	for name, p := range res.Procs {
		ps := &PathProcSpec{NumPaths: 1}
		for id := cfg.NodeID(0); id <= p.G.MaxID(); id++ {
			k := 0
			if id > 0 {
				k = len(p.G.OutEdges(id))
			}
			ps.Inc = append(ps.Inc, make([]int64, k))
			ps.Bump = append(ps.Bump, make([]bool, k))
			ps.Reset = append(ps.Reset, make([]int64, k))
		}
		spec.Procs[name] = ps
	}
	for _, ps := range []*PathSpec{nil, spec} {
		for seed := uint64(1); seed <= 8; seed++ {
			run := func(hook func(*lower.Proc, cfg.NodeID, func(string) (Value, bool))) (*Result, string) {
				var out strings.Builder
				r, err := Run(res, Options{Seed: seed, Out: &out, OnNode: hook, PathSpec: ps, Engine: EngineTree})
				if err != nil {
					t.Fatal(err)
				}
				return r, out.String()
			}
			seen := 0
			want, wantOut := run(nil)
			got, gotOut := run(func(p *lower.Proc, n cfg.NodeID, get func(string) (Value, bool)) {
				if _, ok := get("K"); ok {
					seen++
				}
			})
			if got.Steps != want.Steps || gotOut != wantOut || !reflect.DeepEqual(got, want) {
				t.Fatalf("paths %v seed %d: hooked run took %d steps printing %q, unhooked %d printing %q",
					ps != nil, seed, got.Steps, gotOut, want.Steps, wantOut)
			}
			if seen != int(got.Steps) {
				t.Fatalf("paths %v seed %d: getter saw K at %d of %d nodes", ps != nil, seed, seen, got.Steps)
			}
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
