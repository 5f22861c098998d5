package cost

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/lower"
)

func lowerOne(t *testing.T, body string) *lower.Proc {
	t.Helper()
	prog, err := lang.Parse("      PROGRAM T\n" + body + "      END\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res.Main
}

func nodeCostByName(t *testing.T, p *lower.Proc, m Model, prefix string) float64 {
	t.Helper()
	for _, n := range p.G.Nodes() {
		if len(n.Name()) >= len(prefix) && n.Name()[:len(prefix)] == prefix {
			op, ok := n.Payload.(lower.Op)
			if !ok {
				t.Fatalf("node %q has no op", n.Name())
			}
			return m.NodeCost(op)
		}
	}
	t.Fatalf("no node with prefix %q", prefix)
	return 0
}

func TestModelOrdering(t *testing.T) {
	prog, err := lang.Parse(`      PROGRAM T
      REAL A(10)
      INTEGER I
      DO 10 I = 1, 10
         A(I) = A(I)*2.0 + 1.0/3.0
   10 CONTINUE
      IF (A(1) .GT. 0.0) A(2) = SQRT(A(1))
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Main
	onTab := Optimized.Table(p)
	offTab := Unoptimized.Table(p)
	for _, n := range p.G.Nodes() {
		if _, ok := n.Payload.(lower.OpEnd); ok {
			continue
		}
		if offTab[n.ID] < onTab[n.ID] {
			t.Errorf("node %q: opt-off %g < opt-on %g", n.Name(), offTab[n.ID], onTab[n.ID])
		}
	}
}

func TestExpressionCostsScaleWithComplexity(t *testing.T) {
	p := lowerOne(t, `      REAL A(5,5)
      X = 1.0
      Y = X + X
      Z = X*X + X/X + X**2.0
      W = A(1,2) + SQRT(X)
`)
	m := Optimized
	simple := nodeCostByName(t, p, m, "X = 1")
	add := nodeCostByName(t, p, m, "Y = X+X")
	heavy := nodeCostByName(t, p, m, "Z = ")
	mem := nodeCostByName(t, p, m, "W = ")
	if !(simple < add && add < heavy) {
		t.Errorf("cost ordering: const %g, add %g, heavy %g", simple, add, heavy)
	}
	if mem <= add {
		t.Errorf("2-D index + intrinsic (%g) should cost more than one add (%g)", mem, add)
	}
}

func TestUnitModelFlat(t *testing.T) {
	p := lowerOne(t, `      REAL A(5)
      INTEGER I
      DO 10 I = 1, 5
         A(I) = A(I)**3.0 + SQRT(2.0)
   10 CONTINUE
`)
	tab := Unit.Table(p)
	for _, n := range p.G.Nodes() {
		if tab[n.ID] != 1 {
			t.Errorf("unit cost of %q = %g, want 1", n.Name(), tab[n.ID])
		}
	}
}

func TestCounterPricesPositive(t *testing.T) {
	for _, m := range []Model{Optimized, Unoptimized, Unit} {
		if m.CounterUpdate <= 0 || m.CounterAdd <= 0 {
			t.Errorf("%s: counter prices must be positive", m.Name)
		}
		if m.CounterAdd < m.CounterUpdate {
			t.Errorf("%s: a trip-add (%g) cannot be cheaper than an increment (%g)",
				m.Name, m.CounterAdd, m.CounterUpdate)
		}
	}
}

func TestCallCostExcludesCallee(t *testing.T) {
	prog, err := lang.Parse(`      PROGRAM T
      CALL HEAVY
      END

      SUBROUTINE HEAVY
      INTEGER I
      DO 10 I = 1, 1000
   10 CONTINUE
      RETURN
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := Optimized
	callCost := nodeCostByName(t, res.Main, m, "CALL HEAVY")
	// The call node itself is just linkage; the thousand-iteration body is
	// accounted by rule 2 in the estimator, not here.
	if callCost > m.CallOvhd+1 {
		t.Errorf("call node cost %g should be near linkage cost %g", callCost, m.CallOvhd)
	}
}

// TestScaledMultipliesEveryField uses reflection so that a cost field added
// later without updating Scaled fails here instead of silently breaking the
// oracle's cost-scaling invariant.
func TestScaledMultipliesEveryField(t *testing.T) {
	const k = 2.5
	m := Unoptimized
	m.Floor = 0.5 // exercise the floor too
	s := m.Scaled(k)
	mv, sv := reflect.ValueOf(m), reflect.ValueOf(s)
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		orig, scaled := mv.Field(i).Float(), sv.Field(i).Float()
		if math.Abs(scaled-k*orig) > 1e-12*math.Max(1, math.Abs(k*orig)) {
			t.Errorf("field %s: %g scaled to %g, want %g", f.Name, orig, scaled, k*orig)
		}
	}
	if s.Name == m.Name || !strings.Contains(s.Name, m.Name) {
		t.Errorf("scaled model name %q should derive from %q", s.Name, m.Name)
	}
}

// TestScaledScalesNodeCosts checks the end-to-end property on a lowered
// procedure: every node's table cost scales by exactly k.
func TestScaledScalesNodeCosts(t *testing.T) {
	const k = 3.0
	p := lowerOne(t, `      INTEGER I
      REAL X
      X = 0.0
      DO 10 I = 1, 4
         X = X + SIN(X)*2.0
   10 CONTINUE
      PRINT *, X
`)
	base := Optimized.Table(p)
	scaled := Optimized.Scaled(k).Table(p)
	for _, n := range p.G.Nodes() {
		want := k * base[n.ID]
		if math.Abs(scaled[n.ID]-want) > 1e-12*math.Max(1, want) {
			t.Errorf("node %d (%s): cost %g, want %g", n.ID, n.Name(), scaled[n.ID], want)
		}
	}
}
