package dataflow

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/wire"
)

// mainFacts parses src, lowers it and analyzes the main program.
func mainFacts(t *testing.T, src string) *Facts {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return Analyze(res.Main)
}

func constAt(f *Facts, n cfg.NodeID, name string) (interp.Value, bool) {
	for _, c := range f.ConstsAtNode(n) {
		if c.Name == name {
			return c.Val, true
		}
	}
	return interp.Value{}, false
}

func TestConstPropDecidesBranch(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER K
      REAL X
      K = 3
      X = 0.0
      IF (K .GT. 5) THEN
         X = X + 1.0
      ELSE
         X = X + 2.0
      ENDIF
      PRINT *, X
      END
`)
	if len(f.ConstBranch) != 1 {
		t.Fatalf("want 1 decided branch, got %v", f.ConstBranch)
	}
	for _, lbl := range f.ConstBranch {
		if lbl != cfg.False {
			t.Errorf("K=3 > 5 must decide .FALSE., got %v", lbl)
		}
	}
	// The .TRUE. edge is infeasible, and so is everything cascading out of
	// the dead THEN arm.
	foundTrue := false
	for _, e := range f.Infeasible {
		if e.Label == cfg.True {
			foundTrue = true
		}
	}
	if !foundTrue {
		t.Errorf("the .TRUE. edge must be infeasible, got %v", f.Infeasible)
	}
	if len(f.DeadNodes) == 0 {
		t.Error("the THEN arm must be reported dead")
	}
}

func TestConstPropMeetLosesDisagreeingValues(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER K, J
      REAL X
      J = 7
      IF (RAND() .GT. 0.5) THEN
         K = 1
      ELSE
         K = 2
      ENDIF
      X = REAL(K)
      PRINT *, X
      END
`)
	p := f.Proc
	var printNode cfg.NodeID
	for id := cfg.NodeID(1); id <= p.G.MaxID(); id++ {
		if _, ok := p.G.Node(id).Payload.(lower.OpPrint); ok {
			printNode = id
		}
	}
	if printNode == cfg.None {
		t.Fatal("no print node")
	}
	if v, ok := constAt(f, printNode, "K"); ok {
		t.Errorf("K merges 1 and 2, must not be constant, got %v", v)
	}
	if v, ok := constAt(f, printNode, "J"); !ok || v.I != 7 {
		t.Errorf("J must be constant 7 at the print, got %v ok=%v", v, ok)
	}
	if len(f.Infeasible) != 0 {
		t.Errorf("a RAND branch has no infeasible edges, got %v", f.Infeasible)
	}
}

func TestConstTripFromFlow(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER N, I
      REAL X
      N = 4
      X = 0.0
      DO 10 I = 1, N
         X = X + 1.0
10    CONTINUE
      PRINT *, X
      END
`)
	if len(f.ConstTrips) != 1 {
		t.Fatalf("want 1 constant trip, got %v", f.ConstTrips)
	}
	for _, trip := range f.ConstTrips {
		if trip != 4 {
			t.Errorf("DO 1..4 must fold to trip 4, got %d", trip)
		}
	}
}

func TestZeroTripLoopBodyDead(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER N, I
      REAL X
      N = 0
      X = 0.0
      DO 10 I = 1, N
         X = X + 1.0
10    CONTINUE
      PRINT *, X
      END
`)
	for _, trip := range f.ConstTrips {
		if trip != 0 {
			t.Errorf("empty loop must fold to trip 0, got %d", trip)
		}
	}
	if len(f.DeadNodes) == 0 {
		t.Error("zero-trip loop body must be reported dead")
	}
}

func TestDeadStoreDetected(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER K
      REAL X
      K = 9
      K = 2
      X = REAL(K)
      PRINT *, X
      END
`)
	if len(f.DeadStores) != 1 || f.DeadStores[0].Var != "K" {
		t.Fatalf("want one dead store to K (the overwritten K=9), got %v", f.DeadStores)
	}
	if f.DeadStores[0].Line != 4 {
		t.Errorf("dead store must point at line 4, got %d", f.DeadStores[0].Line)
	}
}

func TestUseBeforeDefDetected(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER K, J
      REAL X
      IF (RAND() .GT. 0.5) THEN
         K = 1
      ENDIF
      J = K
      X = REAL(J)
      PRINT *, X
      END
`)
	found := false
	for _, u := range f.UseBeforeDef {
		if u.Var == "K" {
			found = true
		}
	}
	if !found {
		t.Fatalf("K assigned on one path only must be flagged, got %v", f.UseBeforeDef)
	}
	for _, u := range f.UseBeforeDef {
		if u.Var == "J" {
			t.Errorf("J is assigned before its read, must not be flagged")
		}
	}
}

func TestLoopVarNotUseBeforeDef(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER I
      REAL X
      X = 0.0
      DO 10 I = 1, 3
         X = X + REAL(I)
10    CONTINUE
      PRINT *, X
      END
`)
	if len(f.UseBeforeDef) != 0 {
		t.Errorf("DO loop defines its index; got %v", f.UseBeforeDef)
	}
}

// TestAnalyzeDeterministic pins the solver's iteration-order guarantee:
// repeated analyses of the same procedure yield identical facts, including
// slice order.
func TestAnalyzeDeterministic(t *testing.T) {
	src := `      PROGRAM P
      INTEGER K, N, I
      REAL X
      K = 3
      N = 2
      X = 0.0
      IF (K .GT. 5) THEN
         X = X + 1.0
      ENDIF
      DO 10 I = 1, N
         IF (RAND() .GT. 0.5) THEN
            X = X + 0.5
         ENDIF
10    CONTINUE
      PRINT *, X
      END
`
	a := mainFacts(t, src)
	for i := 0; i < 5; i++ {
		b := mainFacts(t, src)
		if !reflect.DeepEqual(a.Infeasible, b.Infeasible) ||
			!reflect.DeepEqual(a.DeadNodes, b.DeadNodes) ||
			!reflect.DeepEqual(a.DeadStores, b.DeadStores) ||
			!reflect.DeepEqual(a.UseBeforeDef, b.UseBeforeDef) ||
			!reflect.DeepEqual(a.ConstBranch, b.ConstBranch) ||
			!reflect.DeepEqual(a.ConstTrips, b.ConstTrips) {
			t.Fatal("repeated analysis produced different facts")
		}
	}
}

// TestEvalConstMatchesRuntime is the in-package twin of the oracle's
// const-value check: a program whose variables are all compile-time
// constants must evaluate, expression by expression, to exactly the values
// the interpreter computes (PRINT output is the observable).
func TestEvalConstMatchesRuntime(t *testing.T) {
	src := `      PROGRAM P
      INTEGER K, M
      REAL X, Y
      K = 7
      M = K * 3 - 2
      X = 1.5
      Y = X * REAL(M) + SQRT(4.0)
      PRINT *, Y, M
      END
`
	f := mainFacts(t, src)
	p := f.Proc
	var printNode cfg.NodeID
	for id := cfg.NodeID(1); id <= p.G.MaxID(); id++ {
		if _, ok := p.G.Node(id).Payload.(lower.OpPrint); ok {
			printNode = id
		}
	}
	want := map[string]interp.Value{
		"K": interp.Int(7),
		"M": interp.Int(19),
		"X": interp.Real(1.5),
		"Y": interp.Real(1.5*19 + 2),
	}
	for name, w := range want {
		got, ok := constAt(f, printNode, name)
		if !ok {
			t.Errorf("%s must be constant at the print", name)
			continue
		}
		if !ValueEq(w, got) {
			t.Errorf("%s: want %v, got %v", name, w, got)
		}
	}
}

// TestNilUnitProcIsSafe analyzes a hand-built procedure with no source unit
// attached (the shape freq's tests use): the analyses must degrade to "no
// facts" rather than dereference the missing symbol table.
func TestNilUnitProcIsSafe(t *testing.T) {
	f := Analyze(&lower.Proc{G: paperex.CFG()})
	if len(f.DeadStores) != 0 || len(f.UseBeforeDef) != 0 {
		t.Errorf("nil-Unit proc must produce no variable findings, got %v %v",
			f.DeadStores, f.UseBeforeDef)
	}
	st := f.Stats()
	if st.ReachedNodes == 0 {
		t.Error("reachability must still run on a nil-Unit proc")
	}
}

// TestDecodeRejectsRepeatedBinding feeds Decode an environment that names
// one variable twice. Decode must fail instead of accepting an Env with two
// bindings at one index.
func TestDecodeRejectsRepeatedBinding(t *testing.T) {
	f := mainFacts(t, `      PROGRAM P
      INTEGER K
      K = 3
      PRINT *, K
      END
`)
	decode := func() error {
		var w wire.Writer
		f.Encode(&w)
		r := wire.NewReader(w.Bytes())
		Decode(r, f.Proc)
		return r.Err()
	}
	if err := decode(); err != nil {
		t.Fatalf("well-formed facts: %v", err)
	}
	n := slices.IndexFunc(f.Env, func(e Env) bool { return len(e) > 0 })
	if n < 0 {
		t.Fatal("no node has a proven constant")
	}
	f.Env[n] = append(Env{f.Env[n][0]}, f.Env[n]...)
	if err := decode(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("an env binding %q twice must not decode, got %v", f.name(f.Env[n][0].Index), err)
	}
}
