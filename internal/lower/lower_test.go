package lower

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/dfst"
	"repro/internal/lang"
	"repro/internal/paperex"
)

func lowerMain(t *testing.T, src string) *Proc {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	res, err := Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return res.Main
}

func wrap(body string) string { return "      PROGRAM T\n" + body + "      END\n" }

// TestPaperExampleMatchesFigure1: lowering the example source yields the
// Figure 1 CFG exactly (modulo the two initialization assignments and the
// END node that make it runnable).
func TestPaperExampleMatchesFigure1(t *testing.T) {
	prog, err := lang.Parse(paperex.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Main.G
	ref := paperex.CFG()
	// Nodes 3..8 of the lowered graph correspond to 1..6 of Figure 1.
	const off = 2
	for _, e := range ref.Edges() {
		found := false
		for _, le := range g.OutEdges(e.From + off) {
			if le.To == e.To+off && le.Label == e.Label {
				found = true
			}
		}
		if !found {
			t.Errorf("missing lowered edge %d-%s->%d (Figure 1 %v)", e.From+off, e.Label, e.To+off, e)
		}
	}
}

func TestIfBlockShape(t *testing.T) {
	p := lowerMain(t, wrap(`      INTEGER I
      I = 0
      IF (I .GT. 0) THEN
         I = 1
      ELSE IF (I .LT. 0) THEN
         I = 2
      ELSE
         I = 3
      ENDIF
      I = 4
`))
	g := p.G
	// Expect two branch nodes (IF and ELSEIF) each with T and F edges.
	branches := 0
	for _, n := range g.Nodes() {
		if _, ok := n.Payload.(OpBranch); ok {
			branches++
			labels := g.Labels(n.ID)
			if len(labels) != 2 {
				t.Errorf("branch %q has labels %v", n.Name(), labels)
			}
		}
	}
	if branches != 2 {
		t.Errorf("branches = %d, want 2", branches)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDoLoopShape(t *testing.T) {
	p := lowerMain(t, wrap(`      INTEGER I
      DO 10 I = 1, 3
   10 CONTINUE
`))
	g := p.G
	var init, test, incr cfg.NodeID
	for _, n := range g.Nodes() {
		switch op := n.Payload.(type) {
		case OpDoInit:
			init = n.ID
			if op.Test == cfg.None {
				t.Error("DoInit.Test unset")
			}
		case OpDoTest:
			test = n.ID
			if op.Key != n.ID {
				t.Errorf("DoTest.Key = %d, want %d", op.Key, n.ID)
			}
		case OpDoIncr:
			incr = n.ID
		}
	}
	if init == cfg.None || test == cfg.None || incr == cfg.None {
		t.Fatal("missing DO nodes")
	}
	// init -> test; incr -> test (the back edge); test has T and F.
	if !hasEdge(g, init, test, cfg.Uncond) || !hasEdge(g, incr, test, cfg.Uncond) {
		t.Errorf("DO wiring wrong:\n%s", g)
	}
	if len(g.Labels(test)) != 2 {
		t.Errorf("test labels = %v", g.Labels(test))
	}
}

func hasEdge(g *cfg.Graph, from, to cfg.NodeID, l cfg.Label) bool {
	for _, e := range g.OutEdges(from) {
		if e.To == to && e.Label == l {
			return true
		}
	}
	return false
}

func TestDeadCodeDropped(t *testing.T) {
	p := lowerMain(t, wrap(`      INTEGER I
      I = 1
      GOTO 10
      I = 2
      I = 3
   10 CONTINUE
`))
	for _, n := range p.G.Nodes() {
		if strings.Contains(n.Name(), "I = 2") || strings.Contains(n.Name(), "I = 3") {
			t.Errorf("dead statement %q survived", n.Name())
		}
	}
	if err := p.G.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLabelledDeadCodeKept(t *testing.T) {
	p := lowerMain(t, wrap(`      INTEGER I
      I = 1
      GOTO 20
   10 I = 2
      GOTO 30
   20 CONTINUE
      GOTO 10
   30 CONTINUE
`))
	found := false
	for _, n := range p.G.Nodes() {
		if strings.Contains(n.Name(), "I = 2") {
			found = true
		}
	}
	if !found {
		t.Error("labelled statement reachable via GOTO was dropped")
	}
}

func TestIrreducibleGotoGetsSplit(t *testing.T) {
	// Two-entry loop between labels 10 and 20.
	p := lowerMain(t, wrap(`      INTEGER I
      I = 0
      IF (I .GT. 0) GOTO 20
   10 I = I + 1
   20 I = I + 2
      IF (I .LT. 10) GOTO 10
`))
	if p.Splits == 0 {
		t.Fatalf("expected node splitting for the two-entry loop:\n%s", p.G)
	}
	if !dfst.Reducible(p.G) {
		t.Fatal("graph still irreducible after lowering")
	}
	if err := p.G.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReturnAndStopEdges(t *testing.T) {
	src := `      PROGRAM T
      INTEGER I
      I = 1
      IF (I .GT. 0) STOP
      I = 2
      END

      SUBROUTINE S(I)
      INTEGER I
      IF (I .GT. 0) RETURN
      I = 2
      RETURN
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Every RETURN/STOP node's only successor is the unit exit.
	for _, p := range res.Procs {
		for _, n := range p.G.Nodes() {
			switch n.Payload.(type) {
			case OpReturn, OpStop:
				out := p.G.OutEdges(n.ID)
				if len(out) != 1 || out[0].To != p.G.Exit {
					t.Errorf("%s %q edges = %v, want exit %d", p.G.Name, n.Name(), out, p.G.Exit)
				}
			}
		}
	}
}

func TestCallGraphDistinct(t *testing.T) {
	src := `      PROGRAM T
      CALL A
      CALL A
      CALL B
      END

      SUBROUTINE A
      RETURN
      END

      SUBROUTINE B
      CALL A
      RETURN
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CallGraph["T"]; len(got) != 2 {
		t.Errorf("T callees = %v, want [A B]", got)
	}
	if got := res.CallGraph["B"]; len(got) != 1 || got[0] != "A" {
		t.Errorf("B callees = %v", got)
	}
	if len(res.Main.Calls) != 3 {
		t.Errorf("T call sites = %d, want 3", len(res.Main.Calls))
	}
}

func TestLogicalIfNonGotoBody(t *testing.T) {
	p := lowerMain(t, wrap(`      INTEGER I
      I = 0
      IF (I .EQ. 0) I = 5
      I = 9
`))
	// Branch node with T to the assignment and F to the join.
	var br cfg.NodeID
	for _, n := range p.G.Nodes() {
		if _, ok := n.Payload.(OpBranch); ok {
			br = n.ID
		}
	}
	if br == cfg.None {
		t.Fatal("no branch node")
	}
	var tTo, fTo cfg.NodeID
	for _, e := range p.G.OutEdges(br) {
		switch e.Label {
		case cfg.True:
			tTo = e.To
		case cfg.False:
			fTo = e.To
		}
	}
	if !strings.Contains(p.G.Node(tTo).Name(), "I = 5") {
		t.Errorf("T arm goes to %q", p.G.Node(tTo).Name())
	}
	if !strings.Contains(p.G.Node(fTo).Name(), "I = 9") {
		t.Errorf("F arm goes to %q", p.G.Node(fTo).Name())
	}
}

func TestEmptyProgram(t *testing.T) {
	p := lowerMain(t, "      PROGRAM T\n      END\n")
	if p.G.NumNodes() != 1 {
		t.Errorf("empty program has %d nodes, want 1 (END)", p.G.NumNodes())
	}
	if p.G.Entry != p.G.Exit {
		t.Error("entry must equal exit for an empty unit")
	}
}

func TestArithIfAndComputedGotoShape(t *testing.T) {
	p := lowerMain(t, wrap(`      INTEGER I
      I = 1
      IF (I) 10, 20, 30
   10 CONTINUE
      GOTO 40
   20 CONTINUE
      GOTO 40
   30 CONTINUE
   40 CONTINUE
      GOTO (10, 20), I
`))
	for _, n := range p.G.Nodes() {
		switch n.Payload.(type) {
		case OpArithIf:
			if got := len(p.G.Labels(n.ID)); got != 3 {
				t.Errorf("arith IF labels = %v", p.G.Labels(n.ID))
			}
		case OpComputedGoto:
			if got := len(p.G.Labels(n.ID)); got != 3 { // G1, G2, D
				t.Errorf("computed GOTO labels = %v", p.G.Labels(n.ID))
			}
		}
	}
}

// gotoSpaghetti returns a program of n labeled `I = I + 1` statements, each
// followed by two conditional GOTOs to labels drawn pseudo-randomly (a
// fixed LCG) among them: a few lines whose irreducible regions make node
// splitting exponential.
func gotoSpaghetti(n int, seed uint64) string {
	var b strings.Builder
	b.WriteString("      PROGRAM T\n      INTEGER I\n      I = 0\n")
	next := func() int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%5d I = I + 1\n", 10*(i+1))
		for k := 0; k < 2; k++ {
			fmt.Fprintf(&b, "      IF (I .GT. %d) GOTO %d\n", 3*i+k+1, 10*(next()+1))
		}
	}
	b.WriteString("      END\n")
	return b.String()
}

// TestGotoSpaghettiHitsSplitBudget lowers the exponential case and requires
// the node-splitting budget error, fast.
func TestGotoSpaghettiHitsSplitBudget(t *testing.T) {
	src := gotoSpaghetti(8, 4)
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	start := time.Now()
	_, err = Lower(prog)
	if took := time.Since(start); took > time.Second {
		t.Errorf("lowering took %v, want the budget to stop it in under 1s", took)
	}
	if !errors.Is(err, dfst.ErrSplitBudget) {
		t.Fatalf("Lower = %v, want %v\n%s", err, dfst.ErrSplitBudget, src)
	}
}

// TestGotoCaseAllocationFree: computed-GOTO dispatch asks for its edge
// label on every execution, so tabled labels must not allocate, and every
// label must read G<i>.
func TestGotoCaseAllocationFree(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 63, 64, 100, 12345} {
		if got, want := GotoCase(i), cfg.Label(fmt.Sprintf("G%d", i)); got != want {
			t.Errorf("GotoCase(%d) = %q, want %q", i, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 1; i < 64; i++ {
			gotoCaseSink = GotoCase(i)
		}
	})
	if allocs != 0 {
		t.Errorf("GotoCase allocates %v times per 63 calls, want 0", allocs)
	}
}

// gotoCaseSink keeps the measured GotoCase results live.
var gotoCaseSink cfg.Label
