package cdg

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ecfg"
	"repro/internal/interval"
	"repro/internal/paperex"
)

func buildExt(t *testing.T, g *cfg.Graph) *ecfg.Ext {
	t.Helper()
	in, err := interval.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ecfg.Build(g, in)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func buildFCDG(t *testing.T, g *cfg.Graph) (*ecfg.Ext, *Graph) {
	t.Helper()
	ext := buildExt(t, g)
	c, err := Build(ext)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Forward()
	if err != nil {
		t.Fatal(err)
	}
	return ext, f
}

// TestPaperExampleFCDG checks the full control dependence structure of
// Figure 3. With the hand-built Figure 1 CFG the ECFG node IDs are:
// 1..6 the statements, 7 = PREHEADER, 8 = POSTEXIT (from IF N.LT.0),
// 9 = POSTEXIT (from IF N.GE.0), 10 = START, 11 = STOP.
func TestPaperExampleFCDG(t *testing.T) {
	ext, f := buildFCDG(t, paperex.CFG())
	ph := ext.Preheader[paperex.IfM]
	start := ext.Start

	type e struct {
		from cfg.NodeID
		to   cfg.NodeID
		l    cfg.Label
	}
	want := []e{
		{start, ph, cfg.Uncond},             // loop region CD on START
		{start, paperex.Cont20, cfg.Uncond}, // code after the loop CD on START
		{ph, paperex.IfM, cfg.Uncond},       // header CD on preheader (loop freq)
		{paperex.IfM, paperex.IfNLt, cfg.True},
		{paperex.IfM, paperex.IfNGe, cfg.False},
		{paperex.IfNLt, paperex.Call, cfg.False},
		{paperex.IfNLt, paperex.Goto10, cfg.False},
		{paperex.IfNGe, paperex.Call, cfg.False},
		{paperex.IfNGe, paperex.Goto10, cfg.False},
	}
	for _, w := range want {
		if !f.HasEdge(w.from, w.to, w.l) {
			t.Errorf("FCDG missing edge %d -%s-> %d\n%s", w.from, w.l, w.to, f)
		}
	}
	// Postexits are CD on the preheader via the pseudo label.
	for _, pe := range ext.Postexits {
		onPre := f.HasEdge(ph, pe, cfg.PseudoLoop)
		if !onPre {
			t.Errorf("postexit %d not CD on (preheader, Z2)\n%s", pe, f)
		}
	}
	// The loop-closing dependences (IF arms -> header) must be gone.
	if f.HasEdge(paperex.IfNLt, paperex.IfM, cfg.False) ||
		f.HasEdge(paperex.IfNGe, paperex.IfM, cfg.False) {
		t.Errorf("FCDG kept a back edge to the header\n%s", f)
	}
	// STOP is control dependent on nothing and controls nothing.
	if len(f.OutEdges(ext.Stop)) != 0 || len(f.InEdges(ext.Stop)) != 0 {
		t.Errorf("STOP must be isolated in the FCDG")
	}
}

func TestCDGKeepsLoopBackDependences(t *testing.T) {
	ext := buildExt(t, paperex.CFG())
	c, err := Build(ext)
	if err != nil {
		t.Fatal(err)
	}
	// In the full CDG the header IS control dependent on the continuing IF
	// arms (the cycle the FCDG breaks).
	if !c.HasEdge(paperex.IfNLt, paperex.IfM, cfg.False) {
		t.Errorf("CDG missing loop-back dependence (IF N.LT.0, F) -> header\n%s", c)
	}
}

func TestForwardIsAcyclicWithTopo(t *testing.T) {
	_, f := buildFCDG(t, paperex.CFG())
	topo := f.Topo()
	if len(topo) == 0 {
		t.Fatal("no topological order")
	}
	pos := map[cfg.NodeID]int{}
	for i, n := range topo {
		pos[n] = i
	}
	for _, n := range f.Nodes() {
		for _, e := range f.OutEdges(n) {
			if pos[e.From] >= pos[e.To] {
				t.Errorf("edge %v violates topological order", e)
			}
		}
	}
	if topo[0] != f.Root {
		t.Errorf("topo[0] = %d, want root %d", topo[0], f.Root)
	}
}

func TestFCDGRootedAndConnected(t *testing.T) {
	// Paper: "the forward control dependence graph is rooted and
	// connected" — every ECFG node except STOP is reachable from START.
	ext, f := buildFCDG(t, paperex.CFG())
	reach := map[cfg.NodeID]bool{f.Root: true}
	var walk func(n cfg.NodeID)
	walk = func(n cfg.NodeID) {
		for _, e := range f.OutEdges(n) {
			if !reach[e.To] {
				reach[e.To] = true
				walk(e.To)
			}
		}
	}
	walk(f.Root)
	for id := cfg.NodeID(1); id <= ext.G.MaxID(); id++ {
		if id == ext.Stop {
			continue
		}
		if !reach[id] {
			t.Errorf("node %d (%s) not reachable from START in FCDG", id, ext.G.Node(id).Name())
		}
	}
}

func TestConditions(t *testing.T) {
	ext, f := buildFCDG(t, paperex.CFG())
	conds := f.Conditions()
	// Expected conditions: (START,U), (ph,U), (ph,Z2), (1,T), (1,F),
	// (2,F), (3,F)  — plus nothing else. (2,T)/(3,T) appear iff the
	// postexits are also CD on the exit branches, which they are.
	set := map[Condition]bool{}
	for _, c := range conds {
		set[c] = true
	}
	mustHave := []Condition{
		{ext.Start, cfg.Uncond},
		{ext.Preheader[paperex.IfM], cfg.Uncond},
		{ext.Preheader[paperex.IfM], cfg.PseudoLoop},
		{paperex.IfM, cfg.True},
		{paperex.IfM, cfg.False},
		{paperex.IfNLt, cfg.False},
		{paperex.IfNGe, cfg.False},
		{paperex.IfNLt, cfg.True},
		{paperex.IfNGe, cfg.True},
	}
	for _, c := range mustHave {
		if !set[c] {
			t.Errorf("Conditions missing %v: %v", c, conds)
		}
	}
	// Sorted by node then label.
	for i := 1; i < len(conds); i++ {
		a, b := conds[i-1], conds[i]
		if a.Node > b.Node || (a.Node == b.Node && a.Label >= b.Label) {
			t.Errorf("Conditions not sorted: %v before %v", a, b)
		}
	}
}

func TestChildrenAndLabels(t *testing.T) {
	_, f := buildFCDG(t, paperex.CFG())
	kids := f.Children(paperex.IfNLt, cfg.False)
	if len(kids) != 2 || kids[0] != paperex.Call || kids[1] != paperex.Goto10 {
		t.Errorf("Children(IF N.LT.0, F) = %v, want [CALL GOTO]", kids)
	}
	labels := f.Labels(paperex.IfM)
	if len(labels) != 2 {
		t.Errorf("Labels(header) = %v, want [F T]", labels)
	}
}

func TestIdenticallyControlDependentShareCondition(t *testing.T) {
	// The first profiling optimization's premise: CALL and GOTO are
	// identically control dependent — both children of (IF N.LT.0, F) and
	// (IF N.GE.0, F) — although they are in different basic blocks.
	_, f := buildFCDG(t, paperex.CFG())
	parentsOf := func(n cfg.NodeID) map[Condition]bool {
		set := map[Condition]bool{}
		for _, e := range f.InEdges(n) {
			set[Condition{e.From, e.Label}] = true
		}
		return set
	}
	pc, pg := parentsOf(paperex.Call), parentsOf(paperex.Goto10)
	if len(pc) != len(pg) {
		t.Fatalf("CALL and GOTO have different CD parents: %v vs %v", pc, pg)
	}
	for c := range pc {
		if !pg[c] {
			t.Fatalf("CALL and GOTO have different CD parents: %v vs %v", pc, pg)
		}
	}
}

func TestDiamondCDG(t *testing.T) {
	g := cfg.New("diamond")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 4, cfg.Uncond)
	g.MustAddEdge(3, 4, cfg.Uncond)
	g.Entry, g.Exit = 1, 4
	ext, f := buildFCDG(t, g)
	if !f.HasEdge(1, 2, cfg.True) || !f.HasEdge(1, 3, cfg.False) {
		t.Errorf("branch arms not CD on the branch:\n%s", f)
	}
	// The join node is CD on START, not on the branch.
	if f.HasEdge(1, 4, cfg.True) || f.HasEdge(1, 4, cfg.False) {
		t.Errorf("join node must not be CD on the branch:\n%s", f)
	}
	if !f.HasEdge(ext.Start, 4, cfg.Uncond) {
		t.Errorf("join node must be CD on START:\n%s", f)
	}
}

func TestStringOutput(t *testing.T) {
	_, f := buildFCDG(t, paperex.CFG())
	s := f.String()
	if !strings.Contains(s, "fcdg root=") {
		t.Errorf("String() = %q", s)
	}
	d := f.DOT()
	if !strings.Contains(d, "digraph") || !strings.Contains(d, "PREHEADER") {
		t.Errorf("DOT() missing content")
	}
}

func TestNumEdges(t *testing.T) {
	_, f := buildFCDG(t, paperex.CFG())
	if f.NumEdges() < 9 {
		t.Errorf("NumEdges = %d, want >= 9", f.NumEdges())
	}
}

// TestLoopCarriedDependencesDropped is the regression test for the
// double-count bug the Livermore kernels exposed: a GOTO loop whose header
// is a plain assignment (no CD descendants) used to keep loop-carried CD
// edges like (latch-IF, T) -> header in the FCDG, inflating NODE_FREQ by
// the back-edge count. Both drop rules are exercised: dependences
// generated by walking CFG back edges, and forward-walk dependences
// landing on a header from inside its own loop.
func TestLoopCarriedDependencesDropped(t *testing.T) {
	// 1: K=0; 2: K=K+1 (header); 3: IF exit; 4: work; 5: IF(...) GOTO 2;
	// 6: GOTO 2 via second path; 7: after.
	g := cfg.New("gotoloop")
	for i := 0; i < 7; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 7, cfg.True)  // loop exit
	g.MustAddEdge(3, 4, cfg.False) // continue
	g.MustAddEdge(4, 2, cfg.True)  // back edge (branch)
	g.MustAddEdge(4, 5, cfg.False)
	g.MustAddEdge(5, 6, cfg.Uncond)
	g.MustAddEdge(6, 2, cfg.Uncond) // back edge (unconditional)
	g.Entry, g.Exit = 1, 7
	ext, f := buildFCDG(t, g)

	// The header (2) must be CD on exactly one condition: the preheader's
	// loop-body label.
	ph := ext.Preheader[2]
	in := f.InEdges(2)
	if len(in) != 1 || in[0].From != ph || in[0].Label != cfg.Uncond {
		t.Errorf("header in-edges = %v, want only (preheader %d, U)\n%s", in, ph, f)
	}
	// Same for every node that executes once per iteration: its in-conds
	// must be mutually exclusive per execution. Node 3 executes once per
	// header execution, so it too hangs only off the loop condition.
	in3 := f.InEdges(3)
	if len(in3) != 1 || in3[0].From != ph {
		t.Errorf("node 3 in-edges = %v, want only the preheader\n%s", in3, f)
	}
	// Nodes 5 and 6 are CD on (4,F) only.
	for _, n := range []cfg.NodeID{5, 6} {
		for _, e := range f.InEdges(n) {
			if e.From != 4 || e.Label != cfg.False {
				t.Errorf("node %d unexpected in-edge %v", n, e)
			}
		}
	}
}

// TestConditionStringMatchesFmt pins Condition.String to the
// fmt.Sprintf("(%d,%s)") form it replaced, for every kind of edge label
// over a range of node IDs: the service's counter and totals keys are
// these strings.
func TestConditionStringMatchesFmt(t *testing.T) {
	labels := []cfg.Label{cfg.True, cfg.False, cfg.Uncond, cfg.PseudoStartStop, cfg.PseudoLoop,
		"LT", "EQ", "GT", "D", "G1", "G63", "G64", "G1000", ""}
	ids := []cfg.NodeID{cfg.None, -1, 1 << 40}
	for id := cfg.NodeID(1); id <= 5000; id += 7 {
		ids = append(ids, id)
	}
	for _, l := range labels {
		for _, id := range ids {
			c := Condition{Node: id, Label: l}
			if got, want := c.String(), fmt.Sprintf("(%d,%s)", c.Node, c.Label); got != want {
				t.Fatalf("Condition{%d, %q}.String() = %q, want %q", id, l, got, want)
			}
		}
	}
}
