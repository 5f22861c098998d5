package dom

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/paperex"
)

// diamond: 1 -> {2,3} -> 4
func diamond() *cfg.Graph {
	g := cfg.New("diamond")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 4, cfg.Uncond)
	g.MustAddEdge(3, 4, cfg.Uncond)
	g.Entry, g.Exit = 1, 4
	return g
}

func TestDominatorsDiamond(t *testing.T) {
	d := Dominators(diamond())
	want := map[cfg.NodeID]cfg.NodeID{1: 1, 2: 1, 3: 1, 4: 1}
	for n, idom := range want {
		if d.Idom[n] != idom {
			t.Errorf("idom(%d) = %d, want %d", n, d.Idom[n], idom)
		}
	}
	if !d.Dominates(1, 4) || d.StrictlyDominates(2, 4) {
		t.Error("1 must dominate 4; 2 must not")
	}
	if !d.Dominates(3, 3) {
		t.Error("dominance must be reflexive")
	}
	if d.StrictlyDominates(3, 3) {
		t.Error("strict dominance must be irreflexive")
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	p := PostDominators(diamond())
	for n := cfg.NodeID(1); n <= 3; n++ {
		if p.Idom[n] != 4 {
			t.Errorf("ipdom(%d) = %d, want 4", n, p.Idom[n])
		}
	}
	if !p.Dominates(4, 1) {
		t.Error("exit must postdominate entry")
	}
	if p.Dominates(2, 1) {
		t.Error("2 must not postdominate 1 (path through 3)")
	}
}

func TestDominatorsPaperExample(t *testing.T) {
	g := paperex.CFG()
	d := Dominators(g)
	// Node 1 (loop header, entry) dominates everything.
	for n := cfg.NodeID(1); n <= 6; n++ {
		if !d.Dominates(paperex.IfM, n) {
			t.Errorf("header must dominate node %d", n)
		}
	}
	// CALL (4) is reached from both IF arms, so its idom is the header.
	if d.Idom[paperex.Call] != paperex.IfM {
		t.Errorf("idom(CALL) = %d, want %d", d.Idom[paperex.Call], paperex.IfM)
	}
	p := PostDominators(g)
	// CONTINUE (6) postdominates everything.
	for n := cfg.NodeID(1); n <= 6; n++ {
		if !p.Dominates(paperex.Cont20, n) {
			t.Errorf("exit must postdominate node %d", n)
		}
	}
	// Neither IF arm postdominates the header.
	if p.Dominates(paperex.IfNLt, paperex.IfM) || p.Dominates(paperex.IfNGe, paperex.IfM) {
		t.Error("IF arms must not postdominate the header")
	}
	// GOTO 10 (5) is postdominated by the header via the back edge? No:
	// paths from 5 go 5->1->...->6; the header 1 is on every path from 5.
	if !p.Dominates(paperex.IfM, paperex.Goto10) {
		t.Error("header must postdominate GOTO 10")
	}
}

func TestLoopDominators(t *testing.T) {
	// 1 -> 2(header) -> 3 -> 2, 3 -> 4
	g := cfg.New("loop")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.Entry, g.Exit = 1, 4
	d := Dominators(g)
	if d.Idom[2] != 1 || d.Idom[3] != 2 || d.Idom[4] != 3 {
		t.Errorf("idoms = %v, want 2:1 3:2 4:3", d.Idom)
	}
	if got := d.Children(2); len(got) != 1 || got[0] != 3 {
		t.Errorf("Children(2) = %v, want [3]", got)
	}
	if d.Parent(1) != cfg.None {
		t.Errorf("Parent(root) = %d, want None", d.Parent(1))
	}
}

func TestUnreachableFromExit(t *testing.T) {
	// Node 3 never reaches the exit: 1->2->4(exit), 1->3, 3->3.
	// The postdominator tree must simply exclude it.
	g := cfg.New("trap")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(2, 4, cfg.Uncond)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(3, 3, cfg.Uncond)
	g.Entry, g.Exit = 1, 4
	p := PostDominators(g)
	if p.InTree(3) {
		t.Error("node 3 must be outside the postdominator tree")
	}
	if !p.InTree(1) || !p.InTree(2) {
		t.Error("nodes 1 and 2 must be in the postdominator tree")
	}
}

func TestDominatesOutOfRange(t *testing.T) {
	d := Dominators(diamond())
	if d.Dominates(1, 99) || d.Dominates(99, 1) || d.Dominates(cfg.None, 1) {
		t.Error("out-of-range queries must return false")
	}
}
