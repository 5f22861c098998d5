package ecfg

import (
	"errors"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dfst"
	"repro/internal/interval"
	"repro/internal/paperex"
)

func mustBuild(t *testing.T, g *cfg.Graph) *Ext {
	t.Helper()
	in, err := interval.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Build(g, in)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func TestPaperExampleShape(t *testing.T) {
	g := paperex.CFG()
	ext := mustBuild(t, g)
	eg := ext.G

	// Figure 2 shape: original 6 nodes + 1 preheader + 2 postexits +
	// START + STOP = 11 nodes.
	if eg.NumNodes() != 11 {
		t.Fatalf("ECFG has %d nodes, want 11:\n%s", eg.NumNodes(), eg)
	}
	ph, ok := ext.Preheader[paperex.IfM]
	if !ok {
		t.Fatal("header has no preheader")
	}
	if eg.Node(ph).Type != cfg.Preheader {
		t.Errorf("preheader node type = %v", eg.Node(ph).Type)
	}
	if eg.Node(paperex.IfM).Type != cfg.Header {
		t.Errorf("header node type = %v", eg.Node(paperex.IfM).Type)
	}
	if len(ext.Postexits) != 2 {
		t.Fatalf("postexits = %v, want 2 of them", ext.Postexits)
	}
	for _, pe := range ext.Postexits {
		if ext.ExitedInterval[pe] != paperex.IfM {
			t.Errorf("postexit %d exits interval %d, want %d", pe, ext.ExitedInterval[pe], paperex.IfM)
		}
		// Pseudo edge from the preheader.
		found := false
		for _, e := range eg.InEdges(pe) {
			if e.From == ph && e.Label == cfg.PseudoLoop {
				found = true
			}
		}
		if !found {
			t.Errorf("postexit %d missing pseudo edge from preheader", pe)
		}
	}

	// START enters through the preheader (the original entry is the loop
	// header), and START -> STOP pseudo edge exists.
	var sawEntry, sawZ1 bool
	for _, e := range eg.OutEdges(ext.Start) {
		switch {
		case e.To == ph && e.Label == cfg.Uncond:
			sawEntry = true
		case e.To == ext.Stop && e.Label == cfg.PseudoStartStop:
			sawZ1 = true
		}
	}
	if !sawEntry || !sawZ1 {
		t.Errorf("START edges wrong: %v", eg.OutEdges(ext.Start))
	}

	// The back edge GOTO 10 -> header survives untouched.
	if !hasEdge(eg, paperex.Goto10, paperex.IfM, cfg.Uncond) {
		t.Error("back edge GOTO10 -> header missing")
	}
	// The exit edges now route through postexits: 2-T->pe and 3-T->pe.
	for _, src := range []cfg.NodeID{paperex.IfNLt, paperex.IfNGe} {
		for _, e := range eg.OutEdges(src) {
			if e.Label == cfg.True && eg.Node(e.To).Type != cfg.Postexit {
				t.Errorf("exit edge %v does not target a postexit", e)
			}
		}
	}
	if eg.Entry != ext.Start || eg.Exit != ext.Stop {
		t.Error("extended graph entry/exit not START/STOP")
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

func TestIntervalsRecomputed(t *testing.T) {
	ext := mustBuild(t, paperex.CFG())
	iv := ext.Intervals
	if len(iv.Headers()) != 1 || iv.Headers()[0] != paperex.IfM {
		t.Fatalf("extended headers = %v", iv.Headers())
	}
	ph := ext.Preheader[paperex.IfM]
	if iv.HDR(ph) != cfg.None {
		t.Errorf("HDR(preheader) = %d, want None (parent interval)", iv.HDR(ph))
	}
	for _, pe := range ext.Postexits {
		if iv.HDR(pe) != cfg.None {
			t.Errorf("HDR(postexit %d) = %d, want None", pe, iv.HDR(pe))
		}
	}
	// Loop body unchanged: nodes 1..5.
	for n := cfg.NodeID(1); n <= 5; n++ {
		if iv.HDR(n) != paperex.IfM {
			t.Errorf("HDR(%d) = %d, want header", n, iv.HDR(n))
		}
	}
}

func TestNestedLoopsGetChainedPostexits(t *testing.T) {
	// Inner loop exit that jumps straight out of both loops:
	// 1 -> 2(outer) -> 3(inner) -> 4 -> 3, 4 -> 6 (two-level exit),
	// plus normal paths 3 -> 5 -> 2 and 5 -> 6.
	g := cfg.New("two-level")
	for i := 0; i < 6; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 4, cfg.Uncond)
	g.MustAddEdge(4, 3, cfg.True)
	g.MustAddEdge(4, 6, cfg.False) // jumps out of inner AND outer loop
	g.MustAddEdge(3, 5, cfg.True)
	g.MustAddEdge(5, 2, cfg.True)
	g.MustAddEdge(5, 6, cfg.False)
	g.Entry, g.Exit = 1, 6

	// Hmm: 3 -> 4 (Uncond) and 3 -> 5 (True) both leave 3; that's fine for
	// the multigraph, the frontend would never produce it but the analyses
	// must not care.
	ext := mustBuild(t, g)
	// The two-level exit 4 -> 6 must produce a chain of two postexits:
	// one leaving the inner interval (pseudo edge from inner preheader) and
	// one leaving the outer (pseudo edge from outer preheader).
	byInterval := map[cfg.NodeID]int{}
	for _, pe := range ext.Postexits {
		byInterval[ext.ExitedInterval[pe]]++
	}
	if byInterval[3] < 1 {
		t.Errorf("no postexit for the inner interval: %v", ext.ExitedInterval)
	}
	if byInterval[2] < 1 {
		t.Errorf("no postexit for the outer interval: %v", ext.ExitedInterval)
	}
	// Every interval entry goes through the preheader chain.
	if err := ext.check(); err != nil {
		t.Error(err)
	}
}

func TestEntryEdgeFromSiblingLoopSplitsThenEnters(t *testing.T) {
	// Loop A {2} exits straight into loop B {3}: 1->2, 2->2, 2->3, 3->3,
	// 3->4. The edge 2->3 is an exit of A and an entry of B: it must route
	// 2 -> postexit(A) -> preheader(B) -> 3.
	g := cfg.New("sibling-transfer")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 2, cfg.True)
	g.MustAddEdge(2, 3, cfg.False)
	g.MustAddEdge(3, 3, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.Entry, g.Exit = 1, 4
	ext := mustBuild(t, g)
	eg := ext.G
	phB := ext.Preheader[3]
	// 2's False successor must now be a postexit whose successor is phB.
	var ok bool
	for _, e := range eg.OutEdges(2) {
		if e.Label != cfg.False {
			continue
		}
		pe := e.To
		if eg.Node(pe).Type == cfg.Postexit && hasEdge(eg, pe, phB, cfg.Uncond) {
			ok = true
		}
	}
	if !ok {
		t.Errorf("edge 2-F must route through postexit(A) then preheader(B):\n%s", eg)
	}
}

func TestNoLoopsStillGetsStartStop(t *testing.T) {
	g := cfg.New("line")
	g.AddNode(cfg.Other, "a")
	g.AddNode(cfg.Other, "b")
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.Entry, g.Exit = 1, 2
	ext := mustBuild(t, g)
	if ext.G.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4 (a, b, START, STOP)", ext.G.NumNodes())
	}
	if len(ext.Preheader) != 0 || len(ext.Postexits) != 0 {
		t.Error("loop-free graph must get no preheaders/postexits")
	}
	if !ext.IsSynthetic(ext.Start) || ext.IsSynthetic(1) {
		t.Error("IsSynthetic wrong")
	}
}

func TestInvalidInputRejected(t *testing.T) {
	g := cfg.New("bad")
	g.AddNode(cfg.Other, "a")
	g.AddNode(cfg.Other, "island")
	g.Entry, g.Exit = 1, 1
	in := &interval.Info{}
	if _, err := Build(g, in); err == nil {
		t.Fatal("Build must reject graphs that fail Validate")
	}
}

func TestSelfLoopHeader(t *testing.T) {
	// 1 -> 2, 2 -> 2 (self loop), 2 -> 3.
	g := cfg.New("self")
	for i := 0; i < 3; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 2, cfg.True)
	g.MustAddEdge(2, 3, cfg.False)
	g.Entry, g.Exit = 1, 3
	ext := mustBuild(t, g)
	ph, ok := ext.Preheader[2]
	if !ok {
		t.Fatal("self-loop header got no preheader")
	}
	// The self edge stays; the entry edge routes through the preheader.
	if !hasEdge(ext.G, 2, 2, cfg.True) {
		t.Error("self loop edge lost")
	}
	if !hasEdge(ext.G, 1, ph, cfg.Uncond) || !hasEdge(ext.G, ph, 2, cfg.Uncond) {
		t.Errorf("entry not routed through preheader:\n%s", ext.G)
	}
	// Exactly one postexit, fed by the F edge.
	if len(ext.Postexits) != 1 {
		t.Fatalf("postexits = %v", ext.Postexits)
	}
}

func TestLoopAtEntry(t *testing.T) {
	// The entry node itself is a loop header; START must route through the
	// preheader (the Figure 2 case).
	g := cfg.New("entryloop")
	g.AddNode(cfg.Other, "hdr")
	g.AddNode(cfg.Other, "exit")
	g.MustAddEdge(1, 1, cfg.True)
	g.MustAddEdge(1, 2, cfg.False)
	g.Entry, g.Exit = 1, 2
	ext := mustBuild(t, g)
	ph := ext.Preheader[1]
	ok := false
	for _, e := range ext.G.OutEdges(ext.Start) {
		if e.To == ph && e.Label == cfg.Uncond {
			ok = true
		}
	}
	if !ok {
		t.Errorf("START must enter through the preheader:\n%s", ext.G)
	}
}

func TestIsSynthetic(t *testing.T) {
	ext := mustBuild(t, paperex.CFG())
	ph := ext.Preheader[paperex.IfM]
	if ext.HeaderOf[ph] != paperex.IfM {
		t.Errorf("HeaderOf(%d) = %d, want %d", ph, ext.HeaderOf[ph], paperex.IfM)
	}
	if !ext.IsSynthetic(ph) || ext.IsSynthetic(paperex.Call) {
		t.Error("IsSynthetic misclassifies")
	}
}

// irreducibleDoubleEntry builds a loop {2,3} that is entered both at 2 and
// at 3 — the canonical irreducible shape lower's node splitting exists for.
func irreducibleDoubleEntry() *cfg.Graph {
	g := cfg.New("irr")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.Entry, g.Exit = 1, 4
	return g
}

// TestIrreducibleTypedErrorThenSplit feeds a double-entry loop to the
// interval/ECFG layers directly, bypassing lower's node splitting: the
// interval layer must return the typed *interval.ErrIrreducible (not
// panic), and after dfst.MakeReducible the same graph must flow through
// Build cleanly.
func TestIrreducibleTypedErrorThenSplit(t *testing.T) {
	g := irreducibleDoubleEntry()
	_, err := interval.Analyze(g)
	var irr *interval.ErrIrreducible
	if !errors.As(err, &irr) {
		t.Fatalf("interval.Analyze = %v, want *interval.ErrIrreducible", err)
	}
	if irr.Edge.To == 0 {
		t.Errorf("typed error carries no offending edge: %+v", irr)
	}

	split, sr := dfst.MakeReducible(g)
	if sr.Splits == 0 {
		t.Fatal("MakeReducible performed no splits on a double-entry loop")
	}
	iv, err := interval.Analyze(split)
	if err != nil {
		t.Fatalf("interval.Analyze after splitting: %v", err)
	}
	ext, err := Build(split, iv)
	if err != nil {
		t.Fatalf("Build after splitting: %v", err)
	}
	if len(iv.Headers()) == 0 {
		t.Error("split graph lost its loop")
	}
	if ext.Start == 0 || ext.Stop == 0 {
		t.Errorf("ECFG missing START/STOP: start=%d stop=%d", ext.Start, ext.Stop)
	}
}
