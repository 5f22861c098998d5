package analysis

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/dfst"
	"repro/internal/interval"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/paperex"
)

func TestPaperExamplePipeline(t *testing.T) {
	a, err := AnalyzeProc(&lower.Proc{G: paperex.CFG()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Intervals == nil || a.Ext == nil || a.FCDG == nil {
		t.Fatal("incomplete analysis")
	}
	if len(a.FCDG.Topo()) == 0 {
		t.Fatal("FCDG has no topological order")
	}
}

func TestBottomUpOrder(t *testing.T) {
	src := `      PROGRAM MAINP
      CALL A
      END

      SUBROUTINE A
      CALL B
      CALL C
      RETURN
      END

      SUBROUTINE B
      CALL C
      RETURN
      END

      SUBROUTINE C
      RETURN
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := AnalyzeProgram(res)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, comp := range ap.BottomUp {
		if len(comp) != 1 {
			t.Fatalf("unexpected SCC %v", comp)
		}
		pos[comp[0]] = i
	}
	// Callees before callers.
	if !(pos["C"] < pos["B"] && pos["B"] < pos["A"] && pos["A"] < pos["MAINP"]) {
		t.Errorf("bottom-up order wrong: %v", ap.BottomUp)
	}
	for _, name := range []string{"MAINP", "A", "B", "C"} {
		if ap.IsRecursive(name) {
			t.Errorf("%s flagged recursive", name)
		}
	}
}

func TestRecursiveComponents(t *testing.T) {
	src := `      PROGRAM MAINP
      CALL A
      CALL S
      END

      SUBROUTINE A
      CALL B
      RETURN
      END

      SUBROUTINE B
      CALL A
      RETURN
      END

      SUBROUTINE S
      CALL S
      RETURN
      END
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := AnalyzeProgram(res)
	if err != nil {
		t.Fatal(err)
	}
	var mutual []string
	for _, comp := range ap.BottomUp {
		if len(comp) > 1 {
			mutual = comp
		}
	}
	if len(mutual) != 2 || mutual[0] != "A" || mutual[1] != "B" {
		t.Errorf("mutual component = %v, want [A B]", mutual)
	}
	for _, name := range []string{"A", "B", "S"} {
		if !ap.IsRecursive(name) {
			t.Errorf("%s not flagged recursive", name)
		}
	}
	if ap.IsRecursive("MAINP") {
		t.Error("MAINP flagged recursive")
	}
}

// randomReducibleCFG builds a random structured CFG: a sequence of diamond
// and while-loop gadgets, guaranteed reducible by construction.
func randomReducibleCFG(seed uint64, gadgets int) *cfg.Graph {
	g := cfg.New("random")
	rng := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 11) % uint64(n))
	}
	cur := g.AddNode(cfg.Other, "entry").ID
	for i := 0; i < gadgets; i++ {
		switch next(3) {
		case 0: // straight line
			n := g.AddNode(cfg.Other, "s").ID
			g.MustAddEdge(cur, n, cfg.Uncond)
			cur = n
		case 1: // diamond
			c := g.AddNode(cfg.Other, "if").ID
			a := g.AddNode(cfg.Other, "a").ID
			b := g.AddNode(cfg.Other, "b").ID
			j := g.AddNode(cfg.Other, "join").ID
			g.MustAddEdge(cur, c, cfg.Uncond)
			g.MustAddEdge(c, a, cfg.True)
			g.MustAddEdge(c, b, cfg.False)
			g.MustAddEdge(a, j, cfg.Uncond)
			g.MustAddEdge(b, j, cfg.Uncond)
			cur = j
		default: // while loop (possibly nested body)
			h := g.AddNode(cfg.Other, "hdr").ID
			body := g.AddNode(cfg.Other, "body").ID
			exit := g.AddNode(cfg.Other, "exit").ID
			g.MustAddEdge(cur, h, cfg.Uncond)
			g.MustAddEdge(h, body, cfg.True)
			g.MustAddEdge(h, exit, cfg.False)
			g.MustAddEdge(body, h, cfg.Uncond)
			cur = exit
		}
	}
	end := g.AddNode(cfg.Other, "end").ID
	g.MustAddEdge(cur, end, cfg.Uncond)
	g.Entry, g.Exit = 1, end
	return g
}

// TestRandomGraphPipelineProperties: for random reducible CFGs the pipeline
// must succeed and the FCDG must be a rooted DAG covering every node except
// STOP, with interval nesting forming a forest.
func TestRandomGraphPipelineProperties(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		size := 1 + int(sizeRaw%20)
		g := randomReducibleCFG(seed, size)
		if !dfst.Reducible(g) {
			t.Logf("seed %d: generator produced irreducible graph", seed)
			return false
		}
		a, err := AnalyzeProc(&lower.Proc{G: g})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Every node except STOP reachable in FCDG from START.
		reach := map[cfg.NodeID]bool{a.FCDG.Root: true}
		var walk func(n cfg.NodeID)
		walk = func(n cfg.NodeID) {
			for _, e := range a.FCDG.OutEdges(n) {
				if !reach[e.To] {
					reach[e.To] = true
					walk(e.To)
				}
			}
		}
		walk(a.FCDG.Root)
		for id := cfg.NodeID(1); id <= a.Ext.G.MaxID(); id++ {
			if id == a.Ext.Stop {
				continue
			}
			if !reach[id] {
				t.Logf("seed %d: node %d unreachable in FCDG", seed, id)
				return false
			}
		}
		// Interval nesting is a forest: every header's parent chain ends
		// at None without cycles.
		for _, h := range a.Intervals.Headers() {
			seen := map[cfg.NodeID]bool{}
			for p := h; p != cfg.None; p = a.Intervals.Parent(p) {
				if seen[p] {
					t.Logf("seed %d: parent cycle at %d", seed, p)
					return false
				}
				seen[p] = true
			}
		}
		// Topo order is consistent (already verified by construction, but
		// double-check length: every node with FCDG presence is ordered).
		return len(a.FCDG.Topo()) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeProcIrreducibleTypedError hands the pipeline a hand-built
// procedure whose CFG is irreducible — possible only by bypassing lower,
// which node-splits such graphs. The analysis must surface the typed
// interval error through its %w chain rather than panicking downstream.
func TestAnalyzeProcIrreducibleTypedError(t *testing.T) {
	g := cfg.New("IRR")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.Entry, g.Exit = 1, 4

	a, err := AnalyzeProc(&lower.Proc{G: g})
	if err == nil {
		t.Fatalf("AnalyzeProc accepted an irreducible CFG: %+v", a)
	}
	var irr *interval.ErrIrreducible
	if !errors.As(err, &irr) {
		t.Fatalf("AnalyzeProc = %v, want wrapped *interval.ErrIrreducible", err)
	}
}
