package cdg

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/ecfg"
	"repro/internal/lang"
	"repro/internal/livermore"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/simplecfd"
)

// This file keeps the two-pass FCDG construction Build replaced, as an
// oracle: oracleBuild derives the full (cyclic) control dependence graph
// with back-edge markers, and oracleForward copies it into the forward
// graph by a depth-first traversal over (target, label)-sorted out-edges.
// Build must reproduce its result exactly — out-lists, in-list order,
// topological order and dense condition tables.

// oracleCDG is the full control dependence graph.
type oracleCDG struct {
	Ext  *ecfg.Ext
	Root cfg.NodeID

	// succ[n] and pred[n] are n's out- and in-edges in insertion order.
	succ, pred [][]cfg.Edge

	// back[n] lists, sorted by (target, label), n's out-edges generated
	// by walking a CFG back edge; oracleForward drops them.
	back [][]cfg.Edge
}

// oracleBuild constructs the full control dependence graph of ext.
func oracleBuild(ext *ecfg.Ext) (*oracleCDG, error) {
	g := ext.G
	pdom := dom.PostDominators(g)
	if !pdom.InTree(ext.Start) {
		return nil, fmt.Errorf("cdg: START cannot reach STOP in %q", g.Name)
	}
	n := int(g.MaxID()) + 1
	c := &oracleCDG{
		Ext:  ext,
		Root: ext.Start,
		succ: make([][]cfg.Edge, n),
		pred: make([][]cfg.Edge, n),
		back: make([][]cfg.Edge, n),
	}
	iv := ext.Intervals
	// seen[y] == stamp when y is already control dependent on the
	// current condition (x, l), so set semantics cost O(1) per step;
	// backSeen does the same for the back-edge markers. A node's out-edges
	// with equal labels share one stamp.
	seen := make([]int, len(c.succ))
	backSeen := make([]int, len(c.succ))
	stamp := 0
	type labelStamp struct {
		label cfg.Label
		stamp int
	}
	var stamps []labelStamp
	for x := cfg.NodeID(1); x <= g.MaxID(); x++ {
		stamps = stamps[:0]
		for _, e := range g.OutEdges(x) {
			if e.From == e.To {
				continue // a self loop never makes a node control dependent on itself
			}
			if !pdom.InTree(e.From) || !pdom.InTree(e.To) {
				return nil, fmt.Errorf("cdg: node of edge %v cannot reach STOP (non-terminating region?)", e)
			}
			st := 0
			for _, ls := range stamps {
				if ls.label == e.Label {
					st = ls.stamp
				}
			}
			if st == 0 {
				stamp++
				st = stamp
				stamps = append(stamps, labelStamp{e.Label, st})
			}
			isBack := iv.IsHeader(e.To) && iv.Contains(e.To, e.From)
			stopAt := pdom.Parent(x)
			for runner := e.To; runner != stopAt; runner = pdom.Parent(runner) {
				if runner == cfg.None {
					return nil, fmt.Errorf("cdg: postdominator walk from edge %v escaped the tree", e)
				}
				cd := cfg.Edge{From: x, To: runner, Label: e.Label}
				if seen[runner] != st {
					seen[runner] = st
					c.succ[x] = append(c.succ[x], cd)
					c.pred[runner] = append(c.pred[runner], cd)
				}
				if isBack && backSeen[runner] != st {
					backSeen[runner] = st
					c.back[x] = append(c.back[x], cd)
				}
			}
		}
		slices.SortFunc(c.back[x], byTargetLabel)
	}
	return c, nil
}

// oracleForward returns the forward control dependence graph: a copy of c
// with all back edges removed.
func (c *oracleCDG) oracleForward() (*Graph, error) {
	f := &Graph{
		Ext:  c.Ext,
		Root: c.Root,
		succ: make([][]cfg.Edge, len(c.succ)),
		pred: make([][]cfg.Edge, len(c.succ)),
	}
	// Depth-first traversal from the root; an edge to a node currently on
	// the DFS stack is a back edge and is dropped. The traversal uses an
	// explicit stack so arbitrarily deep dependence chains (generated
	// programs routinely nest hundreds of levels) cannot overflow the
	// goroutine stack.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, len(c.succ))
	iv := c.Ext.Intervals
	type frame struct {
		node  cfg.NodeID
		edges []cfg.Edge
		next  int
		back  []cfg.Edge // the node's back-edge dependences not yet passed
	}
	push := func(stack []frame, n cfg.NodeID) []frame {
		color[n] = grey
		return append(stack, frame{node: n, edges: c.sortedOut(n), back: c.back[n]})
	}
	stack := push(nil, c.Root)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next >= len(fr.edges) {
			color[fr.node] = black
			stack = stack[:len(stack)-1]
			continue
		}
		e := fr.edges[fr.next]
		fr.next++
		// Both lists are (target, label)-sorted: merge-walk the back
		// markers alongside the out-edges.
		for len(fr.back) > 0 && byTargetLabel(fr.back[0], e) < 0 {
			fr.back = fr.back[1:]
		}
		if len(fr.back) > 0 && fr.back[0] == e {
			continue // loop-carried dependence from a CFG back edge
		}
		if iv.IsHeader(e.To) && iv.Contains(e.To, e.From) {
			// A dependence on the loop's own header from inside the
			// loop says "this branch re-executes the loop" — the
			// preheader's loop condition accounts for re-executions.
			continue
		}
		if color[e.To] == grey {
			continue // closes a CDG cycle: dropped in the forward CDG
		}
		f.succ[e.From] = append(f.succ[e.From], e)
		f.pred[e.To] = append(f.pred[e.To], e)
		if color[e.To] == white {
			stack = push(stack, e.To)
		}
	}
	if err := f.computeTopo(); err != nil {
		return nil, err
	}
	oracleBuildDense(f)
	return f, nil
}

// oracleBuildDense precomputes the condition list and per-node
// condition/child tables from oracleLabels and oracleChildren.
func oracleBuildDense(g *Graph) {
	for n := range g.succ {
		for _, l := range oracleLabels(g.succ[n]) {
			g.conds = append(g.conds, Condition{Node: cfg.NodeID(n), Label: l})
		}
	}
	g.nodeConds = make([][]CondInfo, len(g.succ))
	for i, c := range g.conds {
		info := CondInfo{Cond: c, Index: i, Children: oracleChildren(g.succ[c.Node], c.Label)}
		g.nodeConds[c.Node] = append(g.nodeConds[c.Node], info)
	}
}

// sortedOut returns n's out-edges ordered by (target, label) for
// deterministic traversal.
func (c *oracleCDG) sortedOut(n cfg.NodeID) []cfg.Edge {
	out := slices.Clone(c.succ[n])
	slices.SortFunc(out, byTargetLabel)
	return out
}

// hasEdge reports whether the exact (x, y, l) control dependence exists.
func (c *oracleCDG) hasEdge(x, y cfg.NodeID, l cfg.Label) bool {
	return slices.Contains(c.succ[x], cfg.Edge{From: x, To: y, Label: l})
}

// oracleLabels returns the distinct labels on es, sorted.
func oracleLabels(es []cfg.Edge) []cfg.Label {
	var out []cfg.Label
	for _, e := range es {
		if !slices.Contains(out, e.Label) {
			out = append(out, e.Label)
		}
	}
	slices.Sort(out)
	return out
}

// oracleChildren returns the targets of es's edges labelled l, in
// ascending ID order.
func oracleChildren(es []cfg.Edge, l cfg.Label) []cfg.NodeID {
	var out []cfg.NodeID
	for _, e := range es {
		if e.Label == l {
			out = append(out, e.To)
		}
	}
	slices.Sort(out)
	return out
}

// TestBuildMatchesOracle checks that Build reproduces oracleBuild +
// oracleForward exactly — root, every node's out-list and in-list in
// order, the topological order, the conditions and the per-node condition
// tables — on every procedure of the digest corpus, the first 20
// cold-large programs, and the LOOPS and SIMPLE programs of Table 1.
func TestBuildMatchesOracle(t *testing.T) {
	srcs := corpus.Digest(t)
	for j, src := range corpus.ColdLarge(20) {
		srcs[fmt.Sprintf("cold/%02d", j)] = src
	}
	srcs["livermore"] = livermore.Source(100, 1)
	srcs["simplecfd"] = simplecfd.Source(100, 10)
	procs := 0
	for name, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pname, p := range res.Procs {
			procs++
			ext := buildExt(t, p.G)
			got, err := Build(ext)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pname, err)
			}
			full, err := oracleBuild(ext)
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", name, pname, err)
			}
			want, err := full.oracleForward()
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", name, pname, err)
			}
			if diff := graphDiff(got, want); diff != "" {
				t.Errorf("%s %s: Build differs from the oracle: %s", name, pname, diff)
			}
		}
	}
	if procs < 500 {
		t.Fatalf("compared only %d procedures", procs)
	}
	t.Logf("compared %d procedures", procs)
}

// graphDiff names the first table on which got and want differ ("" if
// none).
func graphDiff(got, want *Graph) string {
	switch {
	case got.Root != want.Root:
		return fmt.Sprintf("root %d, want %d", got.Root, want.Root)
	case len(got.succ) != len(want.succ):
		return fmt.Sprintf("%d nodes, want %d", len(got.succ), len(want.succ))
	case !slices.Equal(got.Topo(), want.Topo()):
		return fmt.Sprintf("topo %v, want %v", got.Topo(), want.Topo())
	case !slices.Equal(got.Conditions(), want.Conditions()):
		return fmt.Sprintf("conditions %v, want %v", got.Conditions(), want.Conditions())
	}
	for n := range got.succ {
		id := cfg.NodeID(n)
		switch {
		case !slices.Equal(got.OutEdges(id), want.OutEdges(id)):
			return fmt.Sprintf("out-edges of %d: %v, want %v", n, got.OutEdges(id), want.OutEdges(id))
		case !slices.Equal(got.InEdges(id), want.InEdges(id)):
			return fmt.Sprintf("in-edges of %d: %v, want %v", n, got.InEdges(id), want.InEdges(id))
		case !reflect.DeepEqual(got.NodeConds(id), want.NodeConds(id)):
			return fmt.Sprintf("conditions of %d: %v, want %v", n, got.NodeConds(id), want.NodeConds(id))
		}
	}
	return ""
}

func TestCDGKeepsLoopBackDependences(t *testing.T) {
	ext := buildExt(t, paperex.CFG())
	c, err := oracleBuild(ext)
	if err != nil {
		t.Fatal(err)
	}
	// In the full CDG the header IS control dependent on the continuing IF
	// arms (the cycle the FCDG breaks).
	if !c.hasEdge(paperex.IfNLt, paperex.IfM, cfg.False) {
		t.Errorf("CDG missing loop-back dependence (IF N.LT.0, F) -> header\n%v", c.succ)
	}
}
