// Package cdg builds the control dependence graph (CDG) and the forward
// control dependence graph (FCDG) of an extended control flow graph.
//
// Control dependence follows Definition 2 of the paper (after
// Ferrante–Ottenstein–Warren): y is control dependent on x with label l iff
// y does not postdominate x, there is a path from x to y whose intermediate
// nodes are all postdominated by y, and x's edge labelled l starts that
// path. The standard construction walks, for every control flow edge
// (x, s, l), the postdominator tree from s up to (but excluding) ipdom(x),
// marking every visited node as control dependent on (x, l).
//
// The FCDG is the CDG with its back edges removed. Two kinds of control
// dependence edges are loop-carried and must go: (a) edges generated by
// walking a control flow BACK edge (they say "taking the loop's back branch
// re-executes the body" — the preheader's loop condition accounts for those
// re-executions, so keeping them would double-count NODE_FREQ), and
// (b) edges that close a cycle in a depth-first traversal of the CDG from
// START (the mutual header/branch dependences of a loop). Thanks to the
// pseudo edges added by the ECFG transformation the result is rooted at
// START, connected, and acyclic, and its (node, label) pairs — the "control
// conditions" — are the units the optimized profiler counts.
package cdg

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/ecfg"
)

// Condition is a control condition: a source node together with one of its
// branch labels. FREQ and TOTAL_FREQ values attach to conditions.
type Condition struct {
	Node  cfg.NodeID
	Label cfg.Label
}

// String renders the condition as "(node,label)". The service keys its
// counter and totals tables by it, so it is built without fmt.
func (c Condition) String() string {
	var buf [32]byte
	b := append(buf[:0], '(')
	b = strconv.AppendInt(b, int64(c.Node), 10)
	b = append(b, ',')
	b = append(b, c.Label...)
	return string(append(b, ')'))
}

// Graph is a labelled control dependence multigraph over the nodes of an
// ECFG. It serves as both the full CDG and (after Forward) the FCDG. Every
// table is a slice indexed by the ECFG's NodeIDs.
type Graph struct {
	// Ext is the extended CFG this graph was derived from.
	Ext *ecfg.Ext

	// Root is the START node.
	Root cfg.NodeID

	// succ[n] and pred[n] are n's out- and in-edges in insertion order.
	succ, pred [][]cfg.Edge

	// back[n] lists, sorted by (target, label), n's out-edges generated
	// by walking a CFG back edge; Forward drops them.
	back [][]cfg.Edge

	// topo caches a topological order (parents before children) for acyclic
	// graphs; nil for the cyclic CDG.
	topo []cfg.NodeID

	// Dense caches, built once by Forward so the per-profile and
	// per-estimate hot loops index slices instead of sorting edge lists.
	// They are nil on the full (cyclic) CDG.
	conds     []Condition  // all conditions, sorted by (node, label)
	nodeConds [][]CondInfo // per NodeID: that node's conditions, label-sorted
}

// CondInfo is one node's control condition together with its dense index
// and the child set C(u,l), precomputed at FCDG construction time.
type CondInfo struct {
	Cond Condition
	// Index is the condition's position in Conditions(); dense tables
	// (freq.CondVec) are indexed by it.
	Index int
	// Children is C(u,l) in ascending ID order.
	Children []cfg.NodeID
}

// newGraph returns an empty graph over ext's nodes.
func newGraph(ext *ecfg.Ext, root cfg.NodeID) *Graph {
	n := int(ext.G.MaxID()) + 1
	return &Graph{
		Ext:  ext,
		Root: root,
		succ: make([][]cfg.Edge, n),
		pred: make([][]cfg.Edge, n),
		back: make([][]cfg.Edge, n),
	}
}

// Build constructs the full control dependence graph of ext. It costs
// one postdominator tree plus O(E + |CDG|): each CFG edge walks the
// postdominator tree once, emitting one dependence per step. Whether a
// CFG edge is a back edge comes from ext.Intervals (its target is a
// header whose interval contains its source), so no dominator tree is
// built here.
func Build(ext *ecfg.Ext) (*Graph, error) {
	g := ext.G
	pdom := dom.PostDominators(g)
	if !pdom.InTree(ext.Start) {
		return nil, fmt.Errorf("cdg: START cannot reach STOP in %q", g.Name)
	}
	c := newGraph(ext, ext.Start)
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

// byTargetLabel orders edges of one source by (target, label).
func byTargetLabel(a, b cfg.Edge) int {
	if a.To != b.To {
		return cmp.Compare(a.To, b.To)
	}
	return strings.Compare(string(a.Label), string(b.Label))
}

// Forward returns the forward control dependence graph: a copy of c with
// all back edges removed. It fails if the result is not a rooted DAG (which
// would indicate a bug in the ECFG construction, not bad input). It is
// O(|CDG| log d) for out-degree d: one depth-first traversal over
// (target, label)-sorted out-edges, then the topological order.
func (c *Graph) Forward() (*Graph, error) {
	f := newGraph(c.Ext, c.Root)
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
	f.buildDense()
	return f, nil
}

// buildDense precomputes the condition list and per-node condition/child
// tables that back the dense frequency and estimate tables. It runs once,
// at FCDG construction, so later concurrent readers (parallel profiling
// workers) see immutable data.
func (g *Graph) buildDense() {
	g.conds = g.collectConditions()
	g.nodeConds = make([][]CondInfo, len(g.succ))
	for i, c := range g.conds {
		info := CondInfo{Cond: c, Index: i, Children: g.Children(c.Node, c.Label)}
		g.nodeConds[c.Node] = append(g.nodeConds[c.Node], info)
	}
	// Conditions are already (node, label)-sorted, so each node's slice is
	// label-sorted — the same order Labels(u) yields.
}

// NumConditions returns the number of control conditions. Only available
// on graphs returned by Forward.
func (g *Graph) NumConditions() int { return len(g.conds) }

// CondIndex returns the dense index of condition c in Conditions(), or
// (-1, false) if the condition does not exist. Only available on graphs
// returned by Forward.
func (g *Graph) CondIndex(c Condition) (int, bool) {
	for _, info := range g.NodeConds(c.Node) {
		if info.Cond.Label == c.Label {
			return info.Index, true
		}
	}
	return -1, false
}

// CondAt returns the i-th condition of Conditions(). Only available on
// graphs returned by Forward.
func (g *Graph) CondAt(i int) Condition { return g.conds[i] }

// NodeConds returns u's conditions in label order, each with its dense
// index and precomputed child set — the allocation-free form of iterating
// Labels(u) × Children(u, l). Only available on graphs returned by
// Forward; the slice is shared and must not be mutated.
func (g *Graph) NodeConds(u cfg.NodeID) []CondInfo {
	if u <= cfg.None || int(u) >= len(g.nodeConds) {
		return nil
	}
	return g.nodeConds[u]
}

// edges returns n's out-edges in insertion order (nil out of range).
func (g *Graph) edges(n cfg.NodeID) []cfg.Edge {
	if n <= cfg.None || int(n) >= len(g.succ) {
		return nil
	}
	return g.succ[n]
}

// sortedOut returns n's out-edges ordered by (target, label) for
// deterministic traversal.
func (c *Graph) sortedOut(n cfg.NodeID) []cfg.Edge {
	out := slices.Clone(c.edges(n))
	slices.SortFunc(out, byTargetLabel)
	return out
}

// computeTopo fills in a parents-before-children order via Kahn's
// algorithm, always taking the smallest ready node ID from a min-heap
// (O(|FCDG| log N)), and fails if the graph is cyclic.
func (g *Graph) computeTopo() error {
	present := make([]bool, len(g.succ))
	indeg := make([]int32, len(g.succ))
	present[g.Root] = true
	for n, es := range g.succ {
		if len(es) > 0 {
			present[n] = true
		}
		for _, e := range es {
			present[e.To] = true
			indeg[e.To]++
		}
	}
	var ready nodeHeap
	total := 0
	for n, ok := range present {
		if !ok {
			continue
		}
		total++
		if indeg[n] == 0 {
			ready = append(ready, cfg.NodeID(n)) // ascending: already a heap
		}
	}
	order := make([]cfg.NodeID, 0, total)
	for len(ready) > 0 {
		n := heap.Pop(&ready).(cfg.NodeID)
		order = append(order, n)
		for _, e := range g.succ[n] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				heap.Push(&ready, e.To)
			}
		}
	}
	if len(order) != total {
		return fmt.Errorf("cdg: forward CDG is not acyclic (%d of %d nodes ordered)", len(order), total)
	}
	g.topo = order
	return nil
}

// nodeHeap is a min-heap of node IDs for container/heap.
type nodeHeap []cfg.NodeID

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(cfg.NodeID)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// Topo returns a topological order of the FCDG (parents before children).
// It is only available on graphs returned by Forward.
func (g *Graph) Topo() []cfg.NodeID { return g.topo }

// Nodes returns every node that appears in the graph (as source or target),
// in ascending ID order.
func (g *Graph) Nodes() []cfg.NodeID {
	seen := make([]bool, len(g.succ))
	seen[g.Root] = true
	for n, es := range g.succ {
		if len(es) > 0 {
			seen[n] = true
		}
		for _, e := range es {
			seen[e.To] = true
		}
	}
	var out []cfg.NodeID
	for n, ok := range seen {
		if ok {
			out = append(out, cfg.NodeID(n))
		}
	}
	return out
}

// OutEdges returns n's control dependence out-edges sorted by (target,
// label).
func (g *Graph) OutEdges(n cfg.NodeID) []cfg.Edge { return g.sortedOut(n) }

// InEdges returns n's control dependence in-edges in insertion order. The
// slice is shared; callers must not mutate it.
func (g *Graph) InEdges(n cfg.NodeID) []cfg.Edge {
	if n <= cfg.None || int(n) >= len(g.pred) {
		return nil
	}
	return g.pred[n]
}

// HasEdge reports whether the exact (x, y, l) control dependence exists.
func (g *Graph) HasEdge(x, y cfg.NodeID, l cfg.Label) bool {
	for _, e := range g.edges(x) {
		if e.To == y && e.Label == l {
			return true
		}
	}
	return false
}

// Labels returns the distinct labels on n's out-edges, sorted.
func (g *Graph) Labels(n cfg.NodeID) []cfg.Label {
	var out []cfg.Label
	for _, e := range g.edges(n) {
		if !slices.Contains(out, e.Label) {
			out = append(out, e.Label)
		}
	}
	slices.Sort(out)
	return out
}

// Children returns C(n, l): the targets of n's edges labelled l, in
// ascending ID order.
func (g *Graph) Children(n cfg.NodeID, l cfg.Label) []cfg.NodeID {
	var out []cfg.NodeID
	for _, e := range g.edges(n) {
		if e.Label == l {
			out = append(out, e.To)
		}
	}
	slices.Sort(out)
	return out
}

// Conditions returns every control condition (u, l) present in the graph,
// sorted by node then label. These are the counters of the first profiling
// optimization: identically control dependent nodes share one condition.
// On graphs returned by Forward the result is cached at construction and
// shared; callers must not mutate it.
func (g *Graph) Conditions() []Condition {
	if g.conds != nil {
		return g.conds
	}
	return g.collectConditions()
}

func (g *Graph) collectConditions() []Condition {
	var out []Condition
	for n := range g.succ {
		for _, l := range g.Labels(cfg.NodeID(n)) {
			out = append(out, Condition{Node: cfg.NodeID(n), Label: l})
		}
	}
	return out
}

// NumEdges returns the number of control dependence edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.succ {
		n += len(es)
	}
	return n
}

// String renders the graph one source node per line, for golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fcdg root=%d\n", g.Root)
	for _, n := range g.Nodes() {
		es := g.sortedOut(n)
		if len(es) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %3d ->", n)
		for _, e := range es {
			fmt.Fprintf(&b, " %d:%s", e.To, e.Label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the graph in Graphviz dot syntax, using the ECFG node names.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Ext.G.Name+"_fcdg")
	for _, n := range g.Nodes() {
		name := fmt.Sprintf("%d", n)
		if node := g.Ext.G.Node(n); node != nil {
			name = fmt.Sprintf("%d: %s", n, node.Name())
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=box];\n", n, name)
	}
	for _, n := range g.Nodes() {
		for _, e := range g.sortedOut(n) {
			style := ""
			if e.Pseudo() {
				style = " style=dashed"
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q%s];\n", e.From, e.To, string(e.Label), style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
