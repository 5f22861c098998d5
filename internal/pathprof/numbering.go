// Package pathprof implements Ball–Larus path profiling as a second
// counter-placement strategy next to the paper's per-condition scheme
// (internal/profiler): instead of one counter per control condition, it
// numbers the acyclic paths of each procedure's CFG skeleton so an
// instrumented run pays one register add per taken edge and a single
// counter bump per completed path, then recovers exact edge, node and
// condition frequencies from the path counts alone.
//
// The numbering follows Ball & Larus (MICRO 1996) on the acyclic skeleton
// the interval analysis already certifies: a reducible CFG minus all its
// back edges is a DAG. Each back edge t→h is split into two dummy edges —
// t→EXIT ending the current path and ENTRY→h starting the next one — so
// every dynamic trace decomposes into acyclic paths with ids in
// [0, NumPaths).
//
// Path counts add across runs like the paper's TOTAL_FREQ values, so a
// batch of runs is profiled by summing its counts and decoding the sum
// once (SeedSum); Plans.Profile is the one-run case.
package pathprof

import (
	"errors"
	"fmt"

	"repro/internal/cfg"
)

// ErrTooManyPaths reports a procedure whose acyclic path count exceeds the
// configured cap; the planner falls back to the Sarkar plan for it.
var ErrTooManyPaths = errors.New("pathprof: too many acyclic paths")

// edgeKind classifies one ordered out-edge of the numbering DAG.
type edgeKind uint8

const (
	// edgeReal is an original CFG edge that is not a back edge.
	edgeReal edgeKind = iota
	// edgeEntryReal is the virtual edge ENTRY→G.Entry (value 0 by
	// construction, so a fresh activation starts with register 0).
	edgeEntryReal
	// edgeEntryDummy is ENTRY→h for a loop header h: the restart edge
	// after its back edges.
	edgeEntryDummy
	// edgeExitDummy is t→EXIT for one back edge t→h: taking the back edge
	// completes the current path here.
	edgeExitDummy
)

// dagEdge is one out-edge in the numbering DAG, ordered by ascending value.
type dagEdge struct {
	val  int64
	to   cfg.NodeID // cfg.None for exit dummies
	k    int        // OutEdges index for edgeReal, -1 otherwise
	kind edgeKind
	back cfg.Edge // the replaced back edge (edgeExitDummy only)
}

// EdgeRef names one real CFG edge by position: the K-th out-edge of From.
type EdgeRef struct {
	From cfg.NodeID
	K    int
}

// Numbering is the Ball–Larus path numbering of one procedure's CFG
// skeleton. Inc/Bump/Reset are the engine-facing tables, indexed [node][k]
// parallel to the graph's OutEdges (and interp.Counts.Edge).
type Numbering struct {
	G *cfg.Graph
	// NumPaths is the number of acyclic paths; ids are 0..NumPaths-1.
	NumPaths int64
	// Inc[n][k] is the register increment of edge (n,k): the edge's DAG
	// value for forward edges, the exit-dummy value for back edges.
	Inc [][]int64
	// Bump[n][k] marks back edges: the register (plus Inc) is a complete
	// path id there, and the register restarts at Reset[n][k].
	Bump [][]bool
	// Reset[n][k] is the entry-dummy value of the back edge's header.
	Reset [][]int64

	np    []int64     // paths from each node to any skeleton sink
	out   [][]dagEdge // per-node DAG out-edges, ascending val
	entry []dagEdge   // virtual-entry out-edges, ascending val

	entryVal map[cfg.NodeID]int64 // header -> entry-dummy value
	backRef  map[cfg.Edge]EdgeRef // back edge -> its (From, K) position
}

// New numbers the acyclic skeleton of g obtained by removing the given back
// edges. Every back edge must exist in g, and removing them must leave a
// DAG (guaranteed for a reducible CFG with its interval back edges; checked
// regardless). maxPaths caps NumPaths; exceeding it returns
// ErrTooManyPaths so callers can fall back per procedure.
func New(g *cfg.Graph, back []cfg.Edge, maxPaths int64) (*Numbering, error) {
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	maxID := g.MaxID()
	n := &Numbering{
		G:        g,
		Inc:      make([][]int64, maxID+1),
		Bump:     make([][]bool, maxID+1),
		Reset:    make([][]int64, maxID+1),
		np:       make([]int64, maxID+1),
		out:      make([][]dagEdge, maxID+1),
		entryVal: make(map[cfg.NodeID]int64),
		backRef:  make(map[cfg.Edge]EdgeRef, len(back)),
	}
	isBack := make([][]bool, maxID+1)
	for id := cfg.NodeID(1); id <= maxID; id++ {
		outs := g.OutEdges(id)
		n.Inc[id] = make([]int64, len(outs))
		n.Bump[id] = make([]bool, len(outs))
		n.Reset[id] = make([]int64, len(outs))
		isBack[id] = make([]bool, len(outs))
	}
	// Locate every back edge's position; exitDummies groups them by source
	// in input order, headerSeen dedups entry dummies in input order.
	exitDummies := make([][]cfg.Edge, maxID+1)
	var headers []cfg.NodeID
	headerSeen := make(map[cfg.NodeID]bool)
	for _, be := range back {
		found := false
		for k, oe := range g.OutEdges(be.From) {
			if oe == be {
				if isBack[be.From][k] {
					return nil, fmt.Errorf("pathprof: duplicate back edge %v", be)
				}
				isBack[be.From][k] = true
				n.backRef[be] = EdgeRef{From: be.From, K: k}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("pathprof: back edge %v not in graph", be)
		}
		exitDummies[be.From] = append(exitDummies[be.From], be)
		if !headerSeen[be.To] {
			headerSeen[be.To] = true
			headers = append(headers, be.To)
		}
	}

	order, err := topoOrder(g, isBack)
	if err != nil {
		return nil, err
	}

	// NumPaths per node, in reverse topological order: sinks contribute one
	// path, forward edges their target's count, exit dummies one each.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var total int64
		degree := 0
		for k, oe := range g.OutEdges(v) {
			if isBack[v][k] {
				continue
			}
			degree++
			total = satAdd(total, n.np[oe.To])
		}
		for range exitDummies[v] {
			degree++
			total = satAdd(total, 1)
		}
		if degree == 0 {
			total = 1
		}
		if total > maxPaths {
			return nil, fmt.Errorf("%w: %s node %d has %d", ErrTooManyPaths, g.Name, v, total)
		}
		n.np[v] = total
	}

	// Edge values: within each node, forward out-edges in OutEdges order
	// first, then this node's exit dummies in back-edge order; values are
	// the running prefix sums of the successors' path counts.
	for _, v := range order {
		var run int64
		for k, oe := range g.OutEdges(v) {
			if isBack[v][k] {
				continue
			}
			n.out[v] = append(n.out[v], dagEdge{val: run, to: oe.To, k: k, kind: edgeReal})
			n.Inc[v][k] = run
			run += n.np[oe.To]
		}
		for _, be := range exitDummies[v] {
			n.out[v] = append(n.out[v], dagEdge{val: run, to: cfg.None, k: -1, kind: edgeExitDummy, back: be})
			ref := n.backRef[be]
			n.Inc[ref.From][ref.K] = run
			n.Bump[ref.From][ref.K] = true
			run++
		}
	}

	// Virtual entry: the real entry edge first (value 0, so activations
	// start at register 0), then one entry dummy per distinct header.
	n.entry = append(n.entry, dagEdge{val: 0, to: g.Entry, k: -1, kind: edgeEntryReal})
	total := n.np[g.Entry]
	if total > maxPaths {
		return nil, fmt.Errorf("%w: %s has %d from entry", ErrTooManyPaths, g.Name, total)
	}
	for _, h := range headers {
		n.entry = append(n.entry, dagEdge{val: total, to: h, k: -1, kind: edgeEntryDummy})
		n.entryVal[h] = total
		total = satAdd(total, n.np[h])
		if total > maxPaths {
			return nil, fmt.Errorf("%w: %s has %d", ErrTooManyPaths, g.Name, total)
		}
	}
	n.NumPaths = total

	// Back-edge resets point at their header's entry dummy.
	for be, ref := range n.backRef {
		n.Reset[ref.From][ref.K] = n.entryVal[be.To]
	}
	return n, nil
}

// satAdd adds non-negative int64s, saturating instead of overflowing.
func satAdd(a, b int64) int64 {
	s := a + b
	if s < a {
		return 1<<63 - 1
	}
	return s
}

// topoOrder returns every node in a topological order of the skeleton
// (back edges excluded), or an error when a cycle remains.
func topoOrder(g *cfg.Graph, isBack [][]bool) ([]cfg.NodeID, error) {
	maxID := g.MaxID()
	indeg := make([]int, maxID+1)
	for id := cfg.NodeID(1); id <= maxID; id++ {
		for k, oe := range g.OutEdges(id) {
			if !isBack[id][k] {
				indeg[oe.To]++
			}
		}
	}
	var queue, order []cfg.NodeID
	for id := cfg.NodeID(1); id <= maxID; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for k, oe := range g.OutEdges(v) {
			if isBack[v][k] {
				continue
			}
			indeg[oe.To]--
			if indeg[oe.To] == 0 {
				queue = append(queue, oe.To)
			}
		}
	}
	if len(order) != g.NumNodes() {
		return nil, fmt.Errorf("pathprof: %s skeleton is not acyclic (%d of %d nodes ordered)",
			g.Name, len(order), g.NumNodes())
	}
	return order, nil
}

// Path is one decoded acyclic path (or prefix).
type Path struct {
	// FromEntry marks paths starting at the procedure entry; otherwise the
	// path resumed at Header after a back edge.
	FromEntry bool
	Header    cfg.NodeID
	// Nodes are the real nodes visited, in order.
	Nodes []cfg.NodeID
	// Edges are the real CFG edges taken, in order.
	Edges []EdgeRef
	// ToExit marks paths ending at a skeleton sink (the procedure's END or
	// a STOP-like sink); otherwise Back is the back edge that ended it.
	ToExit bool
	Back   cfg.Edge
}

// pick returns the unique ordered edge whose value interval contains rem.
// Values ascend, so the match is the last edge with val ≤ rem.
func pick(edges []dagEdge, rem int64) (dagEdge, bool) {
	for i := len(edges) - 1; i >= 0; i-- {
		if edges[i].val <= rem {
			return edges[i], true
		}
	}
	return dagEdge{}, false
}

// DecodePath maps a complete path id back to the unique path it numbers.
func (n *Numbering) DecodePath(id int64) (Path, error) {
	if id < 0 || id >= n.NumPaths {
		return Path{}, fmt.Errorf("pathprof: %s path id %d out of range [0,%d)", n.G.Name, id, n.NumPaths)
	}
	first, ok := pick(n.entry, id)
	if !ok {
		return Path{}, fmt.Errorf("pathprof: %s id %d matches no entry edge", n.G.Name, id)
	}
	p := Path{FromEntry: first.kind == edgeEntryReal}
	if !p.FromEntry {
		p.Header = first.to
	}
	rem := id - first.val
	cur := first.to
	for range n.np { // bounded: a DAG path visits each node at most once
		p.Nodes = append(p.Nodes, cur)
		outs := n.out[cur]
		if len(outs) == 0 {
			if rem != 0 {
				return Path{}, fmt.Errorf("pathprof: %s id %d leaves residue %d at sink %d", n.G.Name, id, rem, cur)
			}
			p.ToExit = true
			return p, nil
		}
		e, ok := pick(outs, rem)
		if !ok {
			return Path{}, fmt.Errorf("pathprof: %s id %d matches no edge at node %d", n.G.Name, id, cur)
		}
		rem -= e.val
		if e.kind == edgeExitDummy {
			if rem != 0 {
				return Path{}, fmt.Errorf("pathprof: %s id %d leaves residue %d at exit dummy", n.G.Name, id, rem)
			}
			p.Back = e.back
			return p, nil
		}
		p.Edges = append(p.Edges, EdgeRef{From: cur, K: e.k})
		cur = e.to
	}
	return Path{}, fmt.Errorf("pathprof: %s id %d decode did not terminate", n.G.Name, id)
}

// DecodePartial maps a (node, register) pair recorded at a STOP unwind back
// to the unique path prefix ending at node. Prefix register values are
// always strictly below the path count of the node they sit at, so the same
// interval rule that decodes complete ids reconstructs the prefix.
func (n *Numbering) DecodePartial(node cfg.NodeID, reg int64) (Path, error) {
	if node <= 0 || int(node) >= len(n.out) {
		return Path{}, fmt.Errorf("pathprof: %s partial at unknown node %d", n.G.Name, node)
	}
	first, ok := pick(n.entry, reg)
	if !ok {
		return Path{}, fmt.Errorf("pathprof: %s partial register %d matches no entry edge", n.G.Name, reg)
	}
	p := Path{FromEntry: first.kind == edgeEntryReal}
	if !p.FromEntry {
		p.Header = first.to
	}
	rem := reg - first.val
	cur := first.to
	for range n.np {
		p.Nodes = append(p.Nodes, cur)
		if cur == node {
			if rem != 0 {
				return Path{}, fmt.Errorf("pathprof: %s partial (%d,%d) leaves residue %d", n.G.Name, node, reg, rem)
			}
			return p, nil
		}
		e, ok := pick(n.out[cur], rem)
		if !ok || e.kind == edgeExitDummy {
			return Path{}, fmt.Errorf("pathprof: %s partial (%d,%d) stuck at node %d", n.G.Name, node, reg, cur)
		}
		rem -= e.val
		p.Edges = append(p.Edges, EdgeRef{From: cur, K: e.k})
		cur = e.to
	}
	return Path{}, fmt.Errorf("pathprof: %s partial (%d,%d) decode did not terminate", n.G.Name, node, reg)
}

// EncodePath is DecodePath's inverse: it sums the values along a decoded
// path back into its id. Prefix paths (from DecodePartial) re-encode to
// their register value.
func (n *Numbering) EncodePath(p Path) int64 {
	var id int64
	if !p.FromEntry {
		id = n.entryVal[p.Header]
	}
	for _, e := range p.Edges {
		id += n.Inc[e.From][e.K]
	}
	if !p.ToExit {
		if ref, ok := n.backRef[p.Back]; ok {
			id += n.Inc[ref.From][ref.K]
		}
	}
	return id
}
