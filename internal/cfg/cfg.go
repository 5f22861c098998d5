// Package cfg defines the labelled control flow multigraph that every
// analysis in this repository operates on.
//
// The representation follows Definition 1 of Sarkar (PLDI 1989): a control
// flow graph CFG = (Nc, Ec, Tc) where Ec is a set of labelled edges (so two
// nodes may be connected by several edges with distinct labels) and Tc maps
// each node to one of the types START, STOP, HEADER, PREHEADER, POSTEXIT or
// OTHER. The type mapping carries no semantics of its own; it only marks the
// interval structure for later phases (ECFG and FCDG construction).
//
// Nodes are numbered from 1 upwards, matching the paper's convention that 0
// is reserved as the "no node" sentinel (e.g. HDR_PARENT(h) = 0 for the
// outermost interval).
package cfg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within one Graph. IDs are dense, start at 1, and
// are never reused. The zero value None means "no node".
type NodeID int

// None is the null node ID. The paper numbers nodes from 1 so that 0 can act
// as the sentinel parent of the outermost interval.
const None NodeID = 0

// Label identifies which branch an edge represents.
type Label string

// Standard edge labels. True and False are the two arms of a conditional
// branch, Uncond is an unconditional transfer. PseudoStartStop and
// PseudoLoop label the pseudo edges inserted during ECFG construction
// (Z1 and Z2 in Figure 2 of the paper); they can never be taken at run time.
const (
	True            Label = "T"
	False           Label = "F"
	Uncond          Label = "U"
	PseudoStartStop Label = "Z1"
	PseudoLoop      Label = "Z2"
)

// IsPseudo reports whether l labels a pseudo control flow edge, i.e. an edge
// inserted by the ECFG transformation that is never taken by any execution.
func (l Label) IsPseudo() bool { return l == PseudoStartStop || l == PseudoLoop }

// NodeType classifies nodes per the paper's Tc mapping.
type NodeType int

// Node types from Definition 1. Other is the type of every node in an
// original (pre-ECFG) control flow graph.
const (
	Other NodeType = iota
	Start
	Stop
	Header
	Preheader
	Postexit
)

var nodeTypeNames = [...]string{"OTHER", "START", "STOP", "HEADER", "PREHEADER", "POSTEXIT"}

func (t NodeType) String() string {
	if t < 0 || int(t) >= len(nodeTypeNames) {
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
	return nodeTypeNames[t]
}

// Node is a unit of computation in the graph: a statement, basic block,
// operation or instruction. The graph itself does not interpret Payload;
// the frontend stores the lowered statement there and the interpreter reads
// it back.
type Node struct {
	ID   NodeID
	Type NodeType
	// name is the label given to AddNode; see Name.
	name string
	// Payload carries the frontend statement executed at this node, if any.
	Payload any
}

// A Namer is a node payload that renders its node's name.
type Namer interface{ NodeName() string }

// Name returns the node's short human-readable description, as dumps, DOT
// output, diagnostics and the graph codec print it, e.g. "IF (M.GE.0)" or
// "PREHEADER(4)". A node added without a name is named by its Payload, if
// that is a Namer: lowered statement nodes render theirs only when asked.
func (n *Node) Name() string {
	if n.name == "" {
		if p, ok := n.Payload.(Namer); ok {
			return p.NodeName()
		}
	}
	return n.name
}

// Edge is a labelled control flow edge. A Pseudo edge is one inserted by the
// ECFG transformation that can never be taken at run time.
type Edge struct {
	From, To NodeID
	Label    Label
}

// Pseudo reports whether the edge is a pseudo control flow edge.
func (e Edge) Pseudo() bool { return e.Label.IsPseudo() }

func (e Edge) String() string {
	return fmt.Sprintf("%d -%s-> %d", e.From, e.Label, e.To)
}

// Graph is a labelled control flow multigraph. The zero value is not usable;
// call New.
type Graph struct {
	// Name identifies the procedure this graph belongs to.
	Name string

	nodes []*Node // index 0 unused so that nodes[id] works directly
	succ  [][]Edge
	pred  [][]Edge
	// spare is room for nodes reserved by Grow, which AddNode takes
	// before it allocates; spareEdges is room for edges, which AddEdge
	// hands out in two-edge chunks to adjacency lists that have none.
	spare      []Node
	spareEdges []Edge

	// Entry and Exit are the designated first and last nodes. They are
	// optional until Validate is called; lowering sets them and the ECFG
	// transformation replaces them with START/STOP.
	Entry, Exit NodeID
}

// New returns an empty graph for the named procedure.
func New(name string) *Graph {
	return &Graph{
		Name:  name,
		nodes: []*Node{nil}, // reserve index 0 = None
		succ:  [][]Edge{nil},
		pred:  [][]Edge{nil},
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) - 1 }

// MaxID returns the largest node ID in use. IDs are dense so MaxID equals
// NumNodes, but callers that size auxiliary arrays should use MaxID for
// clarity.
func (g *Graph) MaxID() NodeID { return NodeID(len(g.nodes) - 1) }

// AddNode creates a node of the given type and returns it. An empty name
// leaves the node to be named by its Payload (see Node.Name).
func (g *Graph) AddNode(t NodeType, name string) *Node {
	var n *Node
	if len(g.spare) < cap(g.spare) {
		g.spare = g.spare[:len(g.spare)+1]
		n = &g.spare[len(g.spare)-1]
	} else {
		n = new(Node)
	}
	*n = Node{ID: NodeID(len(g.nodes)), Type: t, name: name}
	g.nodes = append(g.nodes, n)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return n
}

// Grow reserves room for n more nodes and their edges, so that adding up
// to n nodes allocates no node and grows no per-node slice, and their
// first two successor and predecessor edges allocate nothing either.
func (g *Graph) Grow(n int) {
	g.nodes = slices.Grow(g.nodes, n)
	g.succ = slices.Grow(g.succ, n)
	g.pred = slices.Grow(g.pred, n)
	g.spare = make([]Node, 0, n)
	g.spareEdges = make([]Edge, 0, 4*n)
}

// AddCopy creates a node with the type, name and payload of node id and
// returns it; it has no edges.
func (g *Graph) AddCopy(id NodeID) *Node {
	orig := g.nodes[id]
	n := g.AddNode(orig.Type, orig.name)
	n.Payload = orig.Payload
	return n
}

// Node returns the node with the given ID, or nil if id is None or out of
// range.
func (g *Graph) Node(id NodeID) *Node {
	if id <= None || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Nodes returns all nodes in ID order. The returned slice is freshly
// allocated; mutating it does not affect the graph (the *Node values are
// shared).
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, g.NumNodes())
	for _, n := range g.nodes[1:] {
		out = append(out, n)
	}
	return out
}

// AddEdge inserts the labelled edge from -> to. Duplicate (from, to, label)
// triples are rejected because Ec is a set; distinct labels between the same
// node pair are allowed (multigraph).
func (g *Graph) AddEdge(from, to NodeID, label Label) error {
	if g.Node(from) == nil {
		return fmt.Errorf("cfg: AddEdge: no node %d", from)
	}
	if g.Node(to) == nil {
		return fmt.Errorf("cfg: AddEdge: no node %d", to)
	}
	for _, e := range g.succ[from] {
		if e.To == to && e.Label == label {
			return fmt.Errorf("cfg: AddEdge: duplicate edge %v", e)
		}
	}
	e := Edge{From: from, To: to, Label: label}
	g.succ[from] = append(g.chunk(g.succ[from]), e)
	g.pred[to] = append(g.chunk(g.pred[to]), e)
	return nil
}

// chunk returns adj, or, if adj has no room at all, an empty two-edge list
// carved from the room Grow reserved (while it lasts). The list is capped,
// so a third edge moves it out of the slab rather than into its neighbor.
func (g *Graph) chunk(adj []Edge) []Edge {
	if cap(adj) > 0 || cap(g.spareEdges)-len(g.spareEdges) < 2 {
		return adj
	}
	k := len(g.spareEdges)
	g.spareEdges = g.spareEdges[:k+2]
	return g.spareEdges[k : k : k+2]
}

// MustAddEdge is AddEdge that panics on error; it is intended for
// programmatically constructed graphs where a duplicate edge is a bug.
func (g *Graph) MustAddEdge(from, to NodeID, label Label) {
	if err := g.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the exact (from, to, label) edge. It reports whether an
// edge was removed.
func (g *Graph) RemoveEdge(from, to NodeID, label Label) bool {
	removed := false
	g.succ[from] = filterEdges(g.succ[from], func(e Edge) bool {
		if e.To == to && e.Label == label && !removed {
			removed = true
			return false
		}
		return true
	})
	if removed {
		g.pred[to] = filterEdges(g.pred[to], func(e Edge) bool {
			return !(e.From == from && e.Label == label)
		})
	}
	return removed
}

func filterEdges(edges []Edge, keep func(Edge) bool) []Edge {
	out := edges[:0]
	for _, e := range edges {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// OutEdges returns the edges leaving n in insertion order. The returned
// slice is shared with the graph; callers must not mutate it.
func (g *Graph) OutEdges(n NodeID) []Edge { return g.succ[n] }

// InEdges returns the edges entering n in insertion order. The returned
// slice is shared with the graph; callers must not mutate it.
func (g *Graph) InEdges(n NodeID) []Edge { return g.pred[n] }

// Succs returns the distinct successor node IDs of n in first-seen order.
func (g *Graph) Succs(n NodeID) []NodeID {
	return distinctTargets(g.succ[n], func(e Edge) NodeID { return e.To })
}

// Preds returns the distinct predecessor node IDs of n in first-seen order.
func (g *Graph) Preds(n NodeID) []NodeID {
	return distinctTargets(g.pred[n], func(e Edge) NodeID { return e.From })
}

func distinctTargets(edges []Edge, pick func(Edge) NodeID) []NodeID {
	var out []NodeID
	for _, e := range edges {
		id := pick(e)
		dup := false
		for _, seen := range out {
			if seen == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// Edges returns every edge in the graph, ordered by source node ID and then
// insertion order.
func (g *Graph) Edges() []Edge {
	n := 0
	for id := NodeID(1); id <= g.MaxID(); id++ {
		n += len(g.succ[id])
	}
	out := make([]Edge, 0, n)
	for id := NodeID(1); id <= g.MaxID(); id++ {
		out = append(out, g.succ[id]...)
	}
	return out
}

// Labels returns the distinct edge labels leaving n, in first-seen order.
func (g *Graph) Labels(n NodeID) []Label {
	var out []Label
	for _, e := range g.succ[n] {
		dup := false
		for _, l := range out {
			if l == e.Label {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e.Label)
		}
	}
	return out
}

// Validate checks the structural invariants that later phases rely on:
// Entry and Exit are set and exist, every node is reachable from Entry, and
// no edge dangles. It returns a descriptive error for the first violation.
func (g *Graph) Validate() error {
	if g.Node(g.Entry) == nil {
		return fmt.Errorf("cfg %q: entry node %d does not exist", g.Name, g.Entry)
	}
	if g.Node(g.Exit) == nil {
		return fmt.Errorf("cfg %q: exit node %d does not exist", g.Name, g.Exit)
	}
	reach := g.ReachableFrom(g.Entry)
	for id := NodeID(1); id <= g.MaxID(); id++ {
		if !reach[id] {
			return fmt.Errorf("cfg %q: node %d (%s) unreachable from entry", g.Name, id, g.nodes[id].Name())
		}
	}
	return nil
}

// ReachableFrom returns the set of nodes reachable from start by following
// edges forward (including start itself). The result is indexed by NodeID.
func (g *Graph) ReachableFrom(start NodeID) []bool {
	reach := make([]bool, g.MaxID()+1)
	if g.Node(start) == nil {
		return reach
	}
	stack := []NodeID{start}
	reach[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[n] {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return reach
}

// Clone returns a deep copy of the graph structure. Node Payload pointers
// are shared (payloads are immutable statements). The copy carves its
// nodes from one slab and its edge lists from two more (successors and
// predecessors), each list capped at its length so a later AddEdge
// reallocates that list instead of overwriting its neighbor's.
func (g *Graph) Clone() *Graph {
	n := len(g.nodes)
	out := &Graph{
		Name:  g.Name,
		nodes: make([]*Node, n),
		succ:  make([][]Edge, n),
		pred:  make([][]Edge, n),
		Entry: g.Entry,
		Exit:  g.Exit,
	}
	edges := 0
	for id := 1; id < n; id++ {
		edges += len(g.succ[id])
	}
	nodes := make([]Node, n)
	succ := make([]Edge, 0, edges)
	pred := make([]Edge, 0, edges)
	for id := 1; id < n; id++ {
		nodes[id] = *g.nodes[id]
		out.nodes[id] = &nodes[id]
		k := len(succ)
		succ = append(succ, g.succ[id]...)
		out.succ[id] = succ[k:len(succ):len(succ)]
		k = len(pred)
		pred = append(pred, g.pred[id]...)
		out.pred[id] = pred[k:len(pred):len(pred)]
	}
	return out
}

// String renders a compact textual dump, one node per line with its
// out-edges, suitable for golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cfg %q entry=%d exit=%d\n", g.Name, g.Entry, g.Exit)
	for id := NodeID(1); id <= g.MaxID(); id++ {
		n := g.nodes[id]
		fmt.Fprintf(&b, "  %3d %-9s %-24s ->", id, n.Type, n.Name())
		for _, e := range g.succ[id] {
			fmt.Fprintf(&b, " %d:%s", e.To, e.Label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the graph in Graphviz dot syntax. Pseudo edges are dashed,
// node types other than OTHER are shown as shapes.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  node [fontname=\"Helvetica\"];\n")
	for id := NodeID(1); id <= g.MaxID(); id++ {
		n := g.nodes[id]
		shape := "box"
		switch n.Type {
		case Start, Stop:
			shape = "ellipse"
		case Preheader, Postexit:
			shape = "hexagon"
		case Header:
			shape = "house"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", id, fmt.Sprintf("%d: %s", id, n.Name()), shape)
	}
	for _, e := range g.Edges() {
		style := ""
		if e.Pseudo() {
			style = " style=dashed"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q%s];\n", e.From, e.To, string(e.Label), style)
	}
	b.WriteString("}\n")
	return b.String()
}

// SortedIDs returns all node IDs in ascending order. It exists for callers
// that want deterministic iteration without caring about graph internals.
func (g *Graph) SortedIDs() []NodeID {
	ids := make([]NodeID, 0, g.NumNodes())
	for id := NodeID(1); id <= g.MaxID(); id++ {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
