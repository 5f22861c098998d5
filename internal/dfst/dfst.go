// Package dfst computes depth-first spanning trees over control flow
// graphs, classifies edges, tests reducibility, and performs node splitting
// to make irreducible graphs reducible.
//
// The paper assumes a reducible CFG ("As in other code analysis and
// optimization techniques, we assume that the control flow graph is
// reducible. Node splitting is a standard approach that can be used to
// transform an irreducible control flow graph."); this package supplies both
// the test and the transformation.
package dfst

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/dom"
)

// EdgeKind classifies an edge with respect to a depth-first spanning tree.
type EdgeKind int

// Edge kinds. Tree edges form the spanning tree; Retreating edges go from a
// node to one of its DFS ancestors (in a reducible graph every retreating
// edge is a back edge whose target dominates its source); Forward edges go
// to a proper DFS descendant that is not a tree child via this edge; Cross
// edges connect unrelated subtrees.
const (
	Tree EdgeKind = iota
	Retreating
	Forward
	Cross
)

var kindNames = [...]string{"tree", "retreating", "forward", "cross"}

func (k EdgeKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
	return kindNames[k]
}

// Result holds a depth-first spanning tree of a graph rooted at its entry,
// together with derived orderings.
type Result struct {
	G *cfg.Graph

	// Pre and Post are 1-based DFS preorder and postorder numbers; 0 means
	// the node is unreachable from the entry.
	Pre, Post []int

	// RPO lists reachable node IDs in reverse postorder.
	RPO []cfg.NodeID

	// Parent is the DFS tree parent of each node (None for the root and
	// unreachable nodes).
	Parent []cfg.NodeID

	// kinds classifies every edge: kinds[first[n]+i] is the kind of
	// G.OutEdges(n)[i], so the table is one flat slice in G.Edges() order.
	kinds []EdgeKind
	first []int
}

// New runs a depth-first search over g from g.Entry and returns the
// resulting spanning tree and edge classification. Successors are visited in
// edge insertion order so the traversal is deterministic. It is O(N + E).
func New(g *cfg.Graph) *Result {
	n := int(g.MaxID())
	r := &Result{
		G:      g,
		Pre:    make([]int, n+1),
		Post:   make([]int, n+1),
		Parent: make([]cfg.NodeID, n+1),
		first:  make([]int, n+2),
	}
	for id := 1; id <= n; id++ {
		r.first[id+1] = r.first[id] + len(g.OutEdges(cfg.NodeID(id)))
	}
	r.kinds = make([]EdgeKind, r.first[n+1])
	const unset EdgeKind = -1
	for i := range r.kinds {
		r.kinds[i] = unset
	}
	preClock := 0
	post := make([]cfg.NodeID, 0, g.NumNodes())
	// Iterative DFS to avoid recursion limits on large graphs.
	type frame struct {
		node cfg.NodeID
		next int // index into OutEdges(node)
	}
	var stack []frame
	if g.Node(g.Entry) != nil {
		preClock++
		r.Pre[g.Entry] = preClock
		stack = append(stack, frame{node: g.Entry})
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		edges := g.OutEdges(f.node)
		if f.next < len(edges) {
			e := edges[f.next]
			f.next++
			if r.Pre[e.To] == 0 {
				r.kinds[r.first[f.node]+f.next-1] = Tree
				r.Parent[e.To] = f.node
				preClock++
				r.Pre[e.To] = preClock
				stack = append(stack, frame{node: e.To})
			}
			continue
		}
		post = append(post, f.node)
		r.Post[f.node] = len(post)
		stack = stack[:len(stack)-1]
	}
	// Classify non-tree edges now that numbering is complete.
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		for i, e := range g.OutEdges(id) {
			k := &r.kinds[r.first[id]+i]
			if *k != unset {
				continue
			}
			switch {
			case r.Pre[e.From] == 0 || r.Pre[e.To] == 0:
				// Edge touching an unreachable node: call it cross;
				// analyses require Validate()d graphs so this only
				// happens in tests.
				*k = Cross
			case r.isAncestor(e.To, e.From): // self loops included
				*k = Retreating
			case r.isAncestor(e.From, e.To):
				*k = Forward
			default:
				*k = Cross
			}
		}
	}
	slices.Reverse(post)
	r.RPO = post
	return r
}

// isAncestor reports whether a is an ancestor of b in the DFS tree
// (a == b counts). It uses the standard preorder/postorder interval test.
func (r *Result) isAncestor(a, b cfg.NodeID) bool {
	return r.Pre[a] <= r.Pre[b] && r.Post[a] >= r.Post[b]
}

// Kind returns the classification of e. The edge must belong to the graph
// the Result was built from.
func (r *Result) Kind(e cfg.Edge) EdgeKind {
	if e.From > cfg.None && e.From <= r.G.MaxID() {
		for i, have := range r.G.OutEdges(e.From) {
			if have == e {
				return r.kinds[r.first[e.From]+i]
			}
		}
	}
	panic(fmt.Sprintf("dfst: unknown edge %v", e))
}

// RetreatingEdges returns all retreating edges in G.Edges() order.
func (r *Result) RetreatingEdges() []cfg.Edge {
	var out []cfg.Edge
	for id := cfg.NodeID(1); id <= r.G.MaxID(); id++ {
		for i, e := range r.G.OutEdges(id) {
			if r.kinds[r.first[id]+i] == Retreating {
				out = append(out, e)
			}
		}
	}
	return out
}

// Dominators returns the dominator tree of G, built over this spanning
// tree's reverse postorder (no second depth-first search).
func (r *Result) Dominators() *dom.Tree { return dom.DominatorsInRPO(r.G, r.RPO) }

// IrreducibleEdges returns the retreating edges whose target does not
// dominate their source, in G.Edges() order, given doms, the dominator
// tree of G. A graph is reducible iff there are none: then every
// retreating edge is a back edge, whatever depth-first order found it.
func (r *Result) IrreducibleEdges(doms *dom.Tree) []cfg.Edge {
	var out []cfg.Edge
	for _, e := range r.RetreatingEdges() {
		if !doms.Dominates(e.To, e.From) {
			out = append(out, e)
		}
	}
	return out
}

// Reducible reports whether g is reducible: every retreating edge of a
// depth-first spanning tree from g.Entry has a target that dominates its
// source. Only the subgraph reachable from g.Entry is considered. It costs
// one depth-first search and one dominator tree, O(N + E) on reducible
// graphs.
func Reducible(g *cfg.Graph) bool {
	r := New(g)
	return len(r.IrreducibleEdges(r.Dominators())) == 0
}

// SplitResult reports what MakeReducible did.
type SplitResult struct {
	// Splits counts the nodes duplicated: each region split adds the
	// number of region members it copies.
	Splits int
	// Original maps each node of the output graph to the node of the input
	// graph it copies (identity for unsplit nodes).
	Original map[cfg.NodeID]cfg.NodeID
}

// SplitGrowth bounds node splitting: MakeReducible gives up before its
// output would exceed SplitGrowth times the input's node count. Node
// splitting is exponential in the worst case, and a few lines of GOTO
// spaghetti reach it; real programs (the paper's benchmarks, every shipped
// example and corpus program) split tiny regions, growing by well under 2x.
const SplitGrowth = 16

// ErrSplitBudget reports an irreducible graph whose node splitting would
// exceed the SplitGrowth budget.
var ErrSplitBudget = errors.New("node splitting exceeds its budget")

// MakeReducible returns a reducible graph equivalent to g, applying node
// splitting: while the graph is irreducible, the T1/T2 region of some
// limit-graph node with multiple predecessors is duplicated, one copy per
// edge entering it from outside. Each copy then has a single entering edge
// and collapses into its predecessor's region. Copying the region, not
// just its entry node, keeps a second loop entry from merely moving one
// node along the cycle. The input graph is not modified. For reducible
// inputs the result is a clone with zero splits. No effort is spent on
// copy minimization; a split that would take the graph past SplitGrowth
// times g's size fails with ErrSplitBudget instead.
func MakeReducible(g *cfg.Graph) (*cfg.Graph, *SplitResult, error) {
	out := g.Clone()
	res := &SplitResult{Original: make(map[cfg.NodeID]cfg.NodeID)}
	for id := cfg.NodeID(1); id <= out.MaxID(); id++ {
		res.Original[id] = id
	}
	budget := SplitGrowth * g.NumNodes()
	for !Reducible(out) {
		if err := splitRegion(out, splitVictim(out), res, budget); err != nil {
			return nil, nil, fmt.Errorf("dfst: %q: %w", g.Name, err)
		}
	}
	return out, res, nil
}

// splitVictim reduces the reachable part of irreducible g with T1 (drop
// self loops) and T2 (merge a node into its unique predecessor) to the
// limit graph. It returns the region (the nodes T1/T2 merged into one
// limit-graph node, that node first) of the smallest non-entry survivor
// with more than one predecessor in the limit graph. The limit graph does
// not depend on the order the transformations are applied in, so a plain
// sweep to a fixpoint suffices; this runs only on irreducible graphs,
// which are rare.
func splitVictim(g *cfg.Graph) []cfg.NodeID {
	reach := g.ReachableFrom(g.Entry)
	// rep is a union-find forest: a merged node points into the region it
	// was merged into, so find(v) is v's limit-graph representative.
	rep := make([]cfg.NodeID, g.MaxID()+1)
	for i := range rep {
		rep[i] = cfg.NodeID(i)
	}
	find := func(v cfg.NodeID) cfg.NodeID {
		for rep[v] != v {
			rep[v] = rep[rep[v]]
			v = rep[v]
		}
		return v
	}
	// limitPreds returns v's distinct predecessor representatives other
	// than v itself, stopping early at two.
	limitPreds := func(v cfg.NodeID) (first cfg.NodeID, count int) {
		for _, e := range g.InEdges(v) {
			if !reach[e.From] {
				continue
			}
			p := find(e.From)
			if p == v || p == first {
				continue
			}
			if count++; count == 1 {
				first = p
			} else {
				return first, count
			}
		}
		return first, count
	}
	for changed := true; changed; {
		changed = false
		for v := cfg.NodeID(1); v <= g.MaxID(); v++ {
			if !reach[v] || v == g.Entry || find(v) != v {
				continue
			}
			if p, count := limitPreds(v); count == 1 {
				rep[v] = p
				changed = true
			}
		}
	}
	for v := cfg.NodeID(1); v <= g.MaxID(); v++ {
		if !reach[v] || v == g.Entry || find(v) != v {
			continue
		}
		if _, count := limitPreds(v); count < 2 {
			continue
		}
		region := []cfg.NodeID{v}
		for m := cfg.NodeID(1); m <= g.MaxID(); m++ {
			if m != v && reach[m] && find(m) == v {
				region = append(region, m)
			}
		}
		return region
	}
	// Should be impossible: an irreducible limit graph must contain a
	// multi-entry node other than the entry.
	panic("dfst: irreducible graph with no splittable node")
}

// splitRegion duplicates the cyclic part of region (its entry node
// first) so that each edge entering it from outside gets a private copy.
// Only the entry node v has such edges: T2 merged every other member into
// the region through its unique predecessor. Members that cannot reach v
// (the region's exits, the procedure's exit node among them) lie on no
// cycle through v and are not copied. The first entering edge keeps the
// original; each further edge is redirected to a fresh copy, whose edges
// among copied members stay inside the copy and whose other edges keep
// their targets. It fails, leaving g unchanged, when the copies would take
// g past budget nodes.
func splitRegion(g *cfg.Graph, region []cfg.NodeID, res *SplitResult, budget int) error {
	v := region[0]
	// reachesV marks the nodes that can reach v.
	reachesV := make([]bool, g.MaxID()+1)
	reachesV[v] = true
	for stack := []cfg.NodeID{v}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.InEdges(n) {
			if !reachesV[e.From] {
				reachesV[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	// idx[m] is m's position among the copied members plus one; 0 for
	// every other node.
	idx := make([]int, g.MaxID()+1)
	copied := region[:0:0]
	for _, m := range region {
		if reachesV[m] {
			copied = append(copied, m)
			idx[m] = len(copied)
		}
	}
	var entries []cfg.Edge
	for _, e := range g.InEdges(v) {
		if idx[e.From] == 0 {
			entries = append(entries, e)
		}
	}
	if grown := g.NumNodes() + len(copied)*(len(entries)-1); grown > budget {
		return fmt.Errorf("%w: %d nodes would grow to %d, past %dx the input",
			ErrSplitBudget, g.NumNodes(), grown, SplitGrowth)
	}
	outs := make([][]cfg.Edge, len(copied))
	for i, m := range copied {
		outs[i] = slices.Clone(g.OutEdges(m))
	}
	res.Splits += len(copied)
	copies := make([]cfg.NodeID, len(copied))
	for _, e := range entries[1:] {
		for i, m := range copied {
			c := g.AddCopy(m)
			res.Original[c.ID] = res.Original[m]
			copies[i] = c.ID
		}
		for i := range copied {
			for _, oe := range outs[i] {
				to := oe.To
				if k := idx[to]; k != 0 {
					to = copies[k-1]
				}
				g.MustAddEdge(copies[i], to, oe.Label)
			}
		}
		g.RemoveEdge(e.From, v, e.Label)
		g.MustAddEdge(e.From, copies[0], e.Label)
	}
	return nil
}
