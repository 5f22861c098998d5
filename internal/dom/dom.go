// Package dom computes dominator and postdominator trees for control flow
// graphs.
//
// The implementation is the iterative algorithm of Cooper, Harvey and
// Kennedy ("A Simple, Fast Dominance Algorithm") over a reverse postorder
// of the graph, which is near-linear in practice and simple to verify.
// Postdominators are dominators of the edge-reversed graph rooted at the
// exit node. The postdominator tree is the foundation of control dependence
// (Definition 2 of the paper, after Ferrante–Ottenstein–Warren).
package dom

import (
	"slices"

	"repro/internal/cfg"
)

// Tree is a dominator (or postdominator) tree.
type Tree struct {
	// Root is the tree root: the graph entry for dominators, the exit for
	// postdominators.
	Root cfg.NodeID
	// Idom maps each node to its immediate dominator; Idom[Root] == Root,
	// and Idom[n] == cfg.None for nodes outside the analyzed subgraph.
	Idom []cfg.NodeID
	// children in deterministic (ascending ID) order.
	children [][]cfg.NodeID
	// pre/post numbers of the *tree* for O(1) ancestor queries.
	pre, post []int
}

// Dominators computes the dominator tree of g rooted at g.Entry.
func Dominators(g *cfg.Graph) *Tree {
	return build(g, g.Entry, reversePostorder(g, g.Entry, g.OutEdges, edgeTo), g.InEdges, edgeFrom)
}

// DominatorsInRPO is Dominators for a caller that already holds a reverse
// postorder of the nodes reachable from g.Entry (a depth-first spanning
// tree's RPO), so the tree is built without a second depth-first search.
// The tree does not depend on which depth-first order is supplied.
func DominatorsInRPO(g *cfg.Graph, rpo []cfg.NodeID) *Tree {
	return build(g, g.Entry, rpo, g.InEdges, edgeFrom)
}

// PostDominators computes the postdominator tree of g rooted at g.Exit,
// i.e. the dominator tree of the reversed graph.
func PostDominators(g *cfg.Graph) *Tree {
	return build(g, g.Exit, reversePostorder(g, g.Exit, g.InEdges, edgeFrom), g.OutEdges, edgeTo)
}

func edgeTo(e cfg.Edge) cfg.NodeID   { return e.To }
func edgeFrom(e cfg.Edge) cfg.NodeID { return e.From }

// reversePostorder lists the nodes reachable from root along the edges
// next yields (far picks each edge's far end), in reverse postorder of an
// iterative depth-first search. It is empty when root is not a node of g.
func reversePostorder(g *cfg.Graph, root cfg.NodeID, next func(cfg.NodeID) []cfg.Edge, far func(cfg.Edge) cfg.NodeID) []cfg.NodeID {
	if g.Node(root) == nil {
		return nil
	}
	visited := make([]bool, g.MaxID()+1)
	order := make([]cfg.NodeID, 0, g.NumNodes())
	type frame struct {
		node cfg.NodeID
		next int
	}
	stack := []frame{{node: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		edges := next(f.node)
		if f.next < len(edges) {
			s := far(edges[f.next])
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{node: s})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(order)
	return order
}

// build runs the CHK iterative algorithm over order, a reverse postorder
// of the nodes reachable from root in the direction of the analysis.
// back yields each node's edges against that direction and near picks the
// edge end that is the node's predecessor in it. Each pass is O(E·d) for
// dominator-tree depth d; reducible graphs converge in two passes.
func build(g *cfg.Graph, root cfg.NodeID, order []cfg.NodeID, back func(cfg.NodeID) []cfg.Edge, near func(cfg.Edge) cfg.NodeID) *Tree {
	n := int(g.MaxID())
	t := &Tree{
		Root: root,
		Idom: make([]cfg.NodeID, n+1),
	}
	if len(order) == 0 {
		return t
	}
	rpoNum := make([]int, n+1) // 0 = unreachable
	for i, id := range order {
		rpoNum[id] = i + 1
	}

	intersect := func(a, b cfg.NodeID) cfg.NodeID {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = t.Idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = t.Idom[b]
			}
		}
		return a
	}

	t.Idom[root] = root
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			var newIdom cfg.NodeID
			for _, e := range back(b) {
				p := near(e)
				if rpoNum[p] == 0 || t.Idom[p] == cfg.None {
					continue // unreachable or not yet processed
				}
				if newIdom == cfg.None {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != cfg.None && t.Idom[b] != newIdom {
				t.Idom[b] = newIdom
				changed = true
			}
		}
	}

	// Children lists in ascending ID order (IDs are visited ascending, so
	// appending keeps each list sorted), then tree pre/post numbers for
	// O(1) ancestor queries.
	t.children = make([][]cfg.NodeID, n+1)
	for id := cfg.NodeID(1); id <= cfg.NodeID(n); id++ {
		if id == root || t.Idom[id] == cfg.None {
			continue
		}
		t.children[t.Idom[id]] = append(t.children[t.Idom[id]], id)
	}
	t.pre = make([]int, n+1)
	t.post = make([]int, n+1)
	clock := 0
	type tframe struct {
		node cfg.NodeID
		next int
	}
	tstack := []tframe{{node: root}}
	clock++
	t.pre[root] = clock
	for len(tstack) > 0 {
		f := &tstack[len(tstack)-1]
		kids := t.children[f.node]
		if f.next < len(kids) {
			k := kids[f.next]
			f.next++
			clock++
			t.pre[k] = clock
			tstack = append(tstack, tframe{node: k})
			continue
		}
		clock++
		t.post[f.node] = clock
		tstack = tstack[:len(tstack)-1]
	}
	return t
}

// Parent returns the immediate dominator of n, or cfg.None for the root and
// nodes outside the analyzed subgraph.
func (t *Tree) Parent(n cfg.NodeID) cfg.NodeID {
	if n == t.Root {
		return cfg.None
	}
	if int(n) >= len(t.Idom) {
		return cfg.None
	}
	return t.Idom[n]
}

// Children returns the tree children of n in ascending ID order. The slice
// is shared; callers must not mutate it.
func (t *Tree) Children(n cfg.NodeID) []cfg.NodeID { return t.children[n] }

// Dominates reports whether a (post)dominates b, reflexively: every node
// dominates itself.
func (t *Tree) Dominates(a, b cfg.NodeID) bool {
	if int(a) >= len(t.pre) || int(b) >= len(t.pre) || t.pre[a] == 0 || t.pre[b] == 0 {
		return false
	}
	return t.pre[a] <= t.pre[b] && t.post[a] >= t.post[b]
}

// StrictlyDominates reports whether a (post)dominates b and a != b.
func (t *Tree) StrictlyDominates(a, b cfg.NodeID) bool {
	return a != b && t.Dominates(a, b)
}

// InTree reports whether n was reachable in the analysis direction and is
// part of the tree.
func (t *Tree) InTree(n cfg.NodeID) bool {
	return int(n) < len(t.pre) && n > cfg.None && t.pre[n] != 0
}
