// Package interval computes the interval (loop nesting) structure of a
// reducible control flow graph.
//
// Following Section 2 of the paper, the structure is summarized by three
// mappings:
//
//	HDR(n)         — header of the innermost interval (loop) containing n;
//	                 a header belongs to its own interval, and HDR(n) = 0
//	                 (cfg.None) for nodes in no loop, which the paper calls
//	                 the outermost interval.
//	HDR_PARENT(h)  — header of the interval immediately enclosing interval
//	                 h, or 0 if interval h is outermost.
//	HDR_LCA(a, b)  — least common ancestor of headers a and b in the
//	                 HDR_PARENT tree (with 0 as the tree root).
//
// On a reducible graph loop headers are exactly the targets of back edges
// (edges whose target dominates their source), and the interval of a header
// is the union of the natural loops of its back edges.
package interval

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/dfst"
)

// Info holds the interval structure of one graph. Node tables are indexed
// by NodeID; per-interval tables by header number, the header's position
// in the ascending Headers() list, so they cost O(headers), not O(nodes).
type Info struct {
	G *cfg.Graph

	// inner[n] is one plus the header number of HDR(n), the innermost
	// interval containing n; 0 when n is in no loop.
	inner []int32
	// headers in ascending ID order.
	headers []cfg.NodeID
	// parent[k] is the header number of HDR_PARENT(headers[k]), or -1
	// for an outermost interval.
	parent []int32
	// depth[k] is the nesting depth of interval k (outermost loop = 1).
	depth []int32
	// pre[k] and post[k] number the HDR_PARENT tree depth-first, so
	// Contains is an O(1) interval test on them.
	pre, post []int32
	// backEdges[k] lists the back edges targeting headers[k], in graph
	// edge order.
	backEdges [][]cfg.Edge
}

// ErrIrreducible is returned by Analyze when the graph has a retreating
// edge whose target does not dominate its source. Use dfst.MakeReducible
// first.
type ErrIrreducible struct {
	Edge cfg.Edge
}

func (e *ErrIrreducible) Error() string {
	return fmt.Sprintf("interval: graph is irreducible (retreating edge %v is not a back edge)", e.Edge)
}

// Analyze computes the interval structure of g. The graph must be reducible
// and g.Entry must be set; otherwise an error is returned.
//
// It builds one depth-first spanning tree and one dominator tree of g:
// the retreating edges are the back edges (each must target a dominator of
// its source), and their targets are the headers. Loop bodies are found
// innermost first, visiting headers in DFS postorder; a union-find over
// the nodes already claimed by an inner loop lets each outer walk step
// over that loop through its header (Havlak's scheme for reducible
// graphs). Everything is O(N + E) apart from the union-find's inverse
// Ackermann factor and the dominator tree's near-linear bound.
func Analyze(g *cfg.Graph) (*Info, error) {
	if g.Node(g.Entry) == nil {
		return nil, fmt.Errorf("interval: graph %q has no entry node", g.Name)
	}
	d := dfst.New(g)
	back := d.RetreatingEdges()
	if len(back) > 0 {
		doms := d.Dominators()
		for _, e := range back {
			if !doms.Dominates(e.To, e.From) {
				return nil, &ErrIrreducible{Edge: e}
			}
		}
	}

	n := int(g.MaxID())
	in := &Info{G: g, inner: make([]int32, n+1)}
	// num[v] is v's header number, -1 for non-headers; construction only.
	num := make([]int32, n+1)
	for i := range num {
		num[i] = -1
	}
	for _, e := range back {
		num[e.To] = 0
	}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if num[id] == 0 {
			num[id] = int32(len(in.headers))
			in.headers = append(in.headers, id)
		}
	}
	nh := len(in.headers)
	in.parent = make([]int32, nh)
	in.backEdges = make([][]cfg.Edge, nh)
	for k := range in.parent {
		in.parent[k] = -1
	}
	for _, e := range back {
		in.backEdges[num[e.To]] = append(in.backEdges[num[e.To]], e)
	}

	// rep is the union-find forest: a node claimed by a loop points at
	// that loop's header, so find(v) is the header of the outermost loop
	// found so far that contains v (or v itself).
	rep := make([]cfg.NodeID, n+1)
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
	var stack []cfg.NodeID
	for i := len(d.RPO) - 1; i >= 0; i-- {
		h := d.RPO[i]
		k := num[h]
		if k < 0 {
			continue
		}
		in.inner[h] = k + 1
		// claim adds the representative v to interval k: a plain node
		// gets k as its innermost interval, the header of an inner loop
		// gets k as its HDR_PARENT.
		claim := func(v cfg.NodeID) {
			if v == h {
				return
			}
			rep[v] = h
			if in.inner[v] == 0 {
				in.inner[v] = k + 1
			} else {
				in.parent[num[v]] = k
			}
			stack = append(stack, v)
		}
		for _, e := range in.backEdges[k] {
			claim(find(e.From))
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.InEdges(v) {
				claim(find(e.From))
			}
		}
	}
	in.numberTree()
	return in, nil
}

// numberTree fills depth, pre and post from parent with one iterative
// depth-first walk of the HDR_PARENT tree, roots and children in ascending
// header order. It reports false if parent is not a forest (possible only
// for decoded input).
func (in *Info) numberTree() bool {
	nh := len(in.headers)
	in.depth = make([]int32, nh)
	in.pre = make([]int32, nh)
	in.post = make([]int32, nh)
	// kids[p+1] lists the children of header p in ascending order;
	// kids[0] lists the roots.
	kids := make([][]int32, nh+1)
	for k, p := range in.parent {
		kids[p+1] = append(kids[p+1], int32(k))
	}
	type frame struct {
		k    int32
		next int
	}
	clock, seen := int32(0), 0
	var stack []frame
	push := func(k, depth int32) {
		clock++
		seen++
		in.pre[k], in.depth[k] = clock, depth
		stack = append(stack, frame{k: k})
	}
	for _, root := range kids[0] {
		push(root, 1)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if c := kids[f.k+1]; f.next < len(c) {
				f.next++
				push(c[f.next-1], in.depth[f.k]+1)
				continue
			}
			clock++
			in.post[f.k] = clock
			stack = stack[:len(stack)-1]
		}
	}
	return seen == nh
}

// num returns h's header number, or -1 if h is not a header.
func (in *Info) num(h cfg.NodeID) int32 {
	if h <= cfg.None || int(h) >= len(in.inner) {
		return -1
	}
	k := in.inner[h] - 1
	if k < 0 || in.headers[k] != h {
		return -1
	}
	return k
}

// Headers returns the loop header nodes in ascending ID order. The slice is
// shared; callers must not mutate it.
func (in *Info) Headers() []cfg.NodeID { return in.headers }

// IsHeader reports whether h heads an interval (is the target of a back
// edge).
func (in *Info) IsHeader(h cfg.NodeID) bool { return in.num(h) >= 0 }

// HDR returns the header of the innermost interval containing n, or
// cfg.None if n belongs to the outermost (whole-procedure) interval.
func (in *Info) HDR(n cfg.NodeID) cfg.NodeID {
	if n <= cfg.None || int(n) >= len(in.inner) || in.inner[n] == 0 {
		return cfg.None
	}
	return in.headers[in.inner[n]-1]
}

// Parent returns HDR_PARENT(h): the header of the immediately enclosing
// interval, or cfg.None for outermost intervals and non-headers.
func (in *Info) Parent(h cfg.NodeID) cfg.NodeID {
	if k := in.num(h); k >= 0 && in.parent[k] >= 0 {
		return in.headers[in.parent[k]]
	}
	return cfg.None
}

// Depth returns the loop nesting depth of header h (1 = outermost loop).
// Non-headers have depth 0.
func (in *Info) Depth(h cfg.NodeID) int {
	if k := in.num(h); k >= 0 {
		return int(in.depth[k])
	}
	return 0
}

// LCA returns HDR_LCA(a, b): the least common ancestor of headers a and b
// in the HDR_PARENT tree. cfg.None is the root of that tree, so LCA of two
// unrelated headers is cfg.None. Both arguments must be headers or
// cfg.None; any other node counts as cfg.None unless a == b.
func (in *Info) LCA(a, b cfg.NodeID) cfg.NodeID {
	if a == b {
		return a
	}
	ka, kb := in.num(a), in.num(b)
	if ka < 0 || kb < 0 {
		return cfg.None
	}
	for in.depth[ka] > in.depth[kb] {
		ka = in.parent[ka]
	}
	for in.depth[kb] > in.depth[ka] {
		kb = in.parent[kb]
	}
	for ka != kb && ka >= 0 {
		ka, kb = in.parent[ka], in.parent[kb]
	}
	if ka < 0 {
		return cfg.None
	}
	return in.headers[ka]
}

// Body returns the members of interval h (h itself, its loop body, and all
// nested intervals) in ascending ID order, or nil if h is not a header.
// The slice is freshly allocated; it costs O(N).
func (in *Info) Body(h cfg.NodeID) []cfg.NodeID {
	if in.num(h) < 0 {
		return nil
	}
	var out []cfg.NodeID
	for n := cfg.NodeID(1); int(n) < len(in.inner); n++ {
		if in.Contains(h, n) {
			out = append(out, n)
		}
	}
	return out
}

// bodies returns Body(h) for every header, by header number, in one
// O(sum of body sizes) pass.
func (in *Info) bodies() [][]cfg.NodeID {
	out := make([][]cfg.NodeID, len(in.headers))
	for n := 1; n < len(in.inner); n++ {
		for k := in.inner[n] - 1; k >= 0; k = in.parent[k] {
			out[k] = append(out[k], cfg.NodeID(n))
		}
	}
	return out
}

// Contains reports whether node n lies inside interval h (h's own header
// included). Contains(cfg.None, n) is true for every n: everything is in
// the outermost interval. It is O(1): n is inside h iff h is HDR(n) or an
// ancestor of it in the HDR_PARENT tree.
func (in *Info) Contains(h, n cfg.NodeID) bool {
	if h == cfg.None {
		return true
	}
	kh := in.num(h)
	if kh < 0 || n <= cfg.None || int(n) >= len(in.inner) || in.inner[n] == 0 {
		return false
	}
	kn := in.inner[n] - 1
	return in.pre[kh] <= in.pre[kn] && in.post[kn] <= in.post[kh]
}

// BackEdges returns the back edges whose target is header h, in graph edge
// order (nil for non-headers). The slice is shared; callers must not
// mutate it.
func (in *Info) BackEdges(h cfg.NodeID) []cfg.Edge {
	if k := in.num(h); k >= 0 {
		return in.backEdges[k]
	}
	return nil
}

// LoopExits returns the edges that leave interval h: edges (u, v) with u
// inside the interval and v outside. Deterministic order.
func (in *Info) LoopExits(h cfg.NodeID) []cfg.Edge {
	if in.num(h) < 0 {
		return nil
	}
	var out []cfg.Edge
	for _, e := range in.G.Edges() {
		if in.Contains(h, e.From) && !in.Contains(h, e.To) {
			out = append(out, e)
		}
	}
	return out
}
