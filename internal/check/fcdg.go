package check

import (
	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
)

// checkFCDG verifies the forward control dependence graph is what the
// frequency recurrence assumes: rooted at START, connected (every node
// reachable from the root), acyclic, and with region nesting that exactly
// mirrors the interval nesting — every node of interval h is an FCDG
// descendant of h's preheader, and nested intervals' preheaders nest the
// same way HDR_PARENT does.
func checkFCDG(a *analysis.Proc, r *reporter) {
	f := a.FCDG

	// Rooted and connected: a DFS from the root must reach every node the
	// graph mentions.
	desc := descendants(f, f.Root)
	for _, n := range f.Nodes() {
		if !desc[n] {
			r.errorf(int(n), "FCDG node %d is not reachable from the root (disconnected region)", n)
		}
	}

	// Acyclic: recompute a DFS three-coloring rather than trusting the
	// cached topological order.
	if cyc, ok := findCycle(f); ok {
		r.errorf(int(cyc), "FCDG has a cycle through node %d", cyc)
	}

	// Region nesting mirrors HDR_PARENT. The interval structure of the
	// extended graph assigns each node its innermost header; the matching
	// FCDG property is that the node is a descendant of that header's
	// preheader (the loop condition governs its frequency), and that inner
	// preheaders are descendants of outer ones.
	iv := a.Ext.Intervals
	for _, h := range iv.Headers() {
		ph, ok := a.Ext.Preheader[h]
		if !ok {
			continue // reported by the wellformed pass
		}
		region := descendants(f, ph)
		for _, n := range iv.Body(h) {
			if n == h || region[n] {
				continue
			}
			r.errorf(int(n), "node %d belongs to interval %d but is not an FCDG descendant of its preheader %d", n, h, ph)
		}
		if !region[h] {
			r.errorf(int(h), "loop header %d is not an FCDG descendant of its own preheader %d", h, ph)
		}
		if parent := iv.Parent(h); parent != cfg.None {
			pph, ok := a.Ext.Preheader[parent]
			if ok && !descendants(f, pph)[ph] {
				r.errorf(int(ph), "preheader %d of interval %d does not nest under preheader %d of HDR_PARENT %d", ph, h, pph, parent)
			}
		}
	}
}

// descendants returns the set of nodes reachable from start in the FCDG
// (start included).
func descendants(f *cdg.Graph, start cfg.NodeID) map[cfg.NodeID]bool {
	seen := map[cfg.NodeID]bool{start: true}
	stack := []cfg.NodeID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range f.OutEdges(n) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// findCycle reports a node on some cycle of the graph, if one exists.
func findCycle(f *cdg.Graph) (cfg.NodeID, bool) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[cfg.NodeID]int{}
	type frame struct {
		node  cfg.NodeID
		edges []cfg.Edge
		next  int
	}
	for _, root := range f.Nodes() {
		if color[root] != white {
			continue
		}
		stack := []frame{{node: root, edges: f.OutEdges(root)}}
		color[root] = grey
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.next >= len(fr.edges) {
				color[fr.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := fr.edges[fr.next]
			fr.next++
			switch color[e.To] {
			case grey:
				return e.To, true
			case white:
				color[e.To] = grey
				stack = append(stack, frame{node: e.To, edges: f.OutEdges(e.To)})
			}
		}
	}
	return cfg.None, false
}
