// Package dataflow runs four analyses over the lowered control flow graph:
// conditional constant propagation (SCCP-style, with edge feasibility),
// branch feasibility, liveness, and definite assignment. The clients'
// combined per-procedure facts feed the counter planner (infeasible
// conditions need no counters), the estimator (infeasible conditions pinned
// to frequency 0, flow-proven constant-trip DO loops priced
// deterministically) and the lint passes of internal/check (dead code, dead
// stores, use-before-def).
//
// Every analysis shares one machinery per procedure: an order table (reverse
// postorder of the reachable nodes, then the rest in ID order) and a
// worklist that pops the pending node of smallest priority. Constant
// propagation keeps a copy-on-write sorted environment per node
// (const.go); liveness and definite assignment are gen/kill problems over
// []uint64 bit vectors, solved in place (live.go).
//
// Every fact the package proves is checked dynamically by the oracle's
// dataflow-sound invariant: an edge proven infeasible must have frequency 0
// in every profiled run, and a variable proven constant at a node must hold
// exactly that value whenever the node executes. The constant evaluator
// (interp.EvalConst) therefore computes with the engines' own operators,
// never an idealization of them.
package dataflow

import "repro/internal/cfg"

// order is a procedure's priority table. byPrio lists the nodes reachable
// from the entry in reverse postorder of a DFS that follows out-edges in
// insertion order, then the unreachable ones (hand-built test graphs may
// have them) in ID order; prio is its inverse. reached counts the
// reachable prefix.
type order struct {
	byPrio  []cfg.NodeID
	prio    []int32
	reached int
}

func newOrder(g *cfg.Graph) *order {
	n := int(g.MaxID()) + 1
	o := &order{byPrio: make([]cfg.NodeID, 0, n), prio: make([]int32, n)}
	// DFS postorder with an explicit stack; prio doubles as the visited
	// mark (-1 = unseen) until the postorder is reversed.
	for i := range o.prio {
		o.prio[i] = -1
	}
	if g.Node(g.Entry) != nil {
		type item struct {
			n    cfg.NodeID
			edge int
		}
		stack := []item{{n: g.Entry}}
		o.prio[g.Entry] = 0
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			out := g.OutEdges(top.n)
			if top.edge < len(out) {
				t := out[top.edge].To
				top.edge++
				if o.prio[t] < 0 {
					o.prio[t] = 0
					stack = append(stack, item{n: t})
				}
				continue
			}
			o.byPrio = append(o.byPrio, top.n)
			stack = stack[:len(stack)-1]
		}
	}
	o.reached = len(o.byPrio)
	for i, j := 0, o.reached-1; i < j; i, j = i+1, j-1 {
		o.byPrio[i], o.byPrio[j] = o.byPrio[j], o.byPrio[i]
	}
	for id := cfg.NodeID(1); id < cfg.NodeID(n); id++ {
		if o.prio[id] < 0 {
			o.byPrio = append(o.byPrio, id)
		}
	}
	for p, id := range o.byPrio {
		o.prio[id] = int32(p)
	}
	return o
}

// worklist is a deterministic priority worklist over one order: pop returns
// the pending node with the smallest priority, and a node is pending at
// most once. A backward worklist ranks the reachable nodes by postorder
// instead (the reverse of their forward priority); the unreachable tail
// keeps ID order either way; the direction is fixed at construction. It is a
// binary min-heap of ranks, empty again after each solve drains it.
type worklist struct {
	o        *order
	backward bool
	heap     []int32
	pending  []bool // by rank
}

func newWorklist(o *order, backward bool) *worklist {
	return &worklist{o: o, backward: backward, heap: make([]int32, 0, len(o.byPrio)), pending: make([]bool, len(o.byPrio))}
}

// rank maps a forward priority to this worklist's rank; it is its own
// inverse.
func (w *worklist) rank(p int32) int32 {
	if w.backward && int(p) < w.o.reached {
		return int32(w.o.reached) - 1 - p
	}
	return p
}

// pushAll seeds every node of the graph: the ranks in ascending order are
// already a valid heap.
func (w *worklist) pushAll() {
	w.heap = w.heap[:0]
	for r := range w.pending {
		w.pending[r] = true
		w.heap = append(w.heap, int32(r))
	}
}

func (w *worklist) push(n cfg.NodeID) {
	r := w.rank(w.o.prio[n])
	if w.pending[r] {
		return
	}
	w.pending[r] = true
	h := append(w.heap, r)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	w.heap = h
}

func (w *worklist) pop() (cfg.NodeID, bool) {
	h := w.heap
	if len(h) == 0 {
		return cfg.None, false
	}
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	w.heap = h
	w.pending[r] = false
	return w.o.byPrio[w.rank(r)], true
}
