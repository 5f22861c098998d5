package check

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
)

// checkWellFormed verifies the CFG/ECFG shape later phases rely on:
// every node is reachable from START, every node can reach STOP (the
// postdominator-based CDG construction requires it), and the pseudo edges
// added by the ECFG transformation connect exactly the node pairs Figure 2
// prescribes — Z1 only START→STOP, Z2 only preheader→postexit of the same
// interval, with every preheader and postexit wired to its loop.
func checkWellFormed(a *analysis.Proc, r *reporter) {
	ext := a.Ext
	g := ext.G

	// Forward reachability from START.
	reach := g.ReachableFrom(ext.Start)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if g.Node(id) == nil {
			continue
		}
		if int(id) >= len(reach) || !reach[id] {
			r.errorf(int(id), "node %q is unreachable from START", g.Node(id).Name())
		}
	}

	// Backward reachability to STOP.
	canStop := make([]bool, g.MaxID()+1)
	stack := []cfg.NodeID{ext.Stop}
	canStop[ext.Stop] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.InEdges(n) {
			if !canStop[e.From] {
				canStop[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if g.Node(id) == nil || canStop[id] {
			continue
		}
		r.errorf(int(id), "node %q cannot reach STOP (non-terminating region)", g.Node(id).Name())
	}

	// Pseudo edge shape.
	for _, e := range g.Edges() {
		switch e.Label {
		case cfg.PseudoStartStop:
			if e.From != ext.Start || e.To != ext.Stop {
				r.errorf(int(e.From), "dangling Z1 pseudo edge %v: must connect START to STOP", e)
			}
		case cfg.PseudoLoop:
			h, isPre := ext.HeaderOf[e.From]
			if !isPre {
				r.errorf(int(e.From), "dangling Z2 pseudo edge %v: source is not a PREHEADER", e)
				continue
			}
			exited, isPost := ext.ExitedInterval[e.To]
			if !isPost {
				r.errorf(int(e.To), "dangling Z2 pseudo edge %v: target is not a POSTEXIT", e)
				continue
			}
			if exited != h {
				r.errorf(int(e.From), "Z2 pseudo edge %v crosses intervals: preheader of %d, postexit of %d", e, h, exited)
			}
		}
	}

	// Every loop header has a preheader; every preheader/postexit node is
	// registered in the interval bookkeeping.
	for _, h := range ext.Intervals.Headers() {
		if _, ok := ext.Preheader[h]; !ok && !ext.IsSynthetic(h) {
			r.errorf(int(h), "loop header %d has no PREHEADER node", h)
		}
	}
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		n := g.Node(id)
		if n == nil {
			continue
		}
		switch n.Type {
		case cfg.Preheader:
			if _, ok := ext.HeaderOf[id]; !ok {
				r.errorf(int(id), "PREHEADER node %d serves no loop header", id)
			}
		case cfg.Postexit:
			if _, ok := ext.ExitedInterval[id]; !ok {
				r.errorf(int(id), "POSTEXIT node %d exits no interval", id)
			}
		}
	}
}
