package oracle

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/lower"
)

// checkDataflowSound is the soundness oracle for the monotone dataflow
// framework: every static claim internal/dataflow makes is asserted against
// the dynamic truth of each profiled run.
//
//   - an edge proven infeasible must have dynamic frequency 0;
//   - a branch with a single feasible label must take it on every execution;
//   - a node proven unreachable must never execute;
//   - a DO test with a flow-proven constant trip count must take its T label
//     exactly trip × (loop entries) times (completed runs only — STOP can
//     interrupt a loop mid-flight);
//   - a variable proven constant at a node must hold exactly that value
//     whenever the node executes (checked by re-running each seed on the
//     tree-walker with a value observation hook).
//
// The edge-level checks run against the case's configured engine, so the
// tree walker, the VM and the batched VM are all held to the same facts.
func checkDataflowSound(ctx *evalCtx) error {
	for _, name := range sortedProcNames(ctx) {
		a := ctx.an.Procs[name]
		f := a.Flow
		if f == nil {
			return fmt.Errorf("proc %s: analysis carries no dataflow facts", name)
		}
		p := a.P
		doInits := doInitsByTest(p)
		for ri, run := range ctx.runs {
			for _, e := range f.Infeasible {
				if n := run.EdgeCount(p, e); n != 0 {
					return fmt.Errorf("proc %s run %d: edge %v proven infeasible but taken %d times", name, ri, e, n)
				}
			}
			for node, lbl := range f.ConstBranch {
				exec := run.NodeCount(p, node)
				if got := run.LabelCount(p, node, lbl); got != exec {
					return fmt.Errorf("proc %s run %d: node %d proven to always take %q but took it %d of %d executions",
						name, ri, node, lbl, got, exec)
				}
			}
			for id := cfg.NodeID(1); id <= p.G.MaxID(); id++ {
				if p.G.Node(id) == nil || f.Reached[id] {
					continue
				}
				if n := run.NodeCount(p, id); n != 0 {
					return fmt.Errorf("proc %s run %d: node %d proven unreachable but executed %d times", name, ri, id, n)
				}
			}
			if run.Stopped {
				continue
			}
			for test, trip := range f.ConstTrips {
				entries := int64(0)
				for _, init := range doInits[test] {
					entries += run.NodeCount(p, init)
				}
				want := trip * entries
				if got := run.LabelCount(p, test, cfg.True); got != want {
					return fmt.Errorf("proc %s run %d: DO test %d proven trip=%d over %d entries, want %d body iterations, got %d",
						name, ri, test, trip, entries, want, got)
				}
			}
		}
	}
	return checkConstValues(ctx)
}

// checkConstValues re-runs every profiled seed on the tree-walker with a
// per-node value observation hook and verifies each proven constant against
// the live frame.
func checkConstValues(ctx *evalCtx) error {
	claims := make(map[string][][]dataflow.Const, len(ctx.an.Procs))
	for name, a := range ctx.an.Procs {
		g := a.P.G
		per := make([][]dataflow.Const, g.MaxID()+1)
		for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
			per[id] = a.Flow.ConstsAtNode(id)
		}
		claims[name] = per
	}
	for _, seed := range ctx.c.ProfileSeeds {
		var violation error
		hook := func(p *lower.Proc, n cfg.NodeID, get func(name string) (interp.Value, bool)) {
			if violation != nil {
				return
			}
			per := claims[p.G.Name]
			if int(n) >= len(per) {
				return
			}
			for _, cl := range per[n] {
				got, ok := get(cl.Name)
				if !ok {
					violation = fmt.Errorf("proc %s node %d seed %d: %s proven constant but absent from the frame",
						p.G.Name, n, seed, cl.Name)
					return
				}
				if !dataflow.ValueEq(cl.Val, got) {
					violation = fmt.Errorf("proc %s node %d seed %d: %s proven constant %v but holds %v",
						p.G.Name, n, seed, cl.Name, cl.Val, got)
					return
				}
			}
		}
		m := ctx.model
		_, err := interp.Run(ctx.res, interp.Options{
			Seed: seed, Model: &m, MaxSteps: ctx.c.MaxSteps, OnNode: hook,
		})
		if err != nil {
			return fmt.Errorf("const-value re-run seed %d: %w", seed, err)
		}
		if violation != nil {
			return violation
		}
	}
	return nil
}

// doInitsByTest groups a procedure's DoInit nodes by their test node
// (node-split copies share one test and one trip-state slot).
func doInitsByTest(p *lower.Proc) map[cfg.NodeID][]cfg.NodeID {
	out := make(map[cfg.NodeID][]cfg.NodeID)
	for _, n := range p.G.Nodes() {
		if op, ok := n.Payload.(lower.OpDoInit); ok {
			out[op.Test] = append(out[op.Test], n.ID)
		}
	}
	return out
}

func sortedProcNames(ctx *evalCtx) []string {
	names := make([]string, 0, len(ctx.an.Procs))
	for name := range ctx.an.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
