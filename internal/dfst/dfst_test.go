package dfst

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/paperex"
)

// loopGraph: 1 -> 2 -> 3 -> 2 (back), 3 -> 4.
func loopGraph() *cfg.Graph {
	g := cfg.New("loop")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.Entry, g.Exit = 1, 4
	return g
}

// irreducibleGraph is the classic two-entry loop: 1->2, 1->3, 2->3, 3->2,
// 2->4, with neither 2 nor 3 dominating the other.
func irreducibleGraph() *cfg.Graph {
	g := cfg.New("irreducible")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(2, 4, cfg.True)
	g.Entry, g.Exit = 1, 4
	return g
}

func TestDFSNumbering(t *testing.T) {
	g := loopGraph()
	r := New(g)
	for id := cfg.NodeID(1); id <= 4; id++ {
		if r.Pre[id] == 0 || r.Post[id] == 0 {
			t.Errorf("node %d not numbered: pre=%d post=%d", id, r.Pre[id], r.Post[id])
		}
	}
	if r.Pre[1] != 1 {
		t.Errorf("entry preorder = %d, want 1", r.Pre[1])
	}
	if len(r.RPO) != 4 || r.RPO[0] != 1 {
		t.Errorf("RPO = %v, want entry first and all 4 nodes", r.RPO)
	}
	// RPO property: for tree/forward edges, source precedes target.
	pos := map[cfg.NodeID]int{}
	for i, n := range r.RPO {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if k := r.Kind(e); k == Tree || k == Forward {
			if pos[e.From] >= pos[e.To] {
				t.Errorf("%v edge %v violates RPO", k, e)
			}
		}
	}
}

func TestEdgeClassification(t *testing.T) {
	g := loopGraph()
	r := New(g)
	if k := r.Kind(cfg.Edge{From: 3, To: 2, Label: cfg.True}); k != Retreating {
		t.Errorf("3->2 classified %v, want retreating", k)
	}
	if k := r.Kind(cfg.Edge{From: 1, To: 2, Label: cfg.Uncond}); k != Tree {
		t.Errorf("1->2 classified %v, want tree", k)
	}
	back := r.RetreatingEdges()
	if len(back) != 1 || back[0].From != 3 {
		t.Errorf("RetreatingEdges = %v, want [3->2]", back)
	}
}

func TestForwardAndCrossEdges(t *testing.T) {
	g := cfg.New("fc")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	// 1->2->4, 1->3, 3->4 visited after 2's subtree: cross or forward
	// depending on DFS order; with insertion order 1->2 first, 2->4 tree,
	// then 1->3 tree, 3->4 is a cross edge (4 in a finished subtree).
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(2, 4, cfg.Uncond)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(3, 4, cfg.Uncond)
	g.MustAddEdge(1, 4, cfg.Uncond) // forward edge to grandchild
	g.Entry, g.Exit = 1, 4
	r := New(g)
	if k := r.Kind(cfg.Edge{From: 3, To: 4, Label: cfg.Uncond}); k != Cross {
		t.Errorf("3->4 classified %v, want cross", k)
	}
	if k := r.Kind(cfg.Edge{From: 1, To: 4, Label: cfg.Uncond}); k != Forward {
		t.Errorf("1->4 classified %v, want forward", k)
	}
}

func TestSelfLoopIsRetreating(t *testing.T) {
	g := cfg.New("self")
	g.AddNode(cfg.Other, "a")
	g.AddNode(cfg.Other, "b")
	g.MustAddEdge(1, 1, cfg.True)
	g.MustAddEdge(1, 2, cfg.False)
	g.Entry, g.Exit = 1, 2
	r := New(g)
	if k := r.Kind(cfg.Edge{From: 1, To: 1, Label: cfg.True}); k != Retreating {
		t.Errorf("self loop classified %v, want retreating", k)
	}
}

func TestReducible(t *testing.T) {
	if !Reducible(loopGraph()) {
		t.Error("loop graph should be reducible")
	}
	if !Reducible(paperex.CFG()) {
		t.Error("paper example should be reducible")
	}
	if Reducible(irreducibleGraph()) {
		t.Error("two-entry loop should be irreducible")
	}
	// Straight line.
	g := cfg.New("line")
	g.AddNode(cfg.Other, "a")
	g.AddNode(cfg.Other, "b")
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.Entry, g.Exit = 1, 2
	if !Reducible(g) {
		t.Error("straight-line graph should be reducible")
	}
}

func TestMakeReducibleOnReducibleIsClone(t *testing.T) {
	g := loopGraph()
	out, res := MakeReducible(g)
	if res.Splits != 0 {
		t.Errorf("Splits = %d, want 0", res.Splits)
	}
	if out.NumNodes() != g.NumNodes() {
		t.Errorf("node count changed: %d -> %d", g.NumNodes(), out.NumNodes())
	}
}

func TestMakeReducibleSplitsIrreducible(t *testing.T) {
	g := irreducibleGraph()
	out, res := MakeReducible(g)
	if res.Splits == 0 {
		t.Fatal("expected at least one split")
	}
	if !Reducible(out) {
		t.Fatal("result is still irreducible")
	}
	if g.NumNodes() != 4 {
		t.Error("input graph was modified")
	}
	// Every new node maps back to an original node.
	for id := cfg.NodeID(1); id <= out.MaxID(); id++ {
		orig, ok := res.Original[id]
		if !ok || orig < 1 || orig > 4 {
			t.Errorf("node %d has bad original mapping %d (ok=%v)", id, orig, ok)
		}
	}
	// Behaviour preservation (paths): every node reachable from the entry.
	if err := out.Validate(); err != nil {
		t.Errorf("split graph invalid: %v", err)
	}
}

func TestMakeReducibleSelfLoopOnCopy(t *testing.T) {
	// Irreducible region where the split node has a self loop.
	g := cfg.New("selfsplit")
	for i := 0; i < 5; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 3, cfg.True) // self loop on 3
	g.MustAddEdge(3, 2, cfg.False)
	g.MustAddEdge(2, 4, cfg.True)
	g.MustAddEdge(4, 5, cfg.Uncond)
	g.Entry, g.Exit = 1, 5
	out, _ := MakeReducible(g)
	if !Reducible(out) {
		t.Fatal("result is still irreducible")
	}
}

// TestMakeReducibleRotatingCycle splits a cycle 2 -> 4 -> 3 -> 2 entered
// at 2 and at 3. Copying node 2 alone only moves the second entry one node
// along the cycle, forever; copying its T1/T2 region {2, 4} ends it.
func TestMakeReducibleRotatingCycle(t *testing.T) {
	g := cfg.New("rotate")
	for i := 0; i < 5; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 4, cfg.Uncond)
	g.MustAddEdge(4, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(3, 5, cfg.False)
	g.Entry, g.Exit = 1, 5
	out, res := MakeReducible(g)
	if !Reducible(out) || !limitReducible(out) {
		t.Fatalf("result is still irreducible:\n%s", out)
	}
	if res.Splits != 2 || out.NumNodes() != 7 {
		t.Errorf("Splits = %d, %d nodes; want region {2, 4} copied once:\n%s", res.Splits, out.NumNodes(), out)
	}
	if res.Original[6] != 2 || res.Original[7] != 4 {
		t.Errorf("copies map to %d, %d; want 2, 4", res.Original[6], res.Original[7])
	}
}

func TestKindPanicsOnForeignEdge(t *testing.T) {
	r := New(loopGraph())
	defer func() {
		if recover() == nil {
			t.Error("Kind on unknown edge should panic")
		}
	}()
	r.Kind(cfg.Edge{From: 9, To: 9, Label: cfg.Uncond})
}

// limitGraph is the T1/T2 interval reduction, the oracle the linear
// Reducible test is checked against: repeatedly remove self-loops (T1) and
// merge single-predecessor nodes into their predecessor (T2); g is
// reducible iff the limit graph is a single node. Only the subgraph
// reachable from g.Entry is considered. It returns the surviving node set,
// as a map from representative node ID to its predecessor-representative
// set.
func limitGraph(g *cfg.Graph) map[cfg.NodeID]map[cfg.NodeID]bool {
	reach := g.ReachableFrom(g.Entry)
	// preds[n] = set of predecessor representatives; merged nodes are
	// removed from the map entirely.
	preds := make(map[cfg.NodeID]map[cfg.NodeID]bool)
	succs := make(map[cfg.NodeID]map[cfg.NodeID]bool)
	for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
		if !reach[id] {
			continue
		}
		preds[id] = make(map[cfg.NodeID]bool)
		succs[id] = make(map[cfg.NodeID]bool)
	}
	for _, e := range g.Edges() {
		if !reach[e.From] || !reach[e.To] {
			continue
		}
		if e.From != e.To { // T1 applied up front: drop self loops
			preds[e.To][e.From] = true
			succs[e.From][e.To] = true
		}
	}
	changed := true
	for changed {
		changed = false
		// Deterministic scan order.
		ids := make([]cfg.NodeID, 0, len(preds))
		for id := range preds {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, n := range ids {
			ps, ok := preds[n]
			if !ok || n == g.Entry {
				continue
			}
			if len(ps) != 1 {
				continue
			}
			// T2: merge n into its unique predecessor p.
			var p cfg.NodeID
			for q := range ps {
				p = q
			}
			for s := range succs[n] {
				delete(preds[s], n)
				if s != p { // self-loop after merge: T1 removes it
					preds[s][p] = true
					succs[p][s] = true
				}
			}
			delete(succs[p], n)
			delete(preds, n)
			delete(succs, n)
			changed = true
		}
	}
	return preds
}

// oracleVictim is the node the limit graph says to split: the smallest
// non-entry survivor with more than one predecessor.
func oracleVictim(g *cfg.Graph) cfg.NodeID {
	limit := limitGraph(g)
	victim := cfg.None
	for id, preds := range limit {
		if id != g.Entry && len(preds) > 1 && (victim == cfg.None || id < victim) {
			victim = id
		}
	}
	return victim
}

// limitReducible is the oracle's verdict.
func limitReducible(g *cfg.Graph) bool { return len(limitGraph(g)) == 1 }

// randomGraph builds a graph on n nodes, entry 1 and exit n, every node
// reachable. With reducible set, the extra edges either go forward in ID
// order or back to a dominator of their source, so the graph is reducible
// by construction; otherwise they are arbitrary. Unless entryPreds is set,
// no edge enters the entry node.
func randomGraph(rng *rand.Rand, n int, reducible, entryPreds bool, maxExtra int) *cfg.Graph {
	g := cfg.New("rand")
	for i := 0; i < n; i++ {
		g.AddNode(cfg.Other, "n")
	}
	labels := []cfg.Label{cfg.True, cfg.False, cfg.Uncond}
	add := func(from, to cfg.NodeID) {
		_ = g.AddEdge(from, to, labels[rng.IntN(len(labels))])
	}
	// A random spanning tree in ID order keeps every node reachable.
	for id := 2; id <= n; id++ {
		add(cfg.NodeID(1+rng.IntN(id-1)), cfg.NodeID(id))
	}
	extra := rng.IntN(maxExtra + 1)
	for i := 0; i < extra; i++ {
		a, b := cfg.NodeID(1+rng.IntN(n)), cfg.NodeID(1+rng.IntN(n))
		if (!reducible || a < b) && (b != 1 || entryPreds) {
			add(a, b)
		}
	}
	g.Entry, g.Exit = 1, cfg.NodeID(n)
	if reducible {
		// Back edges to dominators leave the dominator tree unchanged.
		doms := dom.Dominators(g)
		for i := rng.IntN(n); i > 0; i-- {
			a := cfg.NodeID(1 + rng.IntN(n))
			for d := a; d != cfg.None; d = doms.Parent(d) {
				if rng.IntN(3) == 0 {
					add(a, d)
					break
				}
			}
		}
	}
	return g
}

// TestReducibleMatchesLimitGraph checks the linear dominator test against
// T1/T2 reduction on random reducible and arbitrary graphs.
func TestReducibleMatchesLimitGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var seen [2]int
	for i := 0; i < 3000; i++ {
		n := 1 + rng.IntN(10)
		g := randomGraph(rng, n, i%2 == 0, true, 2*n)
		want := limitReducible(g)
		if got := Reducible(g); got != want {
			t.Fatalf("graph %d: Reducible = %v, limit graph says %v:\n%s", i, got, want, g)
		}
		if i%2 == 0 && !want {
			t.Fatalf("graph %d: generator built an irreducible graph:\n%s", i, g)
		}
		if want {
			seen[0]++
		} else {
			seen[1]++
		}
	}
	if seen[0] < 1000 || seen[1] < 300 {
		t.Fatalf("generator coverage too thin: %d reducible, %d irreducible", seen[0], seen[1])
	}
}

// TestMakeReducibleOutputsAreReducible splits random irreducible graphs
// and checks every output under both reducibility tests. Each split
// victim must be the one the limit graph picks. The graphs are sparse (at
// most two edges beyond a spanning tree), like the GOTO regions lowering
// meets: node splitting is exponential in the worst case, and dense
// irreducible graphs reach it.
func TestMakeReducibleOutputsAreReducible(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	split := 0
	for i := 0; i < 20000; i++ {
		n := 1 + rng.IntN(12)
		g := randomGraph(rng, n, false, true, 2)
		if limitReducible(g) {
			continue
		}
		split++
		if got, want := splitVictim(g)[0], oracleVictim(g); got != want {
			t.Fatalf("graph %d: splitVictim = %d, limit graph picks %d:\n%s", i, got, want, g)
		}
		out, res := MakeReducible(g)
		if !Reducible(out) || !limitReducible(out) {
			t.Fatalf("graph %d: MakeReducible output is irreducible:\n%s", i, out)
		}
		if res.Splits == 0 {
			t.Fatalf("graph %d: irreducible input needed no split", i)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("graph %d: split graph invalid: %v", i, err)
		}
	}
	if split < 100 {
		t.Fatalf("generator coverage too thin: %d irreducible graphs", split)
	}
}
