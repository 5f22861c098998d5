package cfg

import (
	"strings"
	"testing"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	a := g.AddNode(Other, "a")
	b := g.AddNode(Other, "b")
	c := g.AddNode(Other, "c")
	d := g.AddNode(Other, "d")
	g.MustAddEdge(a.ID, b.ID, True)
	g.MustAddEdge(a.ID, c.ID, False)
	g.MustAddEdge(b.ID, d.ID, Uncond)
	g.MustAddEdge(c.ID, d.ID, Uncond)
	g.Entry, g.Exit = a.ID, d.ID
	return g
}

func TestAddNodeAssignsDenseIDsFromOne(t *testing.T) {
	g := New("t")
	for want := NodeID(1); want <= 5; want++ {
		n := g.AddNode(Other, "x")
		if n.ID != want {
			t.Fatalf("node ID = %d, want %d", n.ID, want)
		}
	}
	if g.NumNodes() != 5 || g.MaxID() != 5 {
		t.Fatalf("NumNodes=%d MaxID=%d, want 5, 5", g.NumNodes(), g.MaxID())
	}
}

func TestNodeLookup(t *testing.T) {
	g := diamond(t)
	if g.Node(None) != nil {
		t.Error("Node(None) should be nil")
	}
	if g.Node(99) != nil {
		t.Error("Node(out of range) should be nil")
	}
	if n := g.Node(2); n == nil || n.Name() != "b" {
		t.Errorf("Node(2) = %+v, want node b", n)
	}
}

func TestAddEdgeRejectsDuplicatesAndDangling(t *testing.T) {
	g := diamond(t)
	if err := g.AddEdge(1, 2, True); err == nil {
		t.Error("duplicate (from,to,label) edge should be rejected")
	}
	// Same pair, different label: multigraph allows it.
	if err := g.AddEdge(1, 2, Uncond); err != nil {
		t.Errorf("distinct label between same nodes should be allowed: %v", err)
	}
	if err := g.AddEdge(1, 99, Uncond); err == nil {
		t.Error("edge to nonexistent node should be rejected")
	}
	if err := g.AddEdge(99, 1, Uncond); err == nil {
		t.Error("edge from nonexistent node should be rejected")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := diamond(t)
	if !g.RemoveEdge(1, 2, True) {
		t.Fatal("RemoveEdge existing edge returned false")
	}
	if g.RemoveEdge(1, 2, True) {
		t.Fatal("RemoveEdge absent edge returned true")
	}
	for _, e := range g.OutEdges(1) {
		if e.To == 2 && e.Label == True {
			t.Fatal("edge still present in out list")
		}
	}
	for _, e := range g.InEdges(2) {
		if e.From == 1 && e.Label == True {
			t.Fatal("edge still present in in list")
		}
	}
}

func TestSuccsPredsDistinct(t *testing.T) {
	g := New("multi")
	a := g.AddNode(Other, "a")
	b := g.AddNode(Other, "b")
	g.MustAddEdge(a.ID, b.ID, True)
	g.MustAddEdge(a.ID, b.ID, False)
	if got := g.Succs(a.ID); len(got) != 1 || got[0] != b.ID {
		t.Errorf("Succs = %v, want [2]", got)
	}
	if got := g.Preds(b.ID); len(got) != 1 || got[0] != a.ID {
		t.Errorf("Preds = %v, want [1]", got)
	}
	if got := g.Labels(a.ID); len(got) != 2 {
		t.Errorf("Labels = %v, want two labels", got)
	}
}

func TestValidate(t *testing.T) {
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	// Unreachable node.
	g.AddNode(Other, "island")
	if err := g.Validate(); err == nil {
		t.Error("graph with unreachable node accepted")
	}
	// Missing entry.
	g2 := New("empty")
	if err := g2.Validate(); err == nil {
		t.Error("graph without entry accepted")
	}
}

func TestReachableFrom(t *testing.T) {
	g := diamond(t)
	reach := g.ReachableFrom(2)
	want := map[NodeID]bool{2: true, 4: true}
	for id := NodeID(1); id <= g.MaxID(); id++ {
		if reach[id] != want[id] {
			t.Errorf("reach[%d] = %v, want %v", id, reach[id], want[id])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.MustAddEdge(4, 1, Uncond)
	c.Node(1).Payload = "changed"
	if len(g.OutEdges(4)) != 0 {
		t.Error("clone edge mutation leaked into original")
	}
	if g.Node(1).Payload != nil {
		t.Error("clone node mutation leaked into original")
	}
	if c.Entry != g.Entry || c.Exit != g.Exit {
		t.Error("clone lost entry/exit")
	}
}

func TestPseudoLabels(t *testing.T) {
	if !PseudoStartStop.IsPseudo() || !PseudoLoop.IsPseudo() {
		t.Error("Z labels must be pseudo")
	}
	for _, l := range []Label{True, False, Uncond} {
		if l.IsPseudo() {
			t.Errorf("%s must not be pseudo", l)
		}
	}
	e := Edge{From: 1, To: 2, Label: PseudoLoop}
	if !e.Pseudo() {
		t.Error("edge with Z2 label must be pseudo")
	}
}

func TestStringAndDOTContainStructure(t *testing.T) {
	g := diamond(t)
	s := g.String()
	for _, want := range []string{"diamond", "entry=1", "exit=4", "2:T", "3:F"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	d := g.DOT()
	for _, want := range []string{"digraph", "n1 -> n2", "n3 -> n4"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT() missing %q:\n%s", want, d)
		}
	}
}

func TestNodeTypeString(t *testing.T) {
	cases := map[NodeType]string{
		Other: "OTHER", Start: "START", Stop: "STOP",
		Header: "HEADER", Preheader: "PREHEADER", Postexit: "POSTEXIT",
	}
	for ty, want := range cases {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(ty), ty.String(), want)
		}
	}
	if got := NodeType(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown NodeType should print its value, got %q", got)
	}
}

func TestEdgesOrderedBySource(t *testing.T) {
	g := diamond(t)
	prev := NodeID(0)
	for _, e := range g.Edges() {
		if e.From < prev {
			t.Fatalf("Edges() not ordered by source: %v", g.Edges())
		}
		prev = e.From
	}
	if len(g.Edges()) != 4 {
		t.Fatalf("len(Edges) = %d, want 4", len(g.Edges()))
	}
}
