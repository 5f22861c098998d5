package interval

import (
	"errors"
	"testing"

	"repro/internal/cfg"
	"repro/internal/paperex"
	"repro/internal/wire"
)

// nested builds: 1 -> 2(outer hdr) -> 3(inner hdr) -> 4 -> 3, 4 -> 5 -> 2,
// 5 -> 6(exit).
func nested() *cfg.Graph {
	g := cfg.New("nested")
	for i := 0; i < 6; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 4, cfg.Uncond)
	g.MustAddEdge(4, 3, cfg.True)
	g.MustAddEdge(4, 5, cfg.False)
	g.MustAddEdge(5, 2, cfg.True)
	g.MustAddEdge(5, 6, cfg.False)
	g.Entry, g.Exit = 1, 6
	return g
}

func TestPaperExampleSingleLoop(t *testing.T) {
	in, err := Analyze(paperex.CFG())
	if err != nil {
		t.Fatal(err)
	}
	hs := in.Headers()
	if len(hs) != 1 || hs[0] != paperex.IfM {
		t.Fatalf("Headers = %v, want [%d]", hs, paperex.IfM)
	}
	// Body = {1,2,3,4,5}; CONTINUE (6) outside.
	for n := cfg.NodeID(1); n <= 5; n++ {
		if in.HDR(n) != paperex.IfM {
			t.Errorf("HDR(%d) = %d, want %d", n, in.HDR(n), paperex.IfM)
		}
	}
	if in.HDR(paperex.Cont20) != cfg.None {
		t.Errorf("HDR(CONTINUE) = %d, want None", in.HDR(paperex.Cont20))
	}
	if in.Parent(paperex.IfM) != cfg.None {
		t.Errorf("Parent(header) = %d, want None (outermost)", in.Parent(paperex.IfM))
	}
	if !in.IsHeader(paperex.IfM) || in.IsHeader(paperex.Call) {
		t.Error("IsHeader wrong")
	}
}

func TestNestedLoops(t *testing.T) {
	in, err := Analyze(nested())
	if err != nil {
		t.Fatal(err)
	}
	hs := in.Headers()
	if len(hs) != 2 || hs[0] != 2 || hs[1] != 3 {
		t.Fatalf("Headers = %v, want [2 3]", hs)
	}
	if in.Parent(3) != 2 {
		t.Errorf("Parent(3) = %d, want 2", in.Parent(3))
	}
	if in.Parent(2) != cfg.None {
		t.Errorf("Parent(2) = %d, want None", in.Parent(2))
	}
	if in.Depth(2) != 1 || in.Depth(3) != 2 {
		t.Errorf("Depth(2)=%d Depth(3)=%d, want 1, 2", in.Depth(2), in.Depth(3))
	}
	// HDR: 3 and 4 innermost in loop 3; 2 and 5 in loop 2; 1 and 6 outside.
	cases := map[cfg.NodeID]cfg.NodeID{1: cfg.None, 2: 2, 3: 3, 4: 3, 5: 2, 6: cfg.None}
	for n, want := range cases {
		if in.HDR(n) != want {
			t.Errorf("HDR(%d) = %d, want %d", n, in.HDR(n), want)
		}
	}
	// Body containment.
	if !in.Contains(2, 4) || !in.Contains(3, 4) || in.Contains(3, 5) {
		t.Error("Contains wrong for nested bodies")
	}
	if !in.Contains(cfg.None, 6) {
		t.Error("outermost interval must contain everything")
	}
}

func TestLCA(t *testing.T) {
	in, err := Analyze(nested())
	if err != nil {
		t.Fatal(err)
	}
	if got := in.LCA(3, 3); got != 3 {
		t.Errorf("LCA(3,3) = %d, want 3", got)
	}
	if got := in.LCA(3, 2); got != 2 {
		t.Errorf("LCA(3,2) = %d, want 2", got)
	}
	if got := in.LCA(2, 3); got != 2 {
		t.Errorf("LCA(2,3) = %d, want 2", got)
	}
	if got := in.LCA(cfg.None, 3); got != cfg.None {
		t.Errorf("LCA(None,3) = %d, want None", got)
	}
}

func TestLCASiblingLoops(t *testing.T) {
	// Two sibling loops: 1 -> 2 -> 2 (self), 2 -> 3 -> 3 (self), 3 -> 4.
	g := cfg.New("siblings")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 2, cfg.True)
	g.MustAddEdge(2, 3, cfg.False)
	g.MustAddEdge(3, 3, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.Entry, g.Exit = 1, 4
	in, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.LCA(2, 3); got != cfg.None {
		t.Errorf("LCA of sibling loop headers = %d, want None", got)
	}
	if in.Depth(2) != 1 || in.Depth(3) != 1 {
		t.Error("sibling loops must both have depth 1")
	}
}

func TestBackEdgesAndExits(t *testing.T) {
	in, err := Analyze(nested())
	if err != nil {
		t.Fatal(err)
	}
	be := in.BackEdges(3)
	if len(be) != 1 || be[0].From != 4 {
		t.Errorf("BackEdges(3) = %v, want [4->3]", be)
	}
	ex := in.LoopExits(3)
	if len(ex) != 1 || ex[0].From != 4 || ex[0].To != 5 {
		t.Errorf("LoopExits(3) = %v, want [4->5]", ex)
	}
	ex2 := in.LoopExits(2)
	if len(ex2) != 1 || ex2[0].From != 5 || ex2[0].To != 6 {
		t.Errorf("LoopExits(2) = %v, want [5->6]", ex2)
	}
}

func TestIrreducibleRejected(t *testing.T) {
	g := cfg.New("irr")
	for i := 0; i < 4; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.True)
	g.MustAddEdge(1, 3, cfg.False)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(2, 4, cfg.True)
	g.Entry, g.Exit = 1, 4
	_, err := Analyze(g)
	var irr *ErrIrreducible
	if !errors.As(err, &irr) {
		t.Fatalf("Analyze = %v, want ErrIrreducible", err)
	}
}

func TestNoEntryRejected(t *testing.T) {
	g := cfg.New("empty")
	if _, err := Analyze(g); err == nil {
		t.Fatal("Analyze on graph without entry must fail")
	}
}

func TestMultipleBackEdgesOneHeader(t *testing.T) {
	// 1 -> 2(hdr) -> 3 -> 2 and 3 -> 4 -> 2, 3 -> 5(exit).
	g := cfg.New("multi-latch")
	for i := 0; i < 5; i++ {
		g.AddNode(cfg.Other, "n")
	}
	g.MustAddEdge(1, 2, cfg.Uncond)
	g.MustAddEdge(2, 3, cfg.Uncond)
	g.MustAddEdge(3, 2, cfg.True)
	g.MustAddEdge(3, 4, cfg.False)
	g.MustAddEdge(4, 2, cfg.True)
	g.MustAddEdge(4, 5, cfg.False)
	g.Entry, g.Exit = 1, 5
	in, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Headers()) != 1 || in.Headers()[0] != 2 {
		t.Fatalf("Headers = %v, want [2]", in.Headers())
	}
	if len(in.BackEdges(2)) != 2 {
		t.Errorf("BackEdges(2) = %v, want two edges", in.BackEdges(2))
	}
	for _, n := range []cfg.NodeID{2, 3, 4} {
		if in.HDR(n) != 2 {
			t.Errorf("HDR(%d) = %d, want 2", n, in.HDR(n))
		}
	}
}

func TestHDROutOfRange(t *testing.T) {
	in, err := Analyze(paperex.CFG())
	if err != nil {
		t.Fatal(err)
	}
	if in.HDR(cfg.None) != cfg.None || in.HDR(99) != cfg.None {
		t.Error("HDR out of range must be None")
	}
}

// TestDenseAccessorsZeroValues queries every per-node and per-header
// accessor with cfg.None, negative IDs, non-headers and IDs above MaxID,
// on a computed and on a decoded Info: each must return its zero value
// (or true for Contains(cfg.None, n)) instead of indexing out of range.
func TestDenseAccessorsZeroValues(t *testing.T) {
	g := nested()
	computed, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	computed.Encode(&w)
	r := wire.NewReader(w.Bytes())
	decoded := Decode(r, g)
	if err := r.Err(); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	odd := []cfg.NodeID{cfg.None, -1, 1, 4, 6, g.MaxID() + 1, g.MaxID() + 100}
	for name, in := range map[string]*Info{"computed": computed, "decoded": decoded} {
		for _, h := range odd {
			if in.IsHeader(h) {
				t.Errorf("%s: IsHeader(%d) = true", name, h)
			}
			if p := in.Parent(h); p != cfg.None {
				t.Errorf("%s: Parent(%d) = %d, want None", name, h, p)
			}
			if d := in.Depth(h); d != 0 {
				t.Errorf("%s: Depth(%d) = %d, want 0", name, h, d)
			}
			if be := in.BackEdges(h); be != nil {
				t.Errorf("%s: BackEdges(%d) = %v, want nil", name, h, be)
			}
			if b := in.Body(h); b != nil {
				t.Errorf("%s: Body(%d) = %v, want nil", name, h, b)
			}
			if ex := in.LoopExits(h); ex != nil {
				t.Errorf("%s: LoopExits(%d) = %v, want nil", name, h, ex)
			}
			if h != cfg.None && in.Contains(h, 4) {
				t.Errorf("%s: Contains(%d, 4) = true for a non-header", name, h)
			}
			if lca := in.LCA(h, 3); lca != cfg.None {
				t.Errorf("%s: LCA(%d, 3) = %d, want None", name, h, lca)
			}
			if !in.Contains(cfg.None, h) {
				t.Errorf("%s: Contains(None, %d) = false", name, h)
			}
			if h != 1 && h != 4 && h != 6 {
				if in.HDR(h) != cfg.None {
					t.Errorf("%s: HDR(%d) = %d, want None", name, h, in.HDR(h))
				}
				for _, hd := range in.Headers() {
					if in.Contains(hd, h) {
						t.Errorf("%s: Contains(%d, %d) = true for an out-of-range node", name, hd, h)
					}
				}
			}
		}
		if !in.Contains(2, 4) || !in.Contains(3, 4) || in.Contains(3, 5) || in.Depth(3) != 2 || in.Parent(3) != 2 {
			t.Errorf("%s: in-range answers wrong", name)
		}
	}
}

// TestDecodeRejectsInconsistentTables corrupts one field of an encoded
// structure at a time; Decode must fail through the reader, not panic or
// accept tables that are not an interval structure.
func TestDecodeRejectsInconsistentTables(t *testing.T) {
	g := nested()
	in, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(hdr []cfg.NodeID, parent map[cfg.NodeID]cfg.NodeID, depth map[cfg.NodeID]int) []byte {
		var w wire.Writer
		w.Uvarint(uint64(len(hdr)))
		for _, h := range hdr {
			w.Varint(int64(h))
		}
		w.Uvarint(uint64(len(in.Headers())))
		for _, h := range in.Headers() {
			w.Varint(int64(h))
			w.Varint(int64(parent[h]))
			w.Int(depth[h])
			body := in.Body(h)
			w.Uvarint(uint64(len(body)))
			for _, n := range body {
				w.Varint(int64(n))
			}
			w.Uvarint(uint64(len(in.BackEdges(h))))
			for _, e := range in.BackEdges(h) {
				cfg.EncodeEdge(&w, e)
			}
		}
		return w.Bytes()
	}
	hdr := []cfg.NodeID{0, 0, 2, 3, 3, 2, 0}
	parent := map[cfg.NodeID]cfg.NodeID{2: 0, 3: 2}
	depth := map[cfg.NodeID]int{2: 1, 3: 2}
	var w wire.Writer
	in.Encode(&w)
	if got := encode(hdr, parent, depth); string(got) != string(w.Bytes()) {
		t.Fatal("test encoder disagrees with Encode")
	}
	clone := func(m map[cfg.NodeID]cfg.NodeID) map[cfg.NodeID]cfg.NodeID {
		out := map[cfg.NodeID]cfg.NodeID{}
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	bad := map[string][]byte{}
	h := append([]cfg.NodeID(nil), hdr...)
	h[4] = 5 // HDR is not a header
	bad["hdr-not-header"] = encode(h, parent, depth)
	h = append([]cfg.NodeID(nil), hdr...)
	h[3] = 2 // header 3 outside its own interval
	bad["header-outside-own"] = encode(h, parent, depth)
	p := clone(parent)
	p[2] = 3 // HDR_PARENT cycle 2 <-> 3
	bad["parent-cycle"] = encode(hdr, p, depth)
	p = clone(parent)
	p[3] = 4 // parent is not a header
	bad["parent-not-header"] = encode(hdr, p, depth)
	bad["depth"] = encode(hdr, parent, map[cfg.NodeID]int{2: 1, 3: 5})
	h = append([]cfg.NodeID(nil), hdr...)
	h[0] = 2
	bad["node-zero"] = encode(h, parent, depth)
	for name, b := range bad {
		r := wire.NewReader(b)
		Decode(r, g)
		if r.Err() == nil {
			t.Errorf("%s: Decode accepted an inconsistent structure", name)
		}
	}
}
