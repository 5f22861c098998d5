package dataflow

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/progen"
	"repro/internal/wire"
)

// sameAsReference requires Analyze to encode p's facts byte for byte as the
// map-based reference implementation does, and Decode to read them back to
// the same bytes.
func sameAsReference(t *testing.T, name string, p *lower.Proc) {
	t.Helper()
	var got, want wire.Writer
	f := Analyze(p)
	f.Encode(&got)
	refAnalyze(p).encode(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s/%s: encoded facts differ from the reference (%d vs %d bytes)",
			name, p.G.Name, len(got.Bytes()), len(want.Bytes()))
		return
	}
	r := wire.NewReader(got.Bytes())
	back := Decode(r, p)
	if err := r.Err(); err != nil {
		t.Fatalf("%s/%s: decode: %v", name, p.G.Name, err)
	}
	var again wire.Writer
	back.Encode(&again)
	if !bytes.Equal(again.Bytes(), got.Bytes()) {
		t.Errorf("%s/%s: decode and re-encode changed the bytes", name, p.G.Name)
	}
}

// sameAsReferenceSource lowers src and checks every procedure.
func sameAsReferenceSource(t *testing.T, name, src string) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	procs := make([]string, 0, len(res.Procs))
	for pn := range res.Procs {
		procs = append(procs, pn)
	}
	sort.Strings(procs)
	for _, pn := range procs {
		sameAsReference(t, name, res.Procs[pn])
	}
}

// TestDifferentialAgainstReference holds the sorted-slice SCCP and the
// bitset liveness and definite-assignment solvers to the reference
// implementation in reference_test.go on the digest corpus, on further
// generated programs of every family, and on hand-built graphs.
func TestDifferentialAgainstReference(t *testing.T) {
	t.Run("digest-corpus", func(t *testing.T) {
		srcs := corpus.Digest(t)
		names := make([]string, 0, len(srcs))
		for name := range srcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sameAsReferenceSource(t, name, srcs[name])
		}
	})
	t.Run("progen", func(t *testing.T) {
		sizes := []int{3, 5, 12, 24, 48, 96, 160, 240}
		families := []progen.Opts{{}, {ConstFacts: true}, {Stops: true}}
		n := 0
		for seed := 1000; n < 216; seed++ {
			size := sizes[seed%len(sizes)]
			if size == 240 && seed%3 != 0 {
				continue // keep the largest size to a third of its turns
			}
			o := families[seed%len(families)]
			src := progen.GenerateOpts(uint64(seed), size, 2+seed%3, o)
			sameAsReferenceSource(t, fmt.Sprintf("progen/%d/%d/%+v", seed, size, o), src)
			n++
		}
	})
	t.Run("nil-unit", func(t *testing.T) {
		sameAsReference(t, "paperex", &lower.Proc{G: paperex.CFG()})
		loops := &lower.Proc{G: nilUnitLoops(), Stmt: map[cfg.NodeID]lang.Stmt{}}
		sameAsReference(t, "do-loops", loops)
		if f := Analyze(loops); len(f.ConstTrips) != 2 || len(f.ConstBranch) == 0 {
			t.Errorf("do-loops must fold both trips and decide a branch, got %v %v", f.ConstTrips, f.ConstBranch)
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		src := progen.GenerateOpts(7, 32, 3, progen.Opts{ConstFacts: true})
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lower.Lower(prog)
		if err != nil {
			t.Fatal(err)
		}
		p := withUnreachable(res.Main)
		sameAsReference(t, "unreachable", p)
		if st := Analyze(p).Stats(); st.ReachedNodes >= res.Main.G.NumNodes() {
			t.Errorf("the orphan copies must stay unreached, got %+v", st)
		}
	})
}

// nilUnitLoops builds, without a symbol table, two nested DO loops with
// literal bounds (so their trip registers fold) and an arithmetic IF on a
// literal, plus a DO node nothing reaches.
func nilUnitLoops() *cfg.Graph {
	g := cfg.New("LOOPS")
	add := func(op lower.Op) cfg.NodeID {
		n := g.AddNode(cfg.Other, "")
		n.Payload = op
		return n.ID
	}
	outer := &lang.DoLoop{Var: "I", Lo: &lang.IntLit{Val: 1}, Hi: &lang.IntLit{Val: 3}}
	inner := &lang.DoLoop{Var: "J", Lo: &lang.IntLit{Val: 4}, Hi: &lang.IntLit{Val: 1},
		Step: &lang.IntLit{Val: -1}}
	oi := add(lower.OpDoInit{L: outer})
	ot := add(lower.OpDoTest{L: outer})
	ii := add(lower.OpDoInit{L: inner})
	it := add(lower.OpDoTest{L: inner})
	ai := add(lower.OpArithIf{E: &lang.IntLit{Val: -2}})
	in := add(lower.OpDoIncr{L: inner, Test: it})
	on := add(lower.OpDoIncr{L: outer, Test: ot})
	end := add(lower.OpEnd{})
	orphan := add(lower.OpDoIncr{L: outer, Test: ot})
	g.Node(oi).Payload = lower.OpDoInit{L: outer, Test: ot}
	g.Node(ot).Payload = lower.OpDoTest{L: outer, Key: ot}
	g.Node(ii).Payload = lower.OpDoInit{L: inner, Test: it}
	g.Node(it).Payload = lower.OpDoTest{L: inner, Key: it}
	g.MustAddEdge(oi, ot, cfg.Uncond)
	g.MustAddEdge(ot, ii, cfg.True)
	g.MustAddEdge(ot, end, cfg.False)
	g.MustAddEdge(ii, it, cfg.Uncond)
	g.MustAddEdge(it, ai, cfg.True)
	g.MustAddEdge(it, on, cfg.False)
	g.MustAddEdge(ai, in, lower.LabelNeg)
	g.MustAddEdge(ai, in, lower.LabelZero)
	g.MustAddEdge(ai, on, lower.LabelPos)
	g.MustAddEdge(in, it, cfg.Uncond)
	g.MustAddEdge(on, ot, cfg.Uncond)
	g.MustAddEdge(orphan, ot, cfg.Uncond)
	g.Entry, g.Exit = oi, end
	return g
}

// withUnreachable returns a copy of p whose graph gains nodes nothing
// reaches: a copy of every assignment and DO op of p (sharing its
// statement), each edged into the nodes its original leads to and chained
// to the previous copy.
func withUnreachable(p *lower.Proc) *lower.Proc {
	g := p.G.Clone()
	stmt := make(map[cfg.NodeID]lang.Stmt, len(p.Stmt))
	for id, s := range p.Stmt {
		stmt[id] = s
	}
	var prev cfg.NodeID
	for id := cfg.NodeID(1); id <= p.G.MaxID(); id++ {
		switch p.G.Node(id).Payload.(type) {
		case lower.OpAssign, lower.OpDoInit, lower.OpDoIncr:
		default:
			continue
		}
		n := g.AddNode(cfg.Other, "orphan")
		n.Payload = p.G.Node(id).Payload
		stmt[n.ID] = p.Stmt[id]
		for _, e := range p.G.OutEdges(id) {
			g.MustAddEdge(n.ID, e.To, e.Label)
		}
		if prev != cfg.None {
			g.MustAddEdge(prev, n.ID, "X")
		}
		prev = n.ID
	}
	return &lower.Proc{Unit: p.Unit, G: g, Stmt: stmt}
}
