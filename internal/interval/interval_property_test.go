package interval

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/dfst"
	"repro/internal/dom"
)

// structuredRandom builds a random reducible CFG out of nested gadgets
// (sequence, diamond, while), mirroring what the frontend can produce.
func structuredRandom(seed uint64, gadgets int) *cfg.Graph {
	g := cfg.New("rand")
	rng := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 11) % uint64(n))
	}
	cur := g.AddNode(cfg.Other, "entry").ID
	var emit func(depth int)
	emit = func(depth int) {
		switch pick := next(4); {
		case pick == 0 || depth > 3:
			n := g.AddNode(cfg.Other, "s").ID
			g.MustAddEdge(cur, n, cfg.Uncond)
			cur = n
		case pick == 1:
			c := g.AddNode(cfg.Other, "if").ID
			g.MustAddEdge(cur, c, cfg.Uncond)
			j := g.AddNode(cfg.Other, "join").ID
			cur = c
			aStart := g.AddNode(cfg.Other, "a").ID
			g.MustAddEdge(c, aStart, cfg.True)
			cur = aStart
			emit(depth + 1)
			g.MustAddEdge(cur, j, cfg.Uncond)
			bStart := g.AddNode(cfg.Other, "b").ID
			g.MustAddEdge(c, bStart, cfg.False)
			cur = bStart
			emit(depth + 1)
			g.MustAddEdge(cur, j, cfg.Uncond)
			cur = j
		default:
			h := g.AddNode(cfg.Other, "hdr").ID
			g.MustAddEdge(cur, h, cfg.Uncond)
			body := g.AddNode(cfg.Other, "body").ID
			g.MustAddEdge(h, body, cfg.True)
			cur = body
			emit(depth + 1)
			g.MustAddEdge(cur, h, cfg.Uncond)
			exit := g.AddNode(cfg.Other, "exit").ID
			g.MustAddEdge(h, exit, cfg.False)
			cur = exit
		}
	}
	for i := 0; i < gadgets; i++ {
		emit(0)
	}
	end := g.AddNode(cfg.Other, "end").ID
	g.MustAddEdge(cur, end, cfg.Uncond)
	g.Entry, g.Exit = 1, end
	return g
}

// bruteNaturalLoop computes the natural loop of header h by definition.
func bruteNaturalLoop(g *cfg.Graph, h cfg.NodeID, doms *dom.Tree) map[cfg.NodeID]bool {
	body := map[cfg.NodeID]bool{h: true}
	var stack []cfg.NodeID
	for _, e := range g.Edges() {
		if e.To == h && doms.Dominates(h, e.From) && !body[e.From] {
			body[e.From] = true
			stack = append(stack, e.From)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Preds(n) {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	return body
}

func TestLoopBodiesMatchBruteForce(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		g := structuredRandom(seed, 1+int(sizeRaw%6))
		if !dfst.Reducible(g) {
			t.Logf("seed %d: generator produced irreducible graph", seed)
			return false
		}
		in, err := Analyze(g)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		doms := dom.Dominators(g)
		for _, h := range in.Headers() {
			brute := bruteNaturalLoop(g, h, doms)
			body := in.Body(h)
			if len(brute) != len(body) {
				t.Logf("seed %d header %d: body size %d vs brute %d", seed, h, len(body), len(brute))
				return false
			}
			for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
				if in.Contains(h, id) != brute[id] {
					t.Logf("seed %d header %d: Contains(%d) = %v, brute %v", seed, h, id, in.Contains(h, id), brute[id])
					return false
				}
			}
			for n := range brute {
				if !slices.Contains(body, n) {
					t.Logf("seed %d header %d: missing %d", seed, h, n)
					return false
				}
				// Headers dominate their loop bodies.
				if !doms.Dominates(h, n) {
					t.Logf("seed %d: header %d does not dominate body node %d", seed, h, n)
					return false
				}
			}
		}
		// HDR is consistent with bodies: HDR(n) is a header whose body
		// contains n, and no smaller such body exists.
		for id := cfg.NodeID(1); id <= g.MaxID(); id++ {
			h := in.HDR(id)
			if h == cfg.None {
				for _, h2 := range in.Headers() {
					if slices.Contains(in.Body(h2), id) {
						t.Logf("seed %d: HDR(%d) = None but body(%d) contains it", seed, id, h2)
						return false
					}
				}
				continue
			}
			if !slices.Contains(in.Body(h), id) {
				t.Logf("seed %d: HDR(%d) = %d but body does not contain it", seed, id, h)
				return false
			}
			for _, h2 := range in.Headers() {
				if h2 != h && slices.Contains(in.Body(h2), id) && len(in.Body(h2)) < len(in.Body(h)) {
					t.Logf("seed %d: HDR(%d) = %d not innermost (body(%d) smaller)", seed, id, h, h2)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
