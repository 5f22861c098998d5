package interval

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/lower"
)

// mainCFG lowers a source program and returns the main program's CFG, so the
// edge cases below exercise the interval analysis on graphs the real
// front end produces rather than hand-built ones.
func mainCFG(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return res.Main.G
}

const zeroTripSrc = `      PROGRAM ZTRIP
      INTEGER I, K
      K = 0
      DO 10 I = 5, 1
         K = K + 1
   10 CONTINUE
      PRINT *, K
      END
`

const selfLoopSrc = `      PROGRAM SELFL
   10 IF (RAND() .LT. 0.5) GOTO 10
      PRINT *, 1
      END
`

const twoExitSrc = `      PROGRAM TWOEX
      INTEGER K
      K = 0
   10 K = K + 1
      IF (RAND() .LT. 0.2) GOTO 30
      IF (RAND() .LT. 0.3) GOTO 30
      IF (K .LT. 8) GOTO 10
   30 CONTINUE
      PRINT *, K
      END
`

// TestLoweredEdgeCases drives the analysis over lowered source programs at
// the edges of the loop model: a DO whose bounds make it zero-trip at run
// time (structurally still a loop), a single-node self-loop interval, and a
// loop leaving through several exit edges that share one target.
func TestLoweredEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// minBody is a lower bound on the header's body size (lowering
		// details may add bookkeeping nodes, so exact counts are brittle).
		minBody   int
		wantBack  int
		wantExits int
		// sharedExitTarget requires every loop exit edge to target the same
		// node.
		sharedExitTarget bool
		// selfLoop requires the interval body to be exactly the header.
		selfLoop bool
	}{
		{
			// DO 10 I = 5, 1 never runs its body, but the interval structure
			// is decided statically: the do-test still heads a loop with a
			// back edge from the increment.
			name:      "zero-trip DO",
			src:       zeroTripSrc,
			minBody:   3, // do-test, body assignment, do-incr at least
			wantBack:  1,
			wantExits: 1,
		},
		{
			name:      "single-node self-loop",
			src:       selfLoopSrc,
			minBody:   1,
			wantBack:  1,
			wantExits: 1,
			selfLoop:  true,
		},
		{
			name:             "two RAND exits and the fall-through share a target",
			src:              twoExitSrc,
			minBody:          4, // labelled assignment + three IFs
			wantBack:         1,
			wantExits:        3,
			sharedExitTarget: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mainCFG(t, tc.src)
			in, err := Analyze(g)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			hs := in.Headers()
			if len(hs) != 1 {
				t.Fatalf("Headers = %v, want exactly one:\n%s", hs, g)
			}
			h := hs[0]
			if in.Depth(h) != 1 || in.Parent(h) != cfg.None {
				t.Errorf("header %d: Depth = %d, Parent = %d, want outermost loop",
					h, in.Depth(h), in.Parent(h))
			}
			body := in.Body(h)
			if len(body) < tc.minBody {
				t.Errorf("body of %d has %d nodes, want ≥ %d:\n%s", h, len(body), tc.minBody, g)
			}
			if tc.selfLoop && len(body) != 1 {
				t.Errorf("self-loop body = %v, want exactly the header", body)
			}
			for _, n := range body {
				if in.HDR(n) != h {
					t.Errorf("HDR(%d) = %d, want %d", n, in.HDR(n), h)
				}
			}
			be := in.BackEdges(h)
			if len(be) != tc.wantBack {
				t.Errorf("BackEdges(%d) = %v, want %d", h, be, tc.wantBack)
			}
			if tc.selfLoop && (len(be) != 1 || be[0].From != h) {
				t.Errorf("self-loop back edge = %v, want %d->%d", be, h, h)
			}
			ex := in.LoopExits(h)
			if len(ex) != tc.wantExits {
				t.Fatalf("LoopExits(%d) = %v, want %d edges", h, ex, tc.wantExits)
			}
			if tc.sharedExitTarget {
				for _, e := range ex[1:] {
					if e.To != ex[0].To {
						t.Errorf("exit edges disagree on target: %v", ex)
					}
				}
			}
			for _, e := range ex {
				if !in.Contains(h, e.From) || in.Contains(h, e.To) {
					t.Errorf("exit edge %v does not leave the interval", e)
				}
			}
		})
	}
}
